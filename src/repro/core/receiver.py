"""Receiving an object graph (paper §4.3).

"With the careful design on sending, the receiving logic is much simpler":

1. **Placement** (streaming): each arriving segment's object boundaries
   are parsed — the klass slot holds a tID, which the registry view
   resolves once per class (loading the class if this JVM never saw it) to
   a compiled receive kernel that knows each object's size — and the
   segment is then copied into in-heap input-buffer chunks as one run.
2. **Absolutization** (after end-of-stream): one linear scan rewrites each
   object's tID back to the local klass pointer and each relativized
   reference to an absolute heap address via the chunk arithmetic.  The
   scan is :meth:`ObjectGraphReceiver.absolutize`, the only one in the
   tree: :meth:`~ObjectGraphReceiver.finish` runs it over every placed
   object, a delta apply over exactly the objects its frame touched.
3. **GC integration**: the freshly filled chunks are bulk-marked in the
   card table so the received pointers are visible to minor collections.
4. Registered **update functions** (paper §3.3's ``registerUpdate``) run
   against matching objects after the transfer.

Computation on a buffer must not start until its absolutization pass is
done; :class:`ObjectGraphReceiver` enforces that by only exposing roots
from :meth:`finish`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.input_buffer import InputBuffer, InputBufferError
from repro.core.kernels import (
    KLASS_WORD_END,
    LENGTH_STRUCT,
    ReceiveKernel,
    WORD_STRUCT,
    receive_kernel_for,
    ref_run_struct,
)
from repro.core.type_registry import RegistryView
from repro.heap.handles import Handle
from repro.heap.heap import NULL
from repro.heap.layout import KLASS_OFFSET
from repro.jvm.jvm import JVM

#: An update hook: (jvm, object_address) -> new field value.
UpdateFunction = Callable[[JVM, int], object]


class ReceiveError(RuntimeError):
    pass


class ObjectGraphReceiver:
    """One receiving stream: segments in, absolutized heap objects out."""

    def __init__(
        self,
        jvm: JVM,
        registry_view: RegistryView,
        chunk_size: int = 64 * 1024,
        update_functions: Optional[Dict[str, List[Tuple[str, UpdateFunction]]]] = None,
    ) -> None:
        self.jvm = jvm
        self.view = registry_view
        self.buffer = InputBuffer(jvm.heap, chunk_size=chunk_size)
        self._update_functions = update_functions or {}
        #: Per-receiver tID -> compiled receive kernel memo: the registry
        #: view and class loader are consulted once per class, not once per
        #: object (the old per-object ``name_for`` + ``loader.load`` pair
        #: dominated placement time for homogeneous streams).
        self._kernels: Dict[int, ReceiveKernel] = {}
        #: Receive kernel per placed object, parallel to
        #: ``buffer.placed_objects`` (logical order).
        self._placed_kernels: List[ReceiveKernel] = []
        self._finished = False
        self.objects_received = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # streaming placement
    # ------------------------------------------------------------------

    def feed(self, segment: bytes) -> None:
        """Parse and place one flushed segment (whole objects only).

        The segment's object boundaries are parsed first (one kernel dict
        hit per object); the bytes then land in the input buffer as one
        run and the simulated copy is charged once for the segment.
        """
        if self._finished:
            raise ReceiveError("stream already finished")
        kernels = self._kernels
        unpack_word = WORD_STRUCT.unpack_from
        unpack_length = LENGTH_STRUCT.unpack_from
        n = len(segment)
        sizes: List[int] = []
        placed: List[ReceiveKernel] = []
        add_size = sizes.append
        add_kernel = placed.append
        pos = 0
        while pos < n:
            if pos + KLASS_WORD_END > n:
                raise ReceiveError(
                    f"truncated object header at segment offset {pos}"
                )
            tid = unpack_word(segment, pos + KLASS_OFFSET)[0]
            kernel = kernels.get(tid)
            if kernel is None:
                if tid == 0:
                    raise ReceiveError(
                        f"null tID at segment offset {pos} (object "
                        f"#{self.objects_received + len(sizes)} of the stream)"
                    )
                kernel = self.kernel_for(tid)
            size = kernel.size
            if size is None:  # array: the size depends on the length slot
                lo = pos + kernel.length_offset
                if lo + 4 > n:
                    raise ReceiveError(
                        f"truncated object header at segment offset {pos}"
                    )
                size = kernel.array_size(unpack_length(segment, lo)[0])
            if pos + size > n:
                raise ReceiveError(
                    f"object of {size} bytes overruns segment at {pos}"
                )
            add_size(size)
            add_kernel(kernel)
            pos += size
        self.buffer.place_run(segment, sizes)
        self._placed_kernels.extend(placed)
        self.objects_received += len(sizes)
        self.bytes_received += n
        self.jvm.clock.charge(self.jvm.cost_model.memcpy(n))

    def kernel_for(self, tid: int) -> ReceiveKernel:
        """tID -> this receiver's kernel for the local klass (memoized),
        loading the class if it is missing here (paper: "Skyway instructs
        the class loader to load the missing class since the type registry
        knows the full class name")."""
        kernel = self._kernels.get(tid)
        if kernel is not None:
            return kernel
        klass = self.jvm.loader.load(self.view.name_for(tid))
        if klass.klass_id is None:  # pragma: no cover - loader invariant
            raise ReceiveError(f"klass {klass.name} not installed")
        kernel = receive_kernel_for(klass, self.jvm.layout, self.jvm.cost_model)
        self._kernels[tid] = kernel
        return kernel

    # ------------------------------------------------------------------
    # absolutization
    # ------------------------------------------------------------------

    def finish(self, root_offsets: List[int]) -> List[Handle]:
        """End of stream: run the linear absolutization scan, update the
        card table, apply registered updates, and pin the top objects."""
        if self._finished:
            raise ReceiveError("stream already finished")
        self._finished = True
        self.buffer.freeze()
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        self.absolutize(zip(self.buffer.placed_objects, self._placed_kernels))

        # GC integration: make the new pointers card-table visible.
        for chunk in self.buffer.chunks:
            heap.card_table.mark_range(chunk.physical_start, chunk.filled)
            self.jvm.clock.charge(cost.card_table_update)

        self._apply_updates()
        return [self.jvm.pin(self._root_address(off)) for off in root_offsets]

    def absolutize(self, objects: Iterable[Tuple[int, ReceiveKernel]]) -> None:
        """The linear scan over ``(address, kernel)`` pairs of placed wire
        images: restore each klass word and absolutize each reference
        straight against the heap's backing store.  The loop lives in here
        so a caller pays one call per scan, and the scan's simulated cost
        is summed in a local and charged once."""
        heap = self.jvm.heap
        memory = heap.memory_view
        heap_base = heap.base
        translate = self.buffer.translate
        pack_word = WORD_STRUCT.pack_into
        pointer_fixup = self.jvm.cost_model.skyway_pointer_fixup
        scan_cost = 0.0
        for address, kernel in objects:
            at = address - heap_base
            pack_word(memory, at + KLASS_OFFSET, kernel.klass_id)
            ref_unpack = kernel.ref_unpack
            if ref_unpack is not None:
                for slot, relative in zip(
                    kernel.ref_offsets, ref_unpack.unpack_from(memory, at)
                ):
                    if relative:
                        pack_word(memory, at + slot, translate(relative))
            elif kernel.has_ref_elements:
                slots = LENGTH_STRUCT.unpack_from(
                    memory, at + kernel.length_offset
                )[0]
                if slots:
                    run = ref_run_struct(slots)
                    base = at + kernel.elem_base
                    run.pack_into(
                        memory,
                        base,
                        *[
                            translate(v) if v else 0
                            for v in run.unpack_from(memory, base)
                        ],
                    )
                    scan_cost += slots * pointer_fixup
            scan_cost += kernel.finish_cost
        self.jvm.clock.charge(scan_cost)

    def _root_address(self, logical_offset: int) -> int:
        if logical_offset == 0:
            return NULL
        try:
            return self.buffer.translate(logical_offset)
        except InputBufferError as exc:
            raise ReceiveError(f"bad top-mark offset {logical_offset:#x}") from exc

    def _apply_updates(self) -> None:
        """Run ``registerUpdate`` hooks on matching received objects
        (paper §3.3: e.g. re-initializing a timestamp field)."""
        if not self._update_functions:
            return
        for address, kernel in zip(self.buffer.placed_objects,
                                   self._placed_kernels):
            hooks = self._update_functions.get(kernel.klass.name)
            if not hooks:
                continue
            for field_name, fn in hooks:
                self.jvm.set_field(address, field_name, fn(self.jvm, address))
