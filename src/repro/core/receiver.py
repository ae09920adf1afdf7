"""Receiving an object graph (paper §4.3).

"With the careful design on sending, the receiving logic is much simpler":

1. **Placement** (streaming): each arriving segment's object boundaries
   are parsed — the klass slot holds a tID, which the registry view
   resolves once per class (loading the class if this JVM never saw it) to
   a compiled class kernel that knows each object's size — and the
   segment is then copied into in-heap input-buffer chunks as one run.
2. **The receive pass** (streaming, while the chunks abut): the same loop
   restores each klass word and absolutizes each reference with one add,
   the buffer's ``physical - logical`` offset, before the run lands; the
   run is then read back from the heap and its normalized images hashed
   into the digest :func:`repro.transport.digest.graph_digest` returns.
   A stream whose chunks stop abutting is absolutized at end-of-stream by
   :meth:`ObjectGraphReceiver.absolutize`, the scan a delta apply uses.
3. **GC integration**: the freshly filled chunks are bulk-marked in the
   card table so the received pointers are visible to minor collections.
4. Registered **update functions** (paper §3.3's ``registerUpdate``) run
   against matching objects after the transfer.

Computation on a buffer must not start until all of its references are
absolute and checked; :class:`ObjectGraphReceiver` enforces that by only
exposing roots from :meth:`finish`.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.input_buffer import InputBuffer, InputBufferError
from repro.core.kernels import KLASS_WORD_END, ClassKernel, kernel_for
from repro.core.output_buffer import LOGICAL_BASE
from repro.core.type_registry import RegistryView
from repro.heap.handles import Handle
from repro.heap.heap import NULL
from repro.heap.layout import KLASS_OFFSET
from repro.jvm.jvm import JVM

#: An update hook: (jvm, object_address) -> new field value.
UpdateFunction = Callable[[JVM, int], object]

#: The klass slot as a word index from an object's first word.
_KLASS_WORD = KLASS_OFFSET >> 3
_LENGTH_MASK = 0xFFFFFFFF
_WORD_MASK = (1 << 64) - 1

#: The pass hashes its normalized images in joins of about this many bytes.
_HASH_BATCH_BYTES = 64 * 1024


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
        #: Per-receiver tID -> compiled kernel memo: the registry
        #: view and class loader are consulted once per class, not once per
        #: object (the old per-object ``name_for`` + ``loader.load`` pair
        #: dominated placement time for homogeneous streams).
        self._kernels: Dict[int, ClassKernel] = {}
        #: Kernel per placed object, parallel to
        #: ``buffer.placed_objects`` (logical order).
        self._placed_kernels: List[ClassKernel] = []
        self._finished = False
        self.objects_received = 0
        self.bytes_received = 0
        # The receive pass: its hash (None once the stream left the pass),
        # offset, reference range and the simulated cost of the scan.
        self._hasher = hashlib.sha256()
        self._offset: Optional[int] = None
        self._ref_low = _WORD_MASK
        self._ref_high = 0
        self._scan_cost = 0.0
        self._size_bytes: Dict[int, bytes] = {}
        #: ``(digest, buffer fingerprint)`` when ``finish`` kept the pass.
        self.pass_digest: Optional[Tuple[str, bytes]] = None

    # ------------------------------------------------------------------
    # streaming placement
    # ------------------------------------------------------------------

    def feed(self, segment: bytes) -> None:
        """Parse, absolutize and place one flushed segment (whole objects
        only), then hash it while the receive pass is on.

        One loop over the segment's word view parses each object (one
        kernel dict hit), restores its klass word and adds the pass's
        offset to each reference (0 once off the pass: they stay logical
        for :meth:`finish`'s scan).  Only a segment that parses is placed.
        """
        if self._finished:
            raise ReceiveError("stream already finished")
        buffer = self.buffer
        on_pass = self._hasher is not None
        if on_pass:
            self._offset = buffer.landing_offset()
        offset = self._offset if on_pass else 0
        pointer_fixup = self.jvm.cost_model.skyway_pointer_fixup
        low, high, cost = self._ref_low, self._ref_high, self._scan_cost
        kernels = self._kernels
        n = len(segment)
        # Word reads past a torn tail land in zero padding; the bounds
        # checks below use the real length.
        image = bytearray(segment)
        image += bytes(-n & 7)
        words = memoryview(image).cast("Q")
        whole = n >> 3  # words the segment fills completely
        stop = (n + 7) >> 3
        sizes: List[int] = []
        placed: List[ClassKernel] = []
        add_size = sizes.append
        add_kernel = placed.append
        w = 0
        while w < stop:
            if w + (KLASS_WORD_END >> 3) > whole:
                raise ReceiveError(
                    f"truncated object header at segment offset {w << 3}"
                )
            try:
                kernel = kernels[words[w + _KLASS_WORD]]
            except KeyError:
                tid = words[w + _KLASS_WORD]
                if tid == 0:
                    raise ReceiveError(
                        f"null tID at segment offset {w << 3} (object "
                        f"#{self.objects_received + len(sizes)} of the stream)"
                    ) from None
                kernel = self.kernel_for(tid)
            slots = kernel.ref_words
            size = kernel.size
            if size is None:  # array: the size depends on the length slot
                if (w << 3) + kernel.length_offset + 4 > n:
                    raise ReceiveError(
                        f"truncated object header at segment offset {w << 3}"
                    )
                length = words[w + kernel.length_word] & _LENGTH_MASK
                size = (kernel.elem_base + kernel.elem_size * length + 7) & -8
                slots = ()
                if kernel.has_ref_elements:
                    slots = range(kernel.elem_word, kernel.elem_word + length)
                    cost += length * pointer_fixup
            if w + (size >> 3) > whole:
                raise ReceiveError(
                    f"object of {size} bytes overruns segment at {w << 3}"
                )
            words[w + _KLASS_WORD] = kernel.klass_id
            for i in slots:
                ref = words[w + i]
                if ref:
                    if ref < low:
                        low = ref
                    if ref > high:
                        high = ref
                    words[w + i] = (ref + offset) & _WORD_MASK
            cost += kernel.finish_cost
            add_size(size)
            add_kernel(kernel)
            w += size >> 3
        addresses = buffer.place_run(memoryview(image)[:n], sizes)
        self._placed_kernels.extend(placed)
        self.objects_received += len(sizes)
        self.bytes_received += n
        self.jvm.clock.charge(self.jvm.cost_model.memcpy(n))
        if not on_pass or not addresses:
            return
        self._ref_low, self._ref_high, self._scan_cost = low, high, cost
        if (buffer.offset != offset or low < LOGICAL_BASE
                or high > _WORD_MASK - offset):
            # Not abutting, or a known-bad reference: the scan reports it.
            self._leave_pass(len(self._placed_kernels))
            return
        self._hash_run(addresses[0], addresses[-1] + sizes[-1], placed, sizes)

    def kernel_for(self, tid: int) -> ClassKernel:
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
        kernel = kernel_for(klass, self.jvm.layout, self.jvm.cost_model)
        self._kernels[tid] = kernel
        return kernel

    def _hash_run(
        self, start: int, end: int, placed: List[ClassKernel],
        sizes: List[int],
    ) -> None:
        """Hash the run ``[start, end)`` just placed, read back from the
        heap: zero each klass word and turn each pointer back into its
        logical offset in one copy, then hash ``name | size | image``."""
        heap = self.jvm.heap
        offset = self._offset
        size_bytes = self._size_bytes
        image = bytearray(heap.memory_view[start - heap.base : end - heap.base])
        words = memoryview(image).cast("Q")
        update = self._hasher.update
        parts: list = []
        at = 0
        flush_at = _HASH_BATCH_BYTES
        for kernel, size in zip(placed, sizes):
            w = at >> 3
            words[w + _KLASS_WORD] = 0
            slots = kernel.ref_words
            if slots is None:
                slots = ()
                if kernel.has_ref_elements:
                    length = words[w + kernel.length_word] & _LENGTH_MASK
                    slots = range(kernel.elem_word, kernel.elem_word + length)
                try:
                    sized = size_bytes[size]
                except KeyError:
                    sized = size_bytes[size] = size.to_bytes(8, "little")
                parts += (kernel.hash_prefix, sized)
            else:
                parts += (kernel.hash_prefix,)
            for i in slots:
                pointer = words[w + i]
                if pointer:
                    words[w + i] = pointer - offset
            parts += (image[at : at + size],)
            at += size
            if at >= flush_at:
                update(b"".join(parts))
                parts.clear()
                flush_at = at + _HASH_BATCH_BYTES
        update(b"".join(parts))

    def _leave_pass(self, count: int) -> None:
        """Put the first ``count`` placed objects' references back in
        logical form; the stream finishes through :meth:`absolutize`."""
        offset = self._offset
        self._rewrite(zip(self.buffer.placed_objects[:count],
                          self._placed_kernels),
                      lambda pointer: (pointer - offset) & _WORD_MASK)
        self._hasher = self._offset = None

    # ------------------------------------------------------------------
    # absolutization
    # ------------------------------------------------------------------

    def finish(self, root_offsets: List[int]) -> List[Handle]:
        """End of stream: check the receive pass (or run the absolutization
        scan if the stream left it), update the card table, apply
        registered updates, and pin the top objects."""
        if self._finished:
            raise ReceiveError("stream already finished")
        self._finished = True
        buffer = self.buffer
        buffer.freeze()
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        if self._hasher is not None:
            for chunk in buffer.chunks:
                if chunk.physical_start - chunk.logical_start != self._offset:
                    raise ReceiveError(
                        f"receive pass offset {self._offset:#x} disagrees "
                        f"with the chunk at {chunk.physical_start:#x}")
            if self._ref_high >= LOGICAL_BASE + buffer.logical_size:
                self._leave_pass(len(buffer.placed_objects))
        if self._hasher is None:
            self.absolutize(zip(buffer.placed_objects, self._placed_kernels))
        else:
            self.jvm.clock.charge(self._scan_cost)
            self.pass_digest = (self._hasher.hexdigest(), buffer.fingerprint())

        # GC integration: make the new pointers card-table visible.
        for chunk in buffer.chunks:
            heap.card_table.mark_range(chunk.physical_start, chunk.filled)
            self.jvm.clock.charge(cost.card_table_update)

        self._apply_updates()
        return [self.jvm.pin(self._root_address(off)) for off in root_offsets]

    def absolutize(self, objects: Iterable[Tuple[int, ClassKernel]]) -> None:
        """The linear scan over ``(address, kernel)`` pairs of placed wire
        images, for a stream that left the receive pass and for the objects
        a delta apply touched: restore each klass word and absolutize each
        reference by the chunk arithmetic; the cost is charged once."""
        self.jvm.clock.charge(self._rewrite(objects, self.buffer.translate))

    def _rewrite(self, objects: Iterable[Tuple[int, ClassKernel]],
                 rewrite: Callable[[int], int]) -> float:
        """Restore each object's klass word and replace each non-null
        reference by ``rewrite(reference)`` on the heap's word view;
        returns the scan's simulated cost."""
        heap = self.jvm.heap
        words = heap.word_view
        pointer_fixup = self.jvm.cost_model.skyway_pointer_fixup
        cost = 0.0
        for address, kernel in objects:
            w = (address - heap.base) >> 3
            words[w + _KLASS_WORD] = kernel.klass_id
            slots = kernel.ref_words
            if slots is None:  # an array: a run of reference slots, or none
                slots = ()
                if kernel.has_ref_elements:
                    length = words[w + kernel.length_word] & _LENGTH_MASK
                    slots = range(kernel.elem_word, kernel.elem_word + length)
                    cost += length * pointer_fixup
            for i in slots:
                if words[w + i]:
                    words[w + i] = rewrite(words[w + i])
            cost += kernel.finish_cost
        return cost

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
