"""Sending an object graph (paper §4.2, Algorithm 2).

A BFS "GC-like traversal" from each root clones every reachable object into
the destination's output buffer, adjusting exactly three machine-specific
things per clone and nothing else:

* the **mark word** — GC age / lock / bias bits reset, cached hashcode
  preserved (so hash structures need no rehash on the receiver);
* the **klass word** — replaced by the global type ID (tID);
* **reference fields** — relativized to logical output-buffer addresses.

The ``baddr`` header word of the *source* object records where its clone
lives in the buffer so later references to a shared object reuse the
address even after the clone streamed out.  Its layout follows the paper:
high bytes = shuffle-phase ID (sID), then the sending thread/stream
ID, lowest five bytes = relative buffer address.  (The paper gives the
sID one byte; this reproduction gives it two — taken from the thread
field, which rarely needs more than a byte — because the generic
serializer adapter opens a fresh phase per stream and would wrap one
byte of sID within a single Spark job.)  When a
second thread reaches an object whose ``baddr`` belongs to another thread,
it falls back to a thread-local hash table, so the object is cloned once
per stream — "these copies will become separate objects after delivered to
a remote node. This semantics is consistent with that of the existing
serializers."

Heterogeneous clusters: when the receiver's object layout differs (e.g. a
header without the baddr word), ``CLONEINBUFFER`` re-formats each clone to
the receiver's layout — the sender pays, the receiver uses objects at zero
cost (paper §3.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.heap import markword
from repro.heap.heap import NULL, ManagedHeap
from repro.heap.klass import Klass
from repro.heap.layout import HeapLayout, KLASS_OFFSET, MARK_OFFSET, OBJECT_ALIGNMENT, align_up
from repro.jvm.jvm import JVM
from repro.core.kernels import (
    HEADER3_STRUCT as _HEADER3,
    CloneKernel,
    WORD_STRUCT,
    clone_kernel_for,
    ref_run_struct,
)
from repro.core.output_buffer import OutputBuffer
from repro.types import descriptors
from repro.types.loader import ClassLoader

_REL_BITS = 40
_REL_MASK = (1 << _REL_BITS) - 1
_THREAD_BITS = 8
_THREAD_MASK = (1 << _THREAD_BITS) - 1
_SID_MASK = 0xFFFF


def compose_baddr(sid: int, thread_id: int, relative: int) -> int:
    """Pack (sID, thread, relative address) into the baddr word."""
    if relative > _REL_MASK:
        raise ValueError(f"relative address exceeds 5 bytes: {relative:#x}")
    return (
        ((sid & _SID_MASK) << 48)
        | ((thread_id & _THREAD_MASK) << _REL_BITS)
        | (relative & _REL_MASK)
    )


def baddr_sid(word: int) -> int:
    return (word >> 48) & _SID_MASK


def baddr_thread(word: int) -> int:
    return (word >> _REL_BITS) & _THREAD_MASK


def baddr_relative(word: int) -> int:
    return word & _REL_MASK


class SendError(RuntimeError):
    pass


class ObjectGraphSender:
    """One sending stream: a thread's traversal into one output buffer."""

    def __init__(
        self,
        jvm: JVM,
        buffer: OutputBuffer,
        sid: int,
        thread_id: int = 0,
        target_layout: Optional[HeapLayout] = None,
        use_kernels: bool = True,
    ) -> None:
        self.jvm = jvm
        self.buffer = buffer
        self.sid = sid
        self.thread_id = thread_id & _THREAD_MASK
        self.source_layout = jvm.layout
        self.target_layout = target_layout if target_layout is not None else jvm.layout
        self.heterogeneous = self.target_layout != self.source_layout
        #: Compiled-kernel fast path: homogeneous sends only (heterogeneous
        #: re-formatting stays interpreted), and only into a buffer whose
        #: ``write_object`` is not overridden — instrumenting subclasses
        #: (the streaming-ablation bench) observe the interpreted path.
        self.use_kernels = (
            use_kernels
            and not self.heterogeneous
            and type(buffer).write_object is OutputBuffer.write_object
        )
        self._target_loader: Optional[ClassLoader] = None
        self._target_cache: Dict[str, Klass] = {}
        #: Thread-local fallback table for objects first claimed by another
        #: thread's baddr (paper §4.2 "Support for Threads").
        self._shared_table: Dict[int, int] = {}
        #: Logical offsets of the top (root) objects, in write order.
        self.top_marks: List[int] = []
        #: Every cloned object as ``(source_address, buffer_address,
        #: payload_bytes)``, in clone order — the raw material for the
        #: delta subsystem's send-epoch cache (source address → receiver
        #: buffer offset, via the same baddr machinery).
        self.cloned: List[Tuple[int, int, int]] = []
        self.objects_sent = 0
        self.bytes_sent = 0
        # Byte composition of the transferred image (the paper's §5.2
        # extra-bytes analysis: headers 51% / padding 34% / pointers 15%).
        self.header_bytes = 0
        self.pointer_bytes = 0
        self.data_bytes = 0
        self.padding_bytes = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def write_object(self, root: int) -> int:
        """Copy the graph reachable from ``root`` into the output buffer;
        returns the root's logical buffer address and records a top mark."""
        if root == NULL:
            # writeObject(null) is legal for the Java serializer, so it is
            # here too: a zero top mark denotes a null root.
            self.top_marks.append(0)
            return 0
        heap = self.jvm.heap
        word = heap.read_baddr(root)
        if baddr_sid(word) == (self.sid & _SID_MASK):
            # Already copied in this shuffling phase *by this stream* (this
            # thread's baddr or our shared-object table): emit a backward
            # reference to its buffer location.  A baddr stamped by another
            # thread means a different stream copied it — this stream still
            # clones its own copy below (§4.2 "Support for Threads").
            if baddr_thread(word) == self.thread_id:
                old_addr = baddr_relative(word)
                self.top_marks.append(old_addr)
                return old_addr
            existing = self._shared_table.get(root)
            if existing is not None:
                self.top_marks.append(existing)
                return existing

        if self.use_kernels:
            root_addr = self._send_graph_kernel(root)
            self.top_marks.append(root_addr)
            return root_addr

        root_addr = self._claim(root)
        gray: Deque[Tuple[int, int]] = deque([(root, root_addr)])
        while gray:
            source, addr = gray.popleft()
            self._clone_in_buffer(source, addr, gray)
        self.top_marks.append(root_addr)
        return root_addr

    # ------------------------------------------------------------------
    # traversal internals
    # ------------------------------------------------------------------

    def _claim(self, obj: int) -> int:
        """Reserve buffer space for ``obj`` and stamp its baddr (or the
        thread-local table when another thread holds the baddr)."""
        heap = self.jvm.heap
        size = self._target_size(obj)
        addr = self.buffer.reserve(size)
        word = heap.read_baddr(obj)
        if baddr_sid(word) == (self.sid & _SID_MASK) and baddr_thread(word) != self.thread_id:
            self._shared_table[obj] = addr
        else:
            # CAS in the real system; deterministic single-writer here.
            heap.write_baddr(obj, compose_baddr(self.sid, self.thread_id, addr))
        return addr

    def _send_graph_kernel(self, root: int) -> int:
        """The compiled-kernel BFS: Algorithm 2 with every per-object step
        precomputed at class-load time and every hot accessor hoisted to a
        local.

        Per object this loop performs ONE klass resolution (a dict hit on
        the cached kernel), ONE slice copy heap→segment, ONE header pack,
        and one batched pointer unpack — versus the interpreted path's
        per-field reads, per-pointer charges, and three klass resolutions.
        Baddr words are read/written with a compiled ``struct`` directly
        against the heap's backing store; byte tallies and the simulated
        clock cost accumulate in locals and flush once per root.
        """
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        mem = heap.memory_view
        hbase = heap.base
        boff = heap.layout.baddr_offset
        aoff = heap.layout.array_length_offset
        resolver = heap.klass_resolver
        if resolver is None:
            heap.klass_of(root)  # raises the canonical HeapError
        layout = self.target_layout
        sid_tag = self.sid & _SID_MASK
        thread_id = self.thread_id
        #: The constant high bits of every baddr this stream stamps.
        claim_bits = (sid_tag << 48) | (thread_id << _REL_BITS)
        reserve = self.buffer.reserve
        begin_clone = self.buffer.begin_clone
        shared = self._shared_table
        traverse_word = cost.traverse_word
        unpack_word = WORD_STRUCT.unpack_from
        pack_word = WORD_STRUCT.pack_into
        reset_mark = markword.reset_for_transfer
        cloned_append = self.cloned.append
        gray: Deque[Tuple[int, int, CloneKernel, int, int]] = deque()
        gray_append = gray.append
        gray_pop = gray.popleft

        objects = 0
        bytes_out = 0
        clock_cost = 0.0
        header_b = pointer_b = data_b = padding_b = 0

        def claim(obj: int, off: int, foreign: bool) -> int:
            """Resolve class once, reserve, stamp/table the baddr, queue."""
            klass = resolver(unpack_word(mem, off + KLASS_OFFSET)[0])
            if klass.tid is None:
                raise SendError(
                    f"class {klass.name} has no global type ID — is the "
                    f"Skyway type registry attached to this JVM?"
                )
            kernel = klass.clone_kernel
            if (
                kernel is None
                or kernel.tid != klass.tid
                or kernel.layout is not layout
                or kernel.cost is not cost
            ):
                kernel = clone_kernel_for(klass, layout, cost)
            size = kernel.size
            if size is None:
                length = int.from_bytes(mem[off + aoff : off + aoff + 4], "little")
                size = kernel.array_size(length)
            else:
                length = 0
            addr = reserve(size)
            if addr > _REL_MASK:
                raise ValueError(
                    f"relative address exceeds 5 bytes: {addr:#x}"
                )
            if foreign:
                shared[obj] = addr
            else:
                pack_word(mem, off + boff, claim_bits | addr)
            gray_append((obj, addr, kernel, size, length))
            return addr

        root_off = root - hbase
        root_word = unpack_word(mem, root_off + boff)[0]
        # write_object already handled "claimed by this stream"; a matching
        # sID here can only mean another thread holds the baddr.
        root_addr = claim(root, root_off, (root_word >> 48) == sid_tag)

        while gray:
            source, addr, kernel, size, length = gray_pop()
            soff = source - hbase

            # CLONEINBUFFER: one slice assignment heap→segment.
            seg, off = begin_clone(addr, size)
            seg[off : off + size] = mem[soff : soff + size]

            # Header fixup in one pack: mark reset (hashcode preserved),
            # tID klass word, zeroed baddr.
            mark = reset_mark(unpack_word(seg, off)[0])
            header_struct = kernel.header_struct
            if header_struct is _HEADER3:
                header_struct.pack_into(seg, off, mark, kernel.tid, 0)
            else:
                header_struct.pack_into(seg, off, mark, kernel.tid)

            # Reference relativization off the kernel's precomputed slots.
            nonnull = 0
            if kernel.is_array:
                if kernel.has_ref_elements and length:
                    run = ref_run_struct(length)
                    elem_off = off + kernel.elem_base
                    relativized = []
                    rel_append = relativized.append
                    for ref in run.unpack_from(seg, elem_off):
                        if ref == NULL:
                            rel_append(0)
                            continue
                        nonnull += 1
                        roff = ref - hbase
                        word = unpack_word(mem, roff + boff)[0]
                        if (word >> 48) == sid_tag:
                            if ((word >> _REL_BITS) & _THREAD_MASK) == thread_id:
                                rel_append(word & _REL_MASK)
                                continue
                            existing = shared.get(ref)
                            if existing is not None:
                                rel_append(existing)
                                continue
                            rel_append(claim(ref, roff, True))
                        else:
                            rel_append(claim(ref, roff, False))
                    run.pack_into(seg, elem_off, *relativized)
                    ref_slots = length
                    pointer_b += length * 8
                else:
                    ref_slots = 0
                    data_b += length * kernel.elem_size
                header_b += kernel.array_header_bytes
                padding_b += max(
                    0,
                    size - kernel.array_header_bytes
                    - length * (8 if ref_slots else kernel.elem_size),
                )
                clock_cost += (kernel.array_cost(size, ref_slots)
                               + nonnull * traverse_word)
            else:
                ref_unpack = kernel.ref_unpack
                if ref_unpack is not None:
                    for slot, ref in zip(
                        kernel.ref_offsets, ref_unpack.unpack_from(seg, off)
                    ):
                        if ref == NULL:
                            relative = 0
                        else:
                            nonnull += 1
                            roff = ref - hbase
                            word = unpack_word(mem, roff + boff)[0]
                            if (word >> 48) == sid_tag:
                                if ((word >> _REL_BITS) & _THREAD_MASK) == thread_id:
                                    relative = word & _REL_MASK
                                else:
                                    relative = shared.get(ref)
                                    if relative is None:
                                        relative = claim(ref, roff, True)
                            else:
                                relative = claim(ref, roff, False)
                        pack_word(seg, off + slot, relative)
                header_b += kernel.header_bytes
                pointer_b += kernel.pointer_bytes
                data_b += kernel.data_bytes
                padding_b += kernel.padding_bytes
                clock_cost += kernel.base_cost + nonnull * traverse_word

            cloned_append((source, addr, size))
            objects += 1
            bytes_out += size

        self.jvm.clock.charge(clock_cost)
        self.objects_sent += objects
        self.bytes_sent += bytes_out
        self.header_bytes += header_b
        self.pointer_bytes += pointer_b
        self.data_bytes += data_b
        self.padding_bytes += padding_b
        return root_addr

    def _resolve_reference(self, obj: int, gray: Deque[Tuple[int, int]]) -> int:
        """Relativized address for a referenced object, claiming it (and
        queueing it for cloning) on first visit this phase."""
        if obj == NULL:
            return 0
        self.jvm.clock.charge(self.jvm.cost_model.traverse_word)
        heap = self.jvm.heap
        word = heap.read_baddr(obj)
        if baddr_sid(word) == (self.sid & _SID_MASK):
            if baddr_thread(word) == self.thread_id:
                return baddr_relative(word)
            existing = self._shared_table.get(obj)
            if existing is not None:
                return existing
            # Claimed by another thread: clone separately for this stream.
            addr = self.buffer.reserve(self._target_size(obj))
            self._shared_table[obj] = addr
            gray.append((obj, addr))
            return addr
        addr = self._claim(obj)
        gray.append((obj, addr))
        return addr

    def _clone_in_buffer(
        self, source: int, addr: int, gray: Deque[Tuple[int, int]]
    ) -> None:
        """CLONEINBUFFER + header update + reference relativization for one
        object (Algorithm 2 lines 10–27)."""
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        klass = heap.klass_of(source)
        if klass.tid is None:
            raise SendError(
                f"class {klass.name} has no global type ID — is the Skyway "
                f"type registry attached to this JVM?"
            )
        if self.heterogeneous:
            payload = self._convert_format(source, klass, gray)
        else:
            payload = bytearray(heap.read_bytes(source, heap.object_size(source)))
            self._fix_header(payload, klass)
            self._fix_references_homogeneous(source, payload, gray)

        self.jvm.clock.charge(cost.skyway_header_fixup)
        self.jvm.clock.charge(cost.memcpy(len(payload)))
        self.buffer.write_object(addr, bytes(payload))
        self.cloned.append((source, addr, len(payload)))
        self.objects_sent += 1
        self.bytes_sent += len(payload)
        array_length = heap.array_length(source) if klass.is_array else None
        self._account_composition(klass, len(payload), array_length)

    def _account_composition(
        self, klass: Klass, payload_len: int, array_length: Optional[int]
    ) -> None:
        """Split one clone's bytes into header / pointers / data / padding."""
        target = self._target_klass(klass.name) if self.heterogeneous else klass
        header = self.target_layout.header_size
        pointers = 0
        data = 0
        if target.is_array:
            header += 4  # the length slot counts as header metadata
            elem = target.element_descriptor or ""
            count = array_length or 0
            if descriptors.is_reference(elem):
                pointers = count * 8
            else:
                data = count * target.element_size
        else:
            for field in target.all_fields():
                if field.is_reference:
                    pointers += 8
                else:
                    data += field.size
        padding = payload_len - header - pointers - data
        self.header_bytes += header
        self.pointer_bytes += pointers
        self.data_bytes += data
        self.padding_bytes += max(0, padding)

    def _fix_header(self, payload: bytearray, klass: Klass) -> None:
        mark = int.from_bytes(payload[MARK_OFFSET : MARK_OFFSET + 8], "little")
        clean = markword.reset_for_transfer(mark)
        payload[MARK_OFFSET : MARK_OFFSET + 8] = clean.to_bytes(8, "little")
        payload[KLASS_OFFSET : KLASS_OFFSET + 8] = (klass.tid or 0).to_bytes(8, "little")
        if self.target_layout.has_baddr:
            off = self.target_layout.baddr_offset
            payload[off : off + 8] = bytes(8)

    def _fix_references_homogeneous(
        self, source: int, payload: bytearray, gray: Deque[Tuple[int, int]]
    ) -> None:
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        for offset in heap.reference_offsets(source):
            target = heap.read_word(source + offset)
            relative = self._resolve_reference(target, gray)
            payload[offset : offset + 8] = relative.to_bytes(8, "little")
            self.jvm.clock.charge(cost.skyway_pointer_fixup)

    # ------------------------------------------------------------------
    # heterogeneous-format support
    # ------------------------------------------------------------------

    def _target_klass(self, name: str) -> Klass:
        if not self.heterogeneous:
            return self.jvm.loader.load(name)
        cached = self._target_cache.get(name)
        if cached is not None:
            return cached
        if self._target_loader is None:
            self._target_loader = ClassLoader(self.jvm.classpath, self.target_layout)
        klass = self._target_loader.load(name)
        self._target_cache[name] = klass
        return klass

    def _target_size(self, obj: int) -> int:
        heap = self.jvm.heap
        klass = heap.klass_of(obj)
        if not self.heterogeneous:
            return heap.object_size(obj)
        target = self._target_klass(klass.name)
        if target.is_array:
            return target.object_size(heap.array_length(obj))
        return target.object_size()

    def _convert_format(
        self, source: int, klass: Klass, gray: Deque[Tuple[int, int]]
    ) -> bytearray:
        """Re-lay an object out in the receiver's format: new header
        geometry, new field offsets.  Extra cost lands on the sender only
        (paper §3.1)."""
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        target = self._target_klass(klass.name)
        if target.is_array:
            length = heap.array_length(source)
            size = target.object_size(length)
        else:
            length = None
            size = target.object_size()
        payload = bytearray(size)

        mark = markword.reset_for_transfer(heap.read_mark(source))
        payload[MARK_OFFSET : MARK_OFFSET + 8] = mark.to_bytes(8, "little")
        payload[KLASS_OFFSET : KLASS_OFFSET + 8] = (klass.tid or 0).to_bytes(8, "little")
        # Conversion pays roughly a second copy of the object.
        self.jvm.clock.charge(cost.memcpy(size))

        if target.is_array:
            assert length is not None
            lo = self.target_layout.array_length_offset
            payload[lo : lo + 4] = length.to_bytes(4, "little")
            elem = target.element_descriptor or ""
            src_base = self.source_layout.array_payload_offset(elem)
            dst_base = self.target_layout.array_payload_offset(elem)
            esize = target.element_size
            if descriptors.is_reference(elem):
                for i in range(length):
                    ref = heap.read_word(source + src_base + i * esize)
                    rel = self._resolve_reference(ref, gray)
                    off = dst_base + i * esize
                    payload[off : off + 8] = rel.to_bytes(8, "little")
                    self.jvm.clock.charge(cost.skyway_pointer_fixup)
            else:
                raw = heap.read_bytes(source + src_base, length * esize)
                payload[dst_base : dst_base + len(raw)] = raw
        else:
            source_fields = {f.name: f for f in klass.all_fields()}
            for tf in target.all_fields():
                sf = source_fields.get(tf.name)
                if sf is None:
                    raise SendError(
                        f"cannot re-format {klass.name} for the receiver's "
                        f"layout: target class {target.name} declares field "
                        f"{tf.name!r} ({tf.descriptor}) that the source "
                        f"class does not have"
                    )
                if tf.is_reference:
                    ref = heap.read_word(source + sf.offset)
                    rel = self._resolve_reference(ref, gray)
                    payload[tf.offset : tf.offset + 8] = rel.to_bytes(8, "little")
                    self.jvm.clock.charge(cost.skyway_pointer_fixup)
                else:
                    raw = heap.read_bytes(source + sf.offset, sf.size)
                    payload[tf.offset : tf.offset + tf.size] = raw
        return payload
