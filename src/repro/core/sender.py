"""Sending an object graph (paper §4.2, Algorithm 2).

A BFS "GC-like traversal" from each root clones every reachable object into
the destination's output buffer, adjusting exactly three machine-specific
things per clone and nothing else:

* the **mark word** — GC age / lock / bias bits reset, cached hashcode
  preserved (so hash structures need no rehash on the receiver);
* the **klass word** — replaced by the global type ID (tID);
* **reference fields** — relativized to logical output-buffer addresses,
  when the *referencing* object is cloned: its segment may stream out
  before the target's clone is written, so nothing is patched later.

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

Heterogeneous clusters (paper §3.1): for a receiver whose header lacks the
baddr word, the same loop runs converting kernels, which copy each image
from one word further in; the sender pays, the receiver nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.heap import markword
from repro.heap.heap import NULL
from repro.heap.klass import Klass
from repro.heap.layout import HeapLayout, KLASS_OFFSET, MARK_OFFSET
from repro.heap.markword import FRESH_MARK, HASH_MASK
from repro.jvm.jvm import JVM
from repro.core.kernels import ClassKernel, kernel_for
from repro.core.output_buffer import OutputBuffer

_REL_BITS = 40
_REL_MASK = (1 << _REL_BITS) - 1
_THREAD_BITS = 8
_THREAD_MASK = (1 << _THREAD_BITS) - 1
_SID_MASK = 0xFFFF
#: The 4-byte array length slot, read as the low half of its word.
_LENGTH_MASK = 0xFFFFFFFF


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
        #: The kernel loop serves every destination layout; False selects
        #: the interpreted per-object reference, for homogeneous sends.
        if self.heterogeneous and not use_kernels:
            raise SendError(
                "the interpreted sender only clones into the source layout"
            )
        self.use_kernels = use_kernels
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
        addr = self.buffer.reserve(heap.object_size(obj))
        word = heap.read_baddr(obj)
        if baddr_sid(word) == (self.sid & _SID_MASK) and baddr_thread(word) != self.thread_id:
            self._shared_table[obj] = addr
        else:
            # CAS in the real system; deterministic single-writer here.
            heap.write_baddr(obj, compose_baddr(self.sid, self.thread_id, addr))
        return addr

    def _kernel_for(self, obj: int) -> ClassKernel:
        """``obj``'s class, checked for a tID, as its kernel."""
        klass = self._typed_klass(obj)
        return kernel_for(klass, self.target_layout, self.jvm.cost_model)

    def _typed_klass(self, obj: int) -> Klass:
        klass = self.jvm.heap.klass_of(obj)
        if klass.tid is None:
            raise SendError(
                f"class {klass.name} has no global type ID — is the Skyway "
                f"type registry attached to this JVM?"
            )
        return klass

    def _send_graph_kernel(self, root: int) -> int:
        """The compiled-kernel BFS: Algorithm 2 as one word-indexed loop.

        Heap and segment are read and written through 64-bit word views,
        so the baddr, klass word, mark word and every reference slot is
        one index operation.  Images and reference slots are read from
        ``skip`` words into the source object, the words a converting
        kernel drops.  Each class is checked once per call (a memo
        keyed by the raw klass word); a claim bumps a local allocation
        pointer and appends ``(source, address, size)`` to the gray list,
        which is also the call's clone record.  Objects go into the open
        segment at a local cursor, and the buffer is only asked for a new
        window when the next object does not fit, so flushes land exactly
        where :meth:`OutputBuffer.begin_clone` puts them.  Byte tallies and
        the simulated clock cost accumulate in locals, in per-object order,
        and are applied once per root.
        """
        heap = self.jvm.heap
        words = heap.word_view
        mem = heap.memory_view
        hbase = heap.base
        bw = heap.layout.baddr_offset >> 3
        lw = heap.layout.array_length_offset >> 3
        target = self.target_layout
        skip = (heap.layout.header_size - target.header_size) >> 3
        #: Zeroed ahead of the tID store: the target's baddr word, or the
        #: klass word that store overwrites when the target has none.
        zw = target.baddr_offset >> 3 if target.has_baddr else 1
        cost = self.jvm.cost_model
        hf = cost.skyway_header_fixup
        # A conversion pays a second copy, as ClassKernel.base_cost does.
        mpb = cost.memcpy_per_byte * (2 if skip else 1)
        pf = cost.skyway_pointer_fixup
        tw = cost.traverse_word
        sid_tag = self.sid & _SID_MASK
        thread_id = self.thread_id
        #: The constant high bits of every baddr this stream stamps.
        claim_bits = (sid_tag << 48) | (thread_id << _REL_BITS)
        buffer = self.buffer
        shared = self._shared_table
        kernels: Dict[int, ClassKernel] = {}
        gray: List[Tuple[int, int, int]] = []
        gray_append = gray.append
        bump = buffer.allocable_addr

        # Claim the root.  write_object already handled "claimed by this
        # stream"; a matching sID here means another thread holds the baddr.
        rw = (root - hbase) >> 3
        kernel = kernels[words[rw + 1]] = self._kernel_for(root)
        size = kernel.size
        if size is None:
            size = (kernel.elem_base + kernel.elem_size
                    * (words[rw + lw] & _LENGTH_MASK) + 7) & -8
        root_addr = bump
        if root_addr > _REL_MASK:
            raise ValueError(f"relative address exceeds 5 bytes: {root_addr:#x}")
        bump += size
        if words[rw + bw] >> 48 == sid_tag:
            shared[root] = root_addr
        else:
            words[rw + bw] = claim_bits | root_addr
        gray_append((root, root_addr, size))

        seg_base = seg_end = 0
        segw = None
        header_b = pointer_b = data_b = padding_b = 0
        clock_cost = 0.0
        try:
            # Appending to ``gray`` while iterating it is the BFS queue.
            for source, addr, size in gray:
                sw = (source - hbase) >> 3
                kernel = kernels[words[sw + 1]]
                if addr + size > seg_end:
                    if segw is not None:
                        buffer.commit(addr - seg_base)
                    seg, o = buffer.begin_clone(addr, size)
                    seg_base = addr - o
                    seg_end = seg_base + len(seg)
                    segw = memoryview(seg)[: len(seg) & -8].cast("Q")
                o = addr - seg_base
                sb = sw + skip
                soff = sb << 3
                seg[o : o + size] = mem[soff : soff + size]
                ow = o >> 3
                segw[ow] = FRESH_MARK | (words[sw] & HASH_MASK)
                segw[ow + zw] = 0
                segw[ow + 1] = kernel.tid

                slots = kernel.ref_words
                if slots is None:  # an array: costs as kernel.array_cost
                    length = words[sw + lw] & _LENGTH_MASK
                    payload = length * kernel.elem_size
                    header_b += kernel.array_header_bytes
                    padding_b += size - kernel.array_header_bytes - payload
                    if kernel.has_ref_elements:
                        pointer_b += payload
                        slots = range(kernel.elem_word, kernel.elem_word + length)
                        object_cost = hf + size * mpb + length * pf
                    else:
                        data_b += payload
                        slots = ()
                        object_cost = hf + size * mpb
                else:
                    header_b += kernel.header_bytes
                    pointer_b += kernel.pointer_bytes
                    data_b += kernel.data_bytes
                    padding_b += kernel.padding_bytes
                    object_cost = kernel.base_cost

                nonnull = 0
                for i in slots:
                    ref = words[sb + i]
                    if not ref:
                        continue
                    nonnull += 1
                    rw = (ref - hbase) >> 3
                    word = words[rw + bw]
                    if word >> 48 == sid_tag:
                        if (word >> _REL_BITS) & _THREAD_MASK == thread_id:
                            segw[ow + i] = word & _REL_MASK
                            continue
                        if ref in shared:
                            segw[ow + i] = shared[ref]
                            continue
                        foreign = True
                    else:
                        foreign = False
                    # First visit this phase: claim at the bump pointer.
                    kw = words[rw + 1]
                    try:
                        target = kernels[kw]
                    except KeyError:
                        target = kernels[kw] = self._kernel_for(ref)
                    claimed = target.size
                    if claimed is None:
                        claimed = (target.elem_base + target.elem_size
                                   * (words[rw + lw] & _LENGTH_MASK) + 7) & -8
                    if bump > _REL_MASK:
                        raise ValueError(
                            f"relative address exceeds 5 bytes: {bump:#x}")
                    if foreign:
                        shared[ref] = bump
                    else:
                        words[rw + bw] = claim_bits | bump
                    gray_append((ref, bump, claimed))
                    segw[ow + i] = bump
                    bump += claimed
                clock_cost += object_cost + nonnull * tw
        finally:
            buffer.allocable_addr = bump
        buffer.commit(bump - seg_base)

        self.jvm.clock.charge(clock_cost)
        self.cloned.extend(gray)
        self.objects_sent += len(gray)
        self.bytes_sent += bump - root_addr
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
            addr = self.buffer.reserve(heap.object_size(obj))
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
        klass = self._typed_klass(source)
        payload = bytearray(heap.read_bytes(source, heap.object_size(source)))
        self._fix_header(payload, klass)
        self._fix_references(source, payload, gray)

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
        header = self.source_layout.header_size
        pointers = 0
        data = 0
        if klass.is_array:
            header += 4  # the length slot counts as header metadata
            count = array_length or 0
            if klass.has_reference_elements:
                pointers = count * 8
            else:
                data = count * klass.element_size
        else:
            for field in klass.all_fields():
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
        off = self.source_layout.baddr_offset
        payload[off : off + 8] = bytes(8)

    def _fix_references(
        self, source: int, payload: bytearray, gray: Deque[Tuple[int, int]]
    ) -> None:
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        for offset in heap.reference_offsets(source):
            target = heap.read_word(source + offset)
            relative = self._resolve_reference(target, gray)
            payload[offset : offset + 8] = relative.to_bytes(8, "little")
            self.jvm.clock.charge(cost.skyway_pointer_fixup)
