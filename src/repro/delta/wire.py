"""The delta wire format: framed NEW / PATCH / SAME-REF records.

Layered on the conventions of :mod:`repro.core.streams` (varint framing, a
trailer of root offsets, a logical-size check word), one frame per epoch:

``FULL`` frame — epoch 1, and any epoch the fallback policy reverts::

    u8 0x10 | varint channel_id | varint epoch
    varint len | <a complete standard Skyway stream frame>

``DELTA`` frame::

    u8 0x11 | varint channel_id | varint epoch | varint base_logical_end
    records:
        u8 1 (PATCH)    varint offset | varint len | payload
        u8 2 (NEW)      varint offset | varint len | payload
        u8 3 (SAME-REF) varint offset          # an unchanged root
        u8 0 (END)
    varint n_roots | varint offset per root (0 = null)
    varint new_logical_end

Record payloads are exactly Algorithm 2 clones — mark word reset, klass
word replaced by the tID, references relativized — built from the same
per-class :class:`~repro.core.kernels.ClassKernel` a full send reads (one
slice off the heap, one header pack, one batched pointer unpack), except
that reference slots are relativized against the *receiver's* retained
buffer: a cached referent keeps the offset recorded in the epoch cache, a
new referent is assigned the next aligned offset past the buffer's end
(NEW records are emitted in assignment order, so the receiver's append
cursor reproduces the same offsets).  PATCH offsets point at the previous
clone, which the receiver overwrites in place — same klass, same size, by
construction (and checked there before a byte is written).

A new object is only reachable through a written reference slot, and every
written slot dirtied its card — so encoding starts from the dirty set and
discovers all NEW objects without ever visiting the unchanged graph.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.kernels import (
    HEADER3_STRUCT,
    LENGTH_STRUCT,
    WORD_STRUCT,
    ClassKernel,
    kernel_for,
    ref_run_struct,
)
from repro.delta.epoch_cache import EpochRecord
from repro.heap import markword
from repro.heap.heap import NULL
from repro.heap.layout import KLASS_OFFSET, MARK_OFFSET
from repro.jvm.jvm import JVM
from repro.net.streams import ByteOutputStream, StreamError

FRAME_FULL = 0x10
FRAME_DELTA = 0x11

REC_END = 0
REC_PATCH = 1
REC_NEW = 2
REC_SAMEREF = 3


class DeltaWireError(RuntimeError):
    pass


def frame_full(channel_id: int, epoch: int, embedded: bytes) -> bytes:
    out = ByteOutputStream()
    out.write_u8(FRAME_FULL)
    out.write_varint(channel_id)
    out.write_varint(epoch)
    out.write_varint(len(embedded))
    out.write_bytes(embedded)
    return out.getvalue()


@dataclasses.dataclass(slots=True)
class DeltaRecord:
    tag: int
    offset: int
    payload: bytes = b""


@dataclasses.dataclass
class DeltaFrame:
    """A parsed DELTA frame."""

    channel_id: int
    epoch: int
    base_logical_end: int
    records: List[DeltaRecord]
    roots: List[int]
    new_logical_end: int


@dataclasses.dataclass
class FullFrame:
    """A parsed FULL frame."""

    channel_id: int
    epoch: int
    embedded: bytes


def _varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode the LEB128 varint at ``pos``; returns ``(value, next pos)``.
    An index past the end raises ``IndexError`` (the caller's underflow)."""
    value = data[pos]
    pos += 1
    if value < 0x80:
        return value, pos
    value &= 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise StreamError("varint too long")


def parse_frame(data: bytes):
    """Parse either frame kind; returns :class:`FullFrame` or
    :class:`DeltaFrame`.

    One pass with a local index over ``data``: each varint is decoded in
    place (one byte, the common length, takes no loop) and each payload is
    sliced once.  Running out of bytes is a :class:`StreamError`; a
    foreign leading byte, an unknown record tag or any byte after the
    last field is a :class:`DeltaWireError`."""
    try:
        kind = data[0]
        if kind == FRAME_FULL:
            channel_id, pos = _varint(data, 1)
            epoch, pos = _varint(data, pos)
            size, pos = _varint(data, pos)
            stop = pos + size
            if stop > len(data):
                raise StreamError(f"stream underflow: the embedded stream "
                                  f"needs {stop} bytes, have {len(data)}")
            _no_trailing_bytes(data, stop)
            return FullFrame(channel_id, epoch, data[pos:stop])
        if kind != FRAME_DELTA:
            raise DeltaWireError(
                f"not a delta frame (leading byte {kind:#x})")
        channel_id, pos = _varint(data, 1)
        epoch, pos = _varint(data, pos)
        base_logical_end, pos = _varint(data, pos)
        records: List[DeltaRecord] = []
        add = records.append
        end = len(data)
        while True:
            tag = data[pos]
            pos += 1
            if tag == REC_END:
                break
            if tag > REC_SAMEREF:
                raise DeltaWireError(f"unknown record tag {tag}")
            offset = data[pos]
            pos += 1
            if offset >= 0x80:  # most offsets: decoded inline, no call
                offset &= 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    offset |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift > 70:
                        raise StreamError("varint too long")
            if tag == REC_SAMEREF:
                add(DeltaRecord(tag, offset))
                continue
            size = data[pos]
            pos += 1
            if size >= 0x80:
                size, pos = _varint(data, pos - 1)
            stop = pos + size
            if stop > end:
                raise StreamError(f"stream underflow: a payload needs "
                                  f"{stop} bytes, have {end}")
            add(DeltaRecord(tag, offset, data[pos:stop]))
            pos = stop
        n_roots, pos = _varint(data, pos)
        roots = []
        for _ in range(n_roots):
            root, pos = _varint(data, pos)
            roots.append(root)
        new_logical_end, pos = _varint(data, pos)
    except IndexError:
        raise StreamError(
            f"stream underflow: frame of {len(data)} bytes ends mid-field"
        ) from None
    _no_trailing_bytes(data, pos)
    return DeltaFrame(
        channel_id, epoch, base_logical_end, records, roots, new_logical_end
    )


def _no_trailing_bytes(data: bytes, end: int) -> None:
    """The frame's last field ends at ``end``: nothing may follow it."""
    if end < len(data):
        raise DeltaWireError(
            f"{len(data) - end} trailing bytes after the frame's last field")


@dataclasses.dataclass
class EpochSummary:
    """What one encoded delta epoch contained (feeds stats + cache merge)."""

    patched_objects: int = 0
    patched_bytes: int = 0
    new_objects: int = 0
    new_bytes: int = 0
    sameref_roots: int = 0
    payload_bytes: int = 0  # patched + new, pre-framing
    new_members: Dict[int, int] = dataclasses.field(default_factory=dict)
    new_sizes: Dict[int, int] = dataclasses.field(default_factory=dict)
    logical_end: int = 0


class DeltaEncoder:
    """Encode one delta epoch against an :class:`EpochRecord`.

    Homogeneous layouts only — PATCH overwrites a clone in place, which is
    only meaningful when both sides share the object format; heterogeneous
    destinations fall back to full sends at the channel layer.
    """

    def __init__(self, jvm: JVM, record: EpochRecord) -> None:
        self.jvm = jvm
        self.record = record

    def encode(
        self, roots: List[int], dirty: List[int], channel_id: int, epoch: int
    ) -> Tuple[bytes, EpochSummary]:
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        layout = self.jvm.layout
        record = self.record
        summary = EpochSummary()

        mem = heap.memory_view
        hbase = heap.base
        klass_at = heap.klass_resolver
        length_offset = layout.array_length_offset
        unpack_word = WORD_STRUCT.unpack_from
        pack_word = WORD_STRUCT.pack_into
        unpack_length = LENGTH_STRUCT.unpack_from
        fresh_mark = markword.FRESH_MARK
        hash_mask = markword.HASH_MASK
        traverse_word = cost.traverse_word

        #: source address -> receiver offset: the record's table, overlaid
        #: by this epoch's NEW objects (never a copy of the table).
        cached = record.addr_to_offset
        new_members = summary.new_members
        new_sizes = summary.new_sizes
        logical_cursor = record.logical_end
        new_queue: Deque[Tuple[int, ClassKernel, int]] = deque()
        #: klass word -> (kernel, instance size or None for arrays):
        #: the class is resolved and its kernel looked up once per epoch.
        recipes: Dict[int, Tuple[ClassKernel, Optional[int]]] = {}
        clock_cost = 0.0

        out = bytearray()
        put = out.append
        put(FRAME_DELTA)
        _put_varint(out, channel_id)
        _put_varint(out, epoch)
        _put_varint(out, record.logical_end)

        def recipe(address: int) -> Tuple[ClassKernel, int]:
            """The object's compiled kernel and its byte size."""
            at = address - hbase
            word = unpack_word(mem, at + KLASS_OFFSET)[0]
            entry = recipes.get(word)
            if entry is None:
                klass = klass_at(word)
                if klass.tid is None:
                    raise DeltaWireError(
                        f"class {klass.name} has no global type ID — is the "
                        f"Skyway type registry attached to this JVM?"
                    )
                kernel = kernel_for(klass, layout, cost)
                entry = recipes[word] = (kernel, kernel.size)
            kernel, size = entry
            if size is None:
                size = kernel.array_size(
                    unpack_length(mem, at + length_offset)[0]
                )
            return kernel, size

        def resolve(address: int) -> int:
            """Receiver offset of a non-null referent; a first-seen one is
            assigned the next offset and queued as a NEW record."""
            nonlocal logical_cursor
            known = cached.get(address)
            if known is None:
                known = new_members.get(address)
                if known is None:
                    kernel, size = recipe(address)
                    known = logical_cursor
                    logical_cursor += size
                    new_members[address] = known
                    new_sizes[address] = size
                    new_queue.append((address, kernel, size))
            return known

        def emit(tag: int, offset: int, address: int, kernel: ClassKernel,
                 size: int) -> None:
            """Append one PATCH/NEW record: its header, then the object's
            clone written straight into the frame and fixed up there."""
            nonlocal clock_cost
            put(tag)
            while offset > 0x7F:
                put(offset & 0x7F | 0x80)
                offset >>= 7
            put(offset)
            if size > 0x7F:
                _put_varint(out, size)
            else:
                put(size)
            pos = len(out)
            at = address - hbase
            out.extend(mem[at : at + size])
            # Mark reset (hashcode kept, §4.2) and tID in one header pack.
            mark = fresh_mark | (
                unpack_word(out, pos + MARK_OFFSET)[0] & hash_mask)
            header_struct = kernel.header_struct
            if header_struct is HEADER3_STRUCT:
                header_struct.pack_into(out, pos, mark, kernel.tid, 0)
            else:
                header_struct.pack_into(out, pos, mark, kernel.tid)
            nonnull = 0
            if kernel.is_array:
                slots = 0
                if kernel.has_ref_elements:
                    slots = unpack_length(out, pos + length_offset)[0]
                if slots:
                    run = ref_run_struct(slots)
                    base = pos + kernel.elem_base
                    relativized = [
                        resolve(ref) if ref != NULL else 0
                        for ref in run.unpack_from(out, base)
                    ]
                    run.pack_into(out, base, *relativized)
                    # Receiver offsets start at LOGICAL_BASE: 0 is null.
                    nonnull = slots - relativized.count(0)
                clock_cost += kernel.array_cost(size, slots)
            else:
                if kernel.ref_unpack is not None:
                    for slot, ref in zip(
                        kernel.ref_offsets,
                        kernel.ref_unpack.unpack_from(out, pos),
                    ):
                        if ref != NULL:  # a null slot is already the wire's 0
                            nonnull += 1
                            pack_word(out, pos + slot, resolve(ref))
                clock_cost += kernel.base_cost
            clock_cost += nonnull * traverse_word

        # PATCH records for the dirty subset (offset order: deterministic
        # frames and sequential receiver writes).
        patched_bytes = 0
        for offset, address in sorted([(cached[a], a) for a in dirty]):
            kernel, size = recipe(address)
            emit(REC_PATCH, offset, address, kernel, size)
            patched_bytes += size
        summary.patched_objects = len(dirty)
        summary.patched_bytes = patched_bytes

        # Roots first touch (may enqueue NEW), then drain the queue — NEW
        # records must appear in offset-assignment order.
        dirty_set = set(dirty)
        root_offsets: List[int] = []
        for root in roots:
            if root == NULL:
                root_offsets.append(0)
                continue
            clock_cost += traverse_word
            offset = resolve(root)
            root_offsets.append(offset)
            if root in cached and root not in dirty_set:
                put(REC_SAMEREF)
                _put_varint(out, offset)
                summary.sameref_roots += 1
        new_bytes = 0
        while new_queue:
            address, kernel, size = new_queue.popleft()
            emit(REC_NEW, new_members[address], address, kernel, size)
            new_bytes += size
        summary.new_objects = len(new_members)
        summary.new_bytes = new_bytes
        self.jvm.clock.charge(clock_cost)

        put(REC_END)
        _put_varint(out, len(root_offsets))
        for offset in root_offsets:
            _put_varint(out, offset)
        _put_varint(out, logical_cursor)

        summary.payload_bytes = summary.patched_bytes + summary.new_bytes
        summary.logical_end = logical_cursor
        return bytes(out), summary


def _put_varint(out: bytearray, value: int) -> None:
    """Append ``value`` as an LEB128 varint (the :mod:`repro.net.streams`
    encoding)."""
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
