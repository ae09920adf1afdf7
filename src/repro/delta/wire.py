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
per-class :class:`~repro.core.kernels.CloneKernel` a full send reads (one
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
from typing import Deque, Dict, List, Tuple

from repro.core.kernels import (
    HEADER3_STRUCT,
    LENGTH_STRUCT,
    WORD_STRUCT,
    CloneKernel,
    clone_kernel_for,
    ref_run_struct,
)
from repro.delta.epoch_cache import EpochRecord
from repro.heap import markword
from repro.heap.heap import NULL
from repro.heap.layout import KLASS_OFFSET, MARK_OFFSET
from repro.jvm.jvm import JVM
from repro.net.streams import ByteInputStream, ByteOutputStream

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


@dataclasses.dataclass
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


def parse_frame(data: bytes):
    """Parse either frame kind; returns :class:`FullFrame` or
    :class:`DeltaFrame`."""
    inp = ByteInputStream(data)
    kind = inp.read_u8()
    if kind == FRAME_FULL:
        channel_id = inp.read_varint()
        epoch = inp.read_varint()
        embedded = inp.read_bytes(inp.read_varint())
        return FullFrame(channel_id, epoch, embedded)
    if kind != FRAME_DELTA:
        raise DeltaWireError(f"not a delta frame (leading byte {kind:#x})")
    channel_id = inp.read_varint()
    epoch = inp.read_varint()
    base_logical_end = inp.read_varint()
    records: List[DeltaRecord] = []
    while True:
        tag = inp.read_u8()
        if tag == REC_END:
            break
        offset = inp.read_varint()
        if tag in (REC_PATCH, REC_NEW):
            payload = inp.read_bytes(inp.read_varint())
            records.append(DeltaRecord(tag, offset, payload))
        elif tag == REC_SAMEREF:
            records.append(DeltaRecord(tag, offset))
        else:
            raise DeltaWireError(f"unknown record tag {tag}")
    n_roots = inp.read_varint()
    roots = [inp.read_varint() for _ in range(n_roots)]
    new_logical_end = inp.read_varint()
    return DeltaFrame(
        channel_id, epoch, base_logical_end, records, roots, new_logical_end
    )


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
        reset_mark = markword.reset_for_transfer
        traverse_word = cost.traverse_word

        #: source address -> receiver offset: the record's table, overlaid
        #: by this epoch's NEW objects (never a copy of the table).
        cached = record.addr_to_offset
        new_members = summary.new_members
        new_sizes = summary.new_sizes
        logical_cursor = record.logical_end
        new_queue: Deque[Tuple[int, CloneKernel, int]] = deque()
        clock_cost = 0.0

        def recipe(address: int) -> Tuple[CloneKernel, int]:
            """The object's compiled clone kernel and its byte size."""
            at = address - hbase
            klass = klass_at(unpack_word(mem, at + KLASS_OFFSET)[0])
            if klass.tid is None:
                raise DeltaWireError(
                    f"class {klass.name} has no global type ID — is the "
                    f"Skyway type registry attached to this JVM?"
                )
            kernel = clone_kernel_for(klass, layout, cost)
            size = kernel.size
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

        def clone(address: int, kernel: CloneKernel, size: int) -> bytearray:
            nonlocal clock_cost
            at = address - hbase
            payload = bytearray(mem[at : at + size])
            mark = reset_mark(unpack_word(payload, MARK_OFFSET)[0])
            if kernel.header_struct is HEADER3_STRUCT:
                HEADER3_STRUCT.pack_into(payload, 0, mark, kernel.tid, 0)
            else:
                kernel.header_struct.pack_into(payload, 0, mark, kernel.tid)
            nonnull = 0
            if kernel.is_array:
                slots = 0
                if kernel.has_ref_elements:
                    slots = unpack_length(payload, length_offset)[0]
                if slots:
                    run = ref_run_struct(slots)
                    relativized = [
                        resolve(ref) if ref != NULL else 0
                        for ref in run.unpack_from(payload, kernel.elem_base)
                    ]
                    run.pack_into(payload, kernel.elem_base, *relativized)
                    # Receiver offsets start at LOGICAL_BASE: 0 is null.
                    nonnull = slots - relativized.count(0)
                clock_cost += kernel.array_cost(size, slots)
            else:
                if kernel.ref_unpack is not None:
                    for slot, ref in zip(
                        kernel.ref_offsets, kernel.ref_unpack.unpack_from(payload)
                    ):
                        if ref != NULL:  # a null slot is already the wire's 0
                            nonnull += 1
                            pack_word(payload, slot, resolve(ref))
                clock_cost += kernel.base_cost
            clock_cost += nonnull * traverse_word
            return payload

        out = ByteOutputStream()
        out.write_u8(FRAME_DELTA)
        out.write_varint(channel_id)
        out.write_varint(epoch)
        out.write_varint(record.logical_end)

        # PATCH records for the dirty subset (offset order: deterministic
        # frames and sequential receiver writes).
        for offset, address in sorted((cached[a], a) for a in dirty):
            payload = clone(address, *recipe(address))
            out.write_u8(REC_PATCH)
            out.write_varint(offset)
            out.write_varint(len(payload))
            out.write_bytes(payload)
            summary.patched_objects += 1
            summary.patched_bytes += len(payload)

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
                out.write_u8(REC_SAMEREF)
                out.write_varint(offset)
                summary.sameref_roots += 1
        while new_queue:
            address, kernel, size = new_queue.popleft()
            payload = clone(address, kernel, size)
            out.write_u8(REC_NEW)
            out.write_varint(new_members[address])
            out.write_varint(size)
            out.write_bytes(payload)
            summary.new_objects += 1
            summary.new_bytes += size
        self.jvm.clock.charge(clock_cost)

        out.write_u8(REC_END)
        out.write_varint(len(root_offsets))
        for offset in root_offsets:
            out.write_varint(offset)
        out.write_varint(logical_cursor)

        summary.payload_bytes = summary.patched_bytes + summary.new_bytes
        summary.logical_end = logical_cursor
        return out.getvalue(), summary
