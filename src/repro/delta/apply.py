"""Receiver-side delta apply: patch the retained input buffer in place.

The receive path mirrors §4.3's two passes, restricted to the records in
the frame, with a check in front because a PATCH overwrites live objects:

0. **Validation**, before any byte is written: each payload's tID resolves
   through the receiver's tID -> :class:`~repro.core.kernels.ReceiveKernel`
   memo, the payload must be exactly as long as that kernel says (array
   length from the payload), NEW offsets must continue the append cursor,
   and a PATCH must name a resident object of the *same* class (and array
   length) — the resident klass word is compared with the kernel's.
1. **Placement**: NEW payloads are appended to the retained
   :class:`~repro.core.input_buffer.InputBuffer` (the logical cursor
   continues where the previous epoch stopped, so sender-assigned offsets
   land exactly); PATCH payloads overwrite their clone's bytes in place.
2. **Absolutization**: after all NEW objects exist, exactly the touched
   objects go through :meth:`ObjectGraphReceiver.absolutize` — the scan a
   full receive runs when its stream left the receive pass; there is no
   second copy here.

A PATCH also fires the heap's mutation listeners — the same ``(address,
nbytes)`` call the typed-write barrier makes — so a worker that relays a
graph it received by DELTA frames the patched objects on its own outgoing
channel; a heap with no delta tracker attached has no listeners to call.

GC integration is the part §4.3 is explicit about — "update the card table
appropriately to represent new pointers generated from each data
transfer" — and it applies to *every* epoch, not just the first: patched
reference slots and appended chunks hold pointers minor collections have
never seen, so each patched object's span and each NEW object's span is
re-marked in the (old-generation) GC card table.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.core.input_buffer import InputBufferError
from repro.core.kernels import (
    KLASS_WORD_END,
    LENGTH_STRUCT,
    WORD_STRUCT,
    ReceiveKernel,
)
from repro.core.output_buffer import LOGICAL_BASE
from repro.core.receiver import ObjectGraphReceiver
from repro.delta.wire import (
    REC_NEW,
    REC_PATCH,
    REC_SAMEREF,
    DeltaFrame,
    DeltaWireError,
)
from repro.heap.layout import KLASS_OFFSET
from repro.jvm.jvm import JVM


class DeltaApplyError(RuntimeError):
    pass


@dataclasses.dataclass
class ApplyResult:
    """What one applied epoch did to the receiver heap."""

    root_addresses: List[int]
    patched_objects: int
    #: Where each PATCH landed, in record order (what an epoch digest re-reads).
    patched_addresses: List[int]
    new_objects: int
    cards_marked_bytes: int


class DeltaApplier:
    """Applies DELTA frames onto one retained receive buffer."""

    def __init__(self, jvm: JVM, receiver: ObjectGraphReceiver) -> None:
        self.jvm = jvm
        self.receiver = receiver
        #: The heap's backing store (valid for the heap's lifetime).
        self._memory = jvm.heap.memory_view
        self._heap_base = jvm.heap.base

    def apply(self, frame: DeltaFrame) -> ApplyResult:
        jvm = self.jvm
        heap = jvm.heap
        cost = jvm.cost_model
        buffer = self.receiver.buffer

        resident_end = LOGICAL_BASE + buffer.logical_size
        if frame.base_logical_end != resident_end:
            raise DeltaApplyError(
                f"frame expects receiver buffer to end at logical "
                f"{frame.base_logical_end:#x}, buffer ends at {resident_end:#x}"
            )

        # Pass 0 — validation; nothing is written until every record passed.
        #: (PATCH target address, or None for a NEW object, and its kernel)
        touched: List[Tuple[Optional[int], ReceiveKernel]] = []
        memory = self._memory
        heap_base = self._heap_base
        heap_size = len(memory)
        translate = buffer.translate
        kernel_for = self.receiver.kernel_for
        unpack_word = WORD_STRUCT.unpack_from
        unpack_length = LENGTH_STRUCT.unpack_from
        cursor = resident_end
        for record in frame.records:
            tag = record.tag
            offset = record.offset
            if tag == REC_SAMEREF:
                self._translate(offset)  # validates the reference
                continue
            # The payload must be exactly one object of the class its tID
            # names (an array's length is read from the payload).
            payload = record.payload
            size = len(payload)
            kernel = expected = None
            if size >= KLASS_WORD_END:
                kernel = kernel_for(unpack_word(payload, KLASS_OFFSET)[0])
                expected = kernel.size
                if expected is None and size >= kernel.length_offset + 4:
                    expected = kernel.array_size(
                        unpack_length(payload, kernel.length_offset)[0])
            if size != expected:
                raise DeltaApplyError(
                    f"record at {offset:#x} carries {size} bytes, not one "
                    f"whole object"
                )
            if tag == REC_NEW:
                if offset != cursor:
                    raise DeltaApplyError(
                        f"NEW record at {offset:#x} but append cursor is "
                        f"at {cursor:#x}"
                    )
                cursor += size
                touched.append((None, kernel))
            elif tag == REC_PATCH:
                # A PATCH may only overwrite an object of its own class
                # and size: the resident klass word (and array length)
                # must match the payload's.
                try:
                    address = translate(offset)
                except InputBufferError as exc:
                    raise DeltaApplyError(
                        f"bad buffer offset {offset:#x}") from exc
                at = address - heap_base
                same = at + size <= heap_size and kernel.klass_id == (
                    unpack_word(memory, at + KLASS_OFFSET)[0])
                if same and kernel.size is None:
                    lo = kernel.length_offset
                    same = payload[lo : lo + 4] == memory[at + lo : at + lo + 4]
                if not same:
                    raise DeltaApplyError(
                        f"PATCH at {offset:#x} carries a {kernel.klass.name} "
                        f"of {size} bytes; the resident object is not one"
                    )
                touched.append((address, kernel))
            else:  # pragma: no cover - parse_frame rejects unknown tags
                raise DeltaWireError(f"unknown record tag {tag}")
        if cursor != frame.new_logical_end:
            raise DeltaApplyError(
                f"frame promised logical end {frame.new_logical_end:#x}, "
                f"append cursor reached {cursor:#x}"
            )

        # Pass 1 — placement, over the validated records.  NEW objects land
        # at the sender-assigned offsets; PATCH payloads overwrite in place
        # (klass slot holds the wire tID until pass 2).  §4.3's GC
        # integration, per epoch: each patched/appended span carries
        # pointers the card table has never seen, so each is re-marked.
        listeners = heap.mutation_listeners
        mark_range = heap.card_table.mark_range
        append = buffer.append
        memcpy = cost.memcpy
        card_table_update = cost.card_table_update
        epoch_cost = 0.0
        cards_marked = 0
        patched: List[int] = []
        payloads = (
            record.payload for record in frame.records
            if record.tag != REC_SAMEREF
        )
        for i, payload in enumerate(payloads):
            address, kernel = touched[i]
            size = len(payload)
            if address is None:
                address = append(payload)
                touched[i] = (address, kernel)
            else:
                at = address - heap_base
                memory[at : at + size] = payload
                # A PATCH is a mutation of this heap: fire the typed-write
                # barrier's listeners, or a delta channel *out of* this
                # heap (a relay) would see no dirty card and ship nothing.
                # NEW objects need none: patched references reach them.
                for listener in listeners:
                    listener(address, size)
                patched.append(address)
            mark_range(address, size)
            cards_marked += size
            epoch_cost += memcpy(size) + card_table_update
        jvm.clock.charge(epoch_cost)

        # Pass 2 — absolutization over exactly the touched objects.
        try:
            self.receiver.absolutize(touched)
        except InputBufferError as exc:
            raise DeltaApplyError(f"bad reference in a payload: {exc}") from exc

        return ApplyResult(
            root_addresses=[
                self._translate(offset) if offset else 0
                for offset in frame.roots
            ],
            patched_objects=len(patched),
            patched_addresses=patched,
            new_objects=len(touched) - len(patched),
            cards_marked_bytes=cards_marked,
        )

    def _translate(self, logical: int) -> int:
        try:
            return self.receiver.buffer.translate(logical)
        except InputBufferError as exc:
            raise DeltaApplyError(f"bad buffer offset {logical:#x}") from exc
