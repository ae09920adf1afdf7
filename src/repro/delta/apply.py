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
   full receive runs over the whole buffer; there is no second copy here.

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
        #: (PATCH target address or None for NEW, payload, kernel)
        plan: List[Tuple[Optional[int], bytes, ReceiveKernel]] = []
        cursor = resident_end
        for record in frame.records:
            if record.tag == REC_SAMEREF:
                self._translate(record.offset)  # validates the reference
                continue
            payload = record.payload
            kernel = self._payload_kernel(record.offset, payload)
            if record.tag == REC_NEW:
                if record.offset != cursor:
                    raise DeltaApplyError(
                        f"NEW record at {record.offset:#x} but append "
                        f"cursor is at {cursor:#x}"
                    )
                cursor += len(payload)
                plan.append((None, payload, kernel))
            elif record.tag == REC_PATCH:
                address = self._translate(record.offset)
                self._check_resident(record.offset, address, payload, kernel)
                plan.append((address, payload, kernel))
            else:  # pragma: no cover - parse_frame rejects unknown tags
                raise DeltaWireError(f"unknown record tag {record.tag}")
        if cursor != frame.new_logical_end:
            raise DeltaApplyError(
                f"frame promised logical end {frame.new_logical_end:#x}, "
                f"append cursor reached {cursor:#x}"
            )

        # Pass 1 — placement.  NEW objects land at the sender-assigned
        # offsets; PATCH payloads overwrite in place (klass slot holds the
        # wire tID until pass 2).  §4.3's GC integration, per epoch: each
        # patched/appended span carries pointers the card table has never
        # seen, so each is re-marked.
        touched: List[Tuple[int, ReceiveKernel]] = []
        listeners = heap.mutation_listeners
        mark_range = heap.card_table.mark_range
        epoch_cost = 0.0
        cards_marked = 0
        patched = 0
        for address, payload, kernel in plan:
            size = len(payload)
            if address is None:
                address = buffer.append(payload)
            else:
                heap.write_bytes(address, payload)
                # A PATCH is a mutation of this heap: fire the typed-write
                # barrier's listeners, or a delta channel *out of* this
                # heap (a relay) would see no dirty card and ship nothing.
                # NEW objects need none: patched references reach them.
                for listener in listeners:
                    listener(address, size)
                patched += 1
            mark_range(address, size)
            cards_marked += size
            epoch_cost += cost.memcpy(size) + cost.card_table_update
            touched.append((address, kernel))
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
            patched_objects=patched,
            new_objects=len(plan) - patched,
            cards_marked_bytes=cards_marked,
        )

    def _payload_kernel(self, offset: int, payload: bytes) -> ReceiveKernel:
        """The receive kernel the payload's tID names, after checking the
        payload is exactly one object of that class."""
        size = len(payload)
        if size >= KLASS_WORD_END:
            tid = WORD_STRUCT.unpack_from(payload, KLASS_OFFSET)[0]
            kernel = self.receiver.kernel_for(tid)
            expected = kernel.size
            if expected is None and size >= kernel.length_offset + 4:
                expected = kernel.array_size(
                    LENGTH_STRUCT.unpack_from(payload, kernel.length_offset)[0]
                )
            if size == expected:
                return kernel
        raise DeltaApplyError(
            f"record at {offset:#x} carries {size} bytes, not one whole object"
        )

    def _check_resident(self, offset: int, address: int, payload: bytes,
                        kernel: ReceiveKernel) -> None:
        """A PATCH may only overwrite an object of its own class and size."""
        memory = self._memory
        at = address - self._heap_base
        same = at + len(payload) <= len(memory) and kernel.klass_id == (
            WORD_STRUCT.unpack_from(memory, at + KLASS_OFFSET)[0]
        )
        if same and kernel.size is None:
            lo = kernel.length_offset
            same = payload[lo : lo + 4] == memory[at + lo : at + lo + 4]
        if not same:
            raise DeltaApplyError(
                f"PATCH at {offset:#x} carries a {kernel.klass.name} of "
                f"{len(payload)} bytes; the resident object is not one"
            )

    def _translate(self, logical: int) -> int:
        try:
            return self.receiver.buffer.translate(logical)
        except InputBufferError as exc:
            raise DeltaApplyError(f"bad buffer offset {logical:#x}") from exc
