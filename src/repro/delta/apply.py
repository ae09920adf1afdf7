"""Receiver-side delta apply: patch the retained input buffer in place.

The receive path mirrors §4.3's two passes, restricted to the records in
the frame:

1. **Placement**: NEW payloads are appended to the retained
   :class:`~repro.core.input_buffer.InputBuffer` (the logical cursor
   continues where the previous epoch stopped, so sender-assigned offsets
   land exactly); PATCH payloads overwrite their clone's bytes in place.
2. **Absolutization**: after all NEW objects exist, every placed/patched
   object's tID is swapped back to the local klass word and every
   reference slot rewritten through the buffer's chunk arithmetic.

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
from typing import Dict, List, Tuple

from repro.core.input_buffer import InputBufferError
from repro.core.output_buffer import LOGICAL_BASE
from repro.core.receiver import ObjectGraphReceiver
from repro.delta.wire import (
    REC_NEW,
    REC_PATCH,
    REC_SAMEREF,
    DeltaFrame,
    DeltaWireError,
)
from repro.heap.layout import KLASS_OFFSET, OBJECT_ALIGNMENT, align_up
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

    def __init__(self, jvm: JVM, receiver: ObjectGraphReceiver, registry_view) -> None:
        self.jvm = jvm
        self.receiver = receiver
        self.view = registry_view

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

        # Pass 1 — placement.  NEW objects must land at the sender-assigned
        # offsets; PATCH payloads overwrite in place (klass slot still holds
        # the wire tID until pass 2).
        to_absolutize: List[Tuple[int, bytes]] = []  # (physical, payload)
        cursor = resident_end
        patched = 0
        placed = 0
        for record in frame.records:
            if record.tag == REC_SAMEREF:
                self._translate(record.offset)  # validates the reference
                continue
            if record.tag == REC_NEW:
                if record.offset != cursor:
                    raise DeltaApplyError(
                        f"NEW record at {record.offset:#x} but append "
                        f"cursor is at {cursor:#x}"
                    )
                address = buffer.append(record.payload)
                cursor += align_up(len(record.payload), OBJECT_ALIGNMENT)
                placed += 1
            elif record.tag == REC_PATCH:
                address = self._translate(record.offset)
                expected = heap.object_size(address)
                if align_up(len(record.payload), OBJECT_ALIGNMENT) != align_up(
                    expected, OBJECT_ALIGNMENT
                ):
                    raise DeltaApplyError(
                        f"PATCH at {record.offset:#x} carries "
                        f"{len(record.payload)} bytes for a "
                        f"{expected}-byte object"
                    )
                heap.write_bytes(address, record.payload)
                # A PATCH is a mutation of this heap: fire the typed-write
                # barrier's listeners, or a delta channel *out of* this
                # heap (a relay) would see no dirty card and ship nothing.
                # NEW objects need none: patched references reach them.
                for listener in heap.mutation_listeners:
                    listener(address, len(record.payload))
                patched += 1
            else:  # pragma: no cover - parse_frame rejects unknown tags
                raise DeltaWireError(f"unknown record tag {record.tag}")
            jvm.clock.charge(cost.memcpy(len(record.payload)))
            to_absolutize.append((address, record.payload))
        if cursor != frame.new_logical_end:
            raise DeltaApplyError(
                f"frame promised logical end {frame.new_logical_end:#x}, "
                f"append cursor reached {cursor:#x}"
            )

        # Pass 2 — absolutization over exactly the touched objects.
        cards_marked = 0
        for address, payload in to_absolutize:
            jvm.clock.charge(cost.skyway_receive_object)
            tid = int.from_bytes(payload[KLASS_OFFSET : KLASS_OFFSET + 8], "little")
            klass = jvm.loader.load(self.view.name_for(tid))
            if klass.klass_id is None:  # pragma: no cover - loader invariant
                raise DeltaApplyError(f"klass {klass.name} not installed")
            heap.write_klass_word(address, klass.klass_id)
            for offset in heap.reference_offsets(address):
                relative = heap.read_word(address + offset)
                jvm.clock.charge(cost.skyway_pointer_fixup)
                if relative == 0:
                    continue
                heap.write_word(address + offset, self._translate(relative))
            # §4.3 GC integration, per epoch: the patched/appended span
            # carries pointers the card table has never seen.
            span = heap.object_size(address)
            heap.card_table.mark_range(address, span)
            jvm.clock.charge(cost.card_table_update)
            cards_marked += span

        roots = [self._root_address(offset) for offset in frame.roots]
        return ApplyResult(
            root_addresses=roots,
            patched_objects=patched,
            new_objects=placed,
            cards_marked_bytes=cards_marked,
        )

    def _translate(self, logical: int) -> int:
        try:
            return self.receiver.buffer.translate(logical)
        except InputBufferError as exc:
            raise DeltaApplyError(f"bad buffer offset {logical:#x}") from exc

    def _root_address(self, logical: int) -> int:
        if logical == 0:
            return 0
        return self._translate(logical)
