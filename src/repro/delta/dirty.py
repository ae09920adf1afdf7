"""Dirty-object discovery: a write barrier feeding a second card table.

The GC already proves the technique: HotSpot's interpreter and JIT emit a
store barrier that dirties a card per reference store, and the scavenger
scans dirty cards instead of the whole old generation.  Skyway-Delta reuses
the exact same machinery for a different consumer — *transfer* instead of
*collection*: every typed field/element write on the tracked heap marks a
dedicated delta :class:`~repro.heap.cardtable.CardTable` (a second
instance, marking *all* writes rather than just reference stores — a
mutated ``rank`` field must reship the object even though no pointer
changed).

A delta card is one word, the unit of every typed write, so a dirty card
names one written slot and never an unwritten neighbour object: the dirty
set is exactly the written objects.

Each delta channel owns its own table: channels clear their table after
consuming an epoch, and a shared table would lose one channel's dirt when
another clears.  A table spans only its channel's epoch record — empty
until the first FULL, re-spanned whenever the record changes — and the
barrier marks only the tables whose span a write lands in.  A write
outside every record needs no mark: a NEW object is cloned whole, it is
reached through a written slot that does lie inside a record, and any GC
since the record was taken forces the next epoch FULL anyway.
"""

from __future__ import annotations

from typing import List

from repro.heap.cardtable import CardTable
from repro.heap.heap import ManagedHeap
from repro.heap.layout import WORD

#: One word: the unit of every typed write the barrier sees.
DELTA_CARD_SIZE = WORD


class DeltaTracker:
    """The write-barrier hook and its per-channel delta card tables."""

    def __init__(self, heap: ManagedHeap) -> None:
        self.heap = heap
        self._tables: List[CardTable] = []
        #: Total barrier invocations (diagnostics / overhead accounting).
        self.writes_seen = 0
        heap.mutation_listeners.append(self._on_write)

    @classmethod
    def attach(cls, heap: ManagedHeap) -> "DeltaTracker":
        """The one tracker for ``heap``, created on first use."""
        tracker = getattr(heap, "delta_tracker", None)
        if tracker is None:
            tracker = cls(heap)
            heap.delta_tracker = tracker
        return tracker

    # ------------------------------------------------------------------
    # the write barrier
    # ------------------------------------------------------------------

    def _on_write(self, slot_address: int, nbytes: int) -> None:
        self.writes_seen += 1
        end = slot_address + nbytes
        for table in self._tables:
            if table.start < end and slot_address < table.end:
                start = max(slot_address, table.start)
                table.mark_range(start, min(end, table.end) - start)

    # ------------------------------------------------------------------
    # per-channel tables
    # ------------------------------------------------------------------

    def new_table(self) -> CardTable:
        """A fresh, empty-span delta card table registered with the
        barrier.  The owning channel re-spans it over its epoch record
        and clears it per epoch."""
        base = self.heap.base
        table = CardTable(base, base, DELTA_CARD_SIZE)
        self._tables.append(table)
        return table

    def release_table(self, table: CardTable) -> None:
        self._tables.remove(table)

    @property
    def table_count(self) -> int:
        return len(self._tables)
