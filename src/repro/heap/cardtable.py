"""Card table for the old generation.

The Parallel Scavenge collector (the default in OpenJDK 8, which the paper
modifies) finds old→young pointers via a card table: the old generation is
divided into fixed-size cards and a card is dirtied whenever a reference is
stored into it.  Skyway's receiver must "update the card table appropriately
to represent new pointers generated from each data transfer" (paper §4.3) —
that call site is :meth:`mark_range`.

Dirty cards are kept as a set of card indices, not a byte-per-card array:
every consumer (the minor-GC scan, the delta tracker's epoch diff, the
undo-log snapshot) walks *dirty* cards, so all operations cost O(dirty)
rather than O(heap size / card size) — the difference between a delta
epoch costing proportional to its mutations and costing a full-heap scan.
A real JVM keeps the byte array for its write-barrier store; here the
barrier is already a method call, so the sparse form is strictly better.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Tuple


class CardTable:
    """Dirty-card tracking over ``[start, end)`` with fixed-size cards."""

    def __init__(self, start: int, end: int, card_size: int = 512) -> None:
        if card_size <= 0 or card_size & (card_size - 1):
            raise ValueError(f"card size must be a power of two: {card_size}")
        if end < start:
            raise ValueError("end before start")
        self.start = start
        self.end = end
        self.card_size = card_size
        self._dirty: set = set()
        self.marks = 0

    def card_index(self, address: int) -> int:
        if not self.start <= address < self.end:
            raise ValueError(f"address {address:#x} outside card-table span")
        return (address - self.start) // self.card_size

    def mark(self, address: int) -> None:
        """Dirty the card containing ``address``."""
        self._dirty.add(self.card_index(address))
        self.marks += 1

    def mark_range(self, address: int, nbytes: int) -> None:
        """Dirty every card overlapping ``[address, address + nbytes)`` —
        the receive-side bulk update for a freshly filled input buffer."""
        if nbytes <= 0:
            return
        start, end = self.start, self.end
        if not start <= address < end:
            raise ValueError(f"address {address:#x} outside card-table span")
        stop = address + nbytes
        if stop > end:
            stop = end
        first = (address - start) // self.card_size
        last = (stop - 1 - start) // self.card_size
        if first == last:  # the common case: a word, a small object
            self._dirty.add(first)
        else:
            self._dirty.update(range(first, last + 1))
        self.marks += last - first + 1

    def is_dirty(self, address: int) -> bool:
        return self.card_index(address) in self._dirty

    def dirty_ranges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(start_address, end_address)`` for each maximal run of
        dirty cards."""
        run_start = run_end = None
        for i in sorted(self._dirty):
            if run_start is None:
                run_start = run_end = i
            elif i == run_end + 1:
                run_end = i
            else:
                yield self._range_of(run_start, run_end)
                run_start = run_end = i
        if run_start is not None:
            yield self._range_of(run_start, run_end)

    def dirty_card_starts(self) -> List[int]:
        """The start address of every dirty card, ascending."""
        start, size = self.start, self.card_size
        return [start + i * size for i in sorted(self._dirty)]

    def _range_of(self, first: int, last: int) -> Tuple[int, int]:
        return (
            self.start + first * self.card_size,
            min(self.start + (last + 1) * self.card_size, self.end),
        )

    def clear(self) -> None:
        self._dirty.clear()

    def respan(self, start: int, end: int) -> None:
        """Cover ``[start, end)`` from now on, with no card dirty."""
        if end < start:
            raise ValueError("end before start")
        self.start = start
        self.end = end
        self._dirty.clear()

    def snapshot(self) -> FrozenSet[int]:
        """The dirty set as an immutable value (the GC undo log's card
        checkpoint); O(dirty cards), not O(heap)."""
        return frozenset(self._dirty)

    def restore(self, snapshot: FrozenSet[int]) -> None:
        """Reset the dirty set to an earlier :meth:`snapshot`."""
        self._dirty = set(snapshot)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)
