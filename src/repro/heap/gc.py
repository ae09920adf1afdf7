"""Generational garbage collection (Parallel Scavenge semantics).

The paper modifies OpenJDK 8's default collector; Skyway interacts with it
in two ways this module must support:

* received input buffers live in the **old generation** and their outgoing
  pointers are made GC-visible through **card-table updates** (paper §4.3);
* the sender stores buffer positions in the ``baddr`` header word — those
  are *buffer-relative* values, not heap addresses, so the collector copies
  them verbatim and never "fixes" them.

Two collections are provided:

``minor``
    A Cheney-style scavenge of the young generation.  Roots are the handle
    table plus old→young pointers discovered by scanning dirty cards.
    Survivors age; objects past the tenuring threshold (or overflowing the
    survivor space) are promoted to the old generation.  Promotion failure
    (a full old generation mid-scavenge) rolls the whole scavenge back via
    an undo log and re-raises, so the caller can fall back to a full
    collection over an intact heap — the moral equivalent of HotSpot's
    promotion-failure handling.

``full``
    A copying compaction: the live graph is traced from the handle table
    and evacuated into a freshly packed old generation (everything is
    tenured), young spaces are reset, and the card table is rebuilt.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro import obs
from repro.heap import markword
from repro.heap.handles import HandleTable
from repro.heap.heap import ManagedHeap, NULL, OutOfMemoryError, Region
from repro.heap.layout import OBJECT_ALIGNMENT, align_up

_REF = "Ljava.lang.Object;"


@dataclasses.dataclass
class GCStats:
    minor_collections: int = 0
    full_collections: int = 0
    bytes_scavenged: int = 0
    bytes_promoted: int = 0
    bytes_compacted: int = 0


class GarbageCollector:
    """Collector for one :class:`ManagedHeap` with one root set."""

    def __init__(
        self,
        heap: ManagedHeap,
        handles: HandleTable,
        tenuring_threshold: int = 6,
    ) -> None:
        if not 1 <= tenuring_threshold <= markword.MAX_AGE:
            raise ValueError(f"bad tenuring threshold: {tenuring_threshold}")
        self.heap = heap
        self.handles = handles
        self.tenuring_threshold = tenuring_threshold
        self.stats = GCStats()
        self._undo = None

    # ------------------------------------------------------------------
    # minor collection (scavenge)
    # ------------------------------------------------------------------

    def minor(self) -> None:
        with obs.span("gc.minor"):
            self._minor()

    def _minor(self) -> None:
        heap = self.heap
        to_space = heap.survivor_to
        if to_space.used:
            raise RuntimeError("to-space not empty before scavenge")

        self._begin_undo_log()
        try:
            self._scavenge(to_space)
        except OutOfMemoryError:
            # Promotion failure: undo every effect so the heap is exactly
            # as before the scavenge, then let the caller run a full GC.
            self._rollback()
            raise
        finally:
            self._undo = None

        # Young spaces flip.
        heap.eden.reset()
        heap.survivor_from.reset()
        heap.survivor_from, heap.survivor_to = heap.survivor_to, heap.survivor_from
        self._rebuild_card_table()
        self.stats.minor_collections += 1

    def _scavenge(self, to_space: Region) -> None:
        heap = self.heap
        # Scan cursors: objects appended to these regions from here on are
        # fresh copies that the Cheney scan must visit.
        to_cursor = [0]
        old_cursor = [len(heap.old.object_starts)]

        # Evacuate roots: handles first.
        for handle in self.handles.roots():
            new_address = self._evacuate(handle.address)
            if new_address != handle.address:
                self._undo["handles"].append((handle, handle.address))
                handle.address = new_address

        # Then old->young pointers found through dirty cards.  Cards were
        # dirtied by the write barrier; promoted copies land past
        # ``old_cursor`` and are handled by the scan instead.
        old_top_at_start = self._undo["old_top"]
        for lo, hi in list(heap.card_table.dirty_ranges()):
            for obj in self._objects_overlapping(heap.old, lo, hi):
                for offset in heap.reference_offsets(obj):
                    ref = heap.read_word(obj + offset)
                    if ref != NULL and heap.is_young(ref):
                        if obj < old_top_at_start:
                            self._undo["slots"].append((obj + offset, ref))
                        heap.write_slot(obj, offset, _REF, self._evacuate(ref))

        # Cheney scan to quiescence: scanning either destination region can
        # evacuate more objects into both, so loop until neither advances.
        progress = True
        while progress:
            progress = self._scan_from(to_space, to_cursor)
            progress |= self._scan_from(heap.old, old_cursor)

    # -- scavenge undo log (promotion-failure recovery) --------------------

    def _begin_undo_log(self) -> None:
        heap = self.heap
        self._undo = {
            "marks": [],      # (from-space address, original mark word)
            "slots": [],      # (absolute slot address, original word)
            "handles": [],    # (handle, original address)
            "old_top": heap.old.top,
            "old_count": len(heap.old.object_starts),
            "cards": heap.card_table.snapshot(),
        }

    def _rollback(self) -> None:
        heap = self.heap
        undo = self._undo
        for address, mark in undo["marks"]:
            heap.write_mark(address, mark)
        for slot, word in undo["slots"]:
            heap.write_word(slot, word)
        for handle, address in undo["handles"]:
            handle.address = address
        heap.old.top = undo["old_top"]
        del heap.old.object_starts[undo["old_count"]:]
        heap.survivor_to.reset()
        heap.card_table.restore(undo["cards"])

    def _evacuate(self, address: int) -> int:
        """Copy a young object out of the collected space, returning its new
        address; idempotent through forwarding pointers."""
        heap = self.heap
        if address == NULL or not heap.is_young(address):
            return address
        if heap.survivor_to.contains(address):
            return address  # already a fresh copy
        mark = heap.read_mark(address)
        if markword.is_forwarded(mark):
            return markword.forwarding_target(mark)

        size = heap.object_size(address)
        age = markword.get_age(mark)
        target_region = self._choose_target(size, age)
        new_address = self._raw_copy(address, size, target_region)

        # Age the copy (promotions ignore age); preserve hash & lock state.
        new_mark = markword.set_age(mark, min(age + 1, markword.MAX_AGE))
        heap.write_mark(new_address, new_mark)
        self._undo["marks"].append((address, mark))
        heap.write_mark(address, markword.make_forwarding(new_address))

        self.stats.bytes_scavenged += size
        if target_region is heap.old:
            self.stats.bytes_promoted += size
        return new_address

    def _choose_target(self, size: int, age: int) -> Region:
        heap = self.heap
        if age + 1 >= self.tenuring_threshold:
            return heap.old
        if heap.survivor_to.free >= align_up(size, OBJECT_ALIGNMENT):
            return heap.survivor_to
        return heap.old  # survivor overflow promotes

    def _raw_copy(self, address: int, size: int, region: Region) -> int:
        heap = self.heap
        aligned = align_up(size, OBJECT_ALIGNMENT)
        if region.free < aligned:
            raise OutOfMemoryError(
                f"{region.name} full during scavenge (need {aligned} bytes)"
            )
        new_address = region.top
        region.top += aligned
        region.object_starts.append(new_address)
        heap.copy_bytes(new_address, address, size)
        return new_address

    def _scan_from(self, region: Region, cursor: List[int]) -> bool:
        """Visit objects appended to ``region`` since ``cursor``, evacuating
        their young referents; returns whether anything was scanned."""
        heap = self.heap
        starts = region.object_starts
        scanned = False
        while cursor[0] < len(starts):
            obj = starts[cursor[0]]
            cursor[0] += 1
            scanned = True
            for offset in heap.reference_offsets(obj):
                ref = heap.read_word(obj + offset)
                if ref != NULL and heap.is_young(ref):
                    heap.write_slot(obj, offset, _REF, self._evacuate(ref))
        return scanned

    def _objects_overlapping(self, region: Region, lo: int, hi: int) -> List[int]:
        """Objects whose byte range intersects ``[lo, hi)`` (card scanning)."""
        heap = self.heap
        result = []
        for obj in region.object_starts:
            if obj >= hi:
                break
            if obj + heap.object_size(obj) > lo:
                result.append(obj)
        return result

    def _rebuild_card_table(self) -> None:
        """Re-derive dirty cards: any old-gen slot holding a young pointer."""
        heap = self.heap
        heap.card_table.clear()
        for obj in heap.old.object_starts:
            for offset in heap.reference_offsets(obj):
                ref = heap.read_word(obj + offset)
                if ref != NULL and heap.is_young(ref):
                    heap.card_table.mark(obj + offset)

    # ------------------------------------------------------------------
    # full collection (copying compaction)
    # ------------------------------------------------------------------

    def full(self) -> None:
        with obs.span("gc.full"):
            self._full()

    def _full(self) -> None:
        heap = self.heap

        # 1. Trace the live graph (BFS from handles), assigning each live
        #    object a new address packed from old.start in discovery order.
        forwarding: Dict[int, int] = {}
        order: List[int] = []
        cursor = heap.old.start
        queue: List[int] = [h.address for h in self.handles.roots()]
        head = 0
        while head < len(queue):
            addr = queue[head]
            head += 1
            if addr == NULL or addr in forwarding:
                continue
            size = align_up(heap.object_size(addr), OBJECT_ALIGNMENT)
            if cursor + size > heap.old.end:
                raise OutOfMemoryError("old generation full during full GC")
            forwarding[addr] = cursor
            order.append(addr)
            cursor += size
            for offset in heap.reference_offsets(addr):
                ref = heap.read_word(addr + offset)
                if ref != NULL:
                    queue.append(ref)

        # 2. Stage the compacted image, rewriting references via the map.
        staging = bytearray(cursor - heap.old.start)
        new_starts: List[int] = []
        for addr in order:
            size = heap.object_size(addr)
            new_addr = forwarding[addr]
            rel = new_addr - heap.old.start
            staging[rel : rel + size] = heap.read_bytes(addr, size)
            new_starts.append(new_addr)
        for addr in order:
            rel = forwarding[addr] - heap.old.start
            for offset in heap.reference_offsets(addr):
                ref = heap.read_word(addr + offset)
                if ref != NULL:
                    target = forwarding[ref].to_bytes(8, "little")
                    staging[rel + offset : rel + offset + 8] = target
            # Everything is tenured now; reset age, keep hash & lock state.
            mark = int.from_bytes(staging[rel : rel + 8], "little")
            staging[rel : rel + 8] = markword.set_age(mark, 0).to_bytes(8, "little")

        # 3. Install the new old generation and reset young spaces.
        heap.old.reset()
        heap.write_bytes(heap.old.start, staging)
        heap.old.top = heap.old.start + len(staging)
        heap.old.object_starts = new_starts
        heap.eden.reset()
        heap.survivor_from.reset()
        heap.survivor_to.reset()

        # 4. Update roots; no young objects remain so the card table clears.
        for handle in self.handles.roots():
            handle.address = forwarding[handle.address]
        heap.card_table.clear()

        self.stats.full_collections += 1
        self.stats.bytes_compacted += len(staging)
