"""The byte-addressed managed heap.

One :class:`ManagedHeap` models one JVM's heap: a ``bytearray`` carved into
an eden, two survivor semispaces, and an old generation, with bump-pointer
allocation.  Objects are real byte ranges — headers, aligned fields, padding
— and references are absolute simulated addresses, so Skyway's cloning and
pointer relativization run against genuine memory images.

Each heap's addresses live in a disjoint range (a per-heap base is mixed
into every address), so a pointer accidentally carried from one JVM to
another dereferences to an immediate error rather than silently "working" —
the same reason real klass/heap pointers cannot cross machines.

The heap keeps an explicit *object index* per region (sorted object start
addresses).  A production JVM keeps the heap parsable with filler objects
and walks it by size; the index is the simulator's equivalent and is what
the GC and Skyway's receiver use to walk regions.
"""

from __future__ import annotations

import bisect
import itertools
import struct
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.heap import markword
from repro.heap.cardtable import CardTable
from repro.heap.klass import FieldInfo, Klass
from repro.heap.layout import (
    HeapLayout,
    KLASS_OFFSET,
    MARK_OFFSET,
    OBJECT_ALIGNMENT,
    WORD,
    align_up,
)
from repro.types import descriptors

#: The null reference.
NULL = 0

KB = 1024
MB = 1024 * KB


class HeapError(RuntimeError):
    pass


class OutOfMemoryError(HeapError):
    """A region cannot satisfy an allocation (the JVM layer triggers GC)."""


class SegfaultError(HeapError):
    """An address outside this heap was dereferenced."""


class Region:
    """A contiguous bump-allocated region of the heap."""

    def __init__(self, name: str, start: int, end: int) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.top = start
        #: Sorted object start addresses (the heap's parse index).
        self.object_starts: List[int] = []

    @property
    def capacity(self) -> int:
        return self.end - self.start

    @property
    def used(self) -> int:
        return self.top - self.start

    @property
    def free(self) -> int:
        return self.end - self.top

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def reset(self) -> None:
        self.top = self.start
        self.object_starts.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Region({self.name}: {self.used}/{self.capacity} bytes,"
            f" {len(self.object_starts)} objects)"
        )


_heap_counter = itertools.count(1)

# struct codecs per primitive descriptor (little-endian, HotSpot on x86).
_PRIM_CODEC = {
    "Z": "<B",
    "B": "<b",
    "C": "<H",
    "S": "<h",
    "I": "<i",
    "F": "<f",
    "J": "<q",
    "D": "<d",
}


class ManagedHeap:
    """A generational, byte-addressed managed heap for one JVM."""

    def __init__(
        self,
        layout: HeapLayout,
        young_bytes: int = 4 * MB,
        old_bytes: int = 64 * MB,
        survivor_ratio: int = 8,
        card_size: int = 512,
    ) -> None:
        self.layout = layout
        survivor_bytes = align_up(max(young_bytes // survivor_ratio, 4 * KB), WORD)
        eden_bytes = align_up(young_bytes - 2 * survivor_bytes, WORD)
        if eden_bytes <= 0:
            raise ValueError("young generation too small for survivor spaces")

        total = eden_bytes + 2 * survivor_bytes + align_up(old_bytes, WORD)
        #: Disjoint address space per heap (bit 44+ identifies the heap).
        self.base = next(_heap_counter) << 44
        self._memory = bytearray(total)
        self._memory_view: Optional[memoryview] = None

        cursor = self.base
        self.eden = Region("eden", cursor, cursor + eden_bytes)
        cursor = self.eden.end
        self.survivor_from = Region("survivor0", cursor, cursor + survivor_bytes)
        cursor = self.survivor_from.end
        self.survivor_to = Region("survivor1", cursor, cursor + survivor_bytes)
        cursor = self.survivor_to.end
        self.old = Region("old", cursor, cursor + align_up(old_bytes, WORD))

        self.card_table = CardTable(self.old.start, self.old.end, card_size)
        #: Set by the JVM so the heap can resolve klass words.
        self.klass_resolver: Optional[Callable[[int], Klass]] = None
        #: Field-write listeners ``(slot_address, nbytes)``; the delta
        #: subsystem registers one per tracked channel so mutations dirty a
        #: second card table.  Raw ``write_word``/``write_bytes`` (GC
        #: copying, receiver placement) deliberately bypass this barrier:
        #: only *mutations through the typed field/element API* count —
        #: and a delta apply's in-place PATCH, which calls them itself.
        self.mutation_listeners: List[Callable[[int, int], None]] = []
        #: Allocation statistics.
        self.allocations = 0
        self.bytes_allocated = 0

    # ------------------------------------------------------------------
    # raw memory access
    # ------------------------------------------------------------------

    def _index(self, address: int, nbytes: int) -> int:
        offset = address - self.base
        if offset < 0 or offset + nbytes > len(self._memory):
            raise SegfaultError(
                f"address {address:#x} (+{nbytes}) outside heap"
                f" [{self.base:#x}, {self.base + len(self._memory):#x})"
            )
        return offset

    def index_of(self, address: int, nbytes: int) -> int:
        """Bounds-checked byte offset of ``address`` into :attr:`memory_view`.

        The clone-kernel fast path slices object images straight out of the
        heap's backing store instead of round-tripping through
        :meth:`read_bytes` copies.
        """
        return self._index(address, nbytes)

    @property
    def memory_view(self) -> memoryview:
        """A zero-copy view of the heap's backing store.

        The backing ``bytearray`` is allocated once and never resized, so
        the view stays valid for the heap's lifetime.
        """
        view = self._memory_view
        if view is None:
            view = self._memory_view = memoryview(self._memory)
        return view

    def unpack_from(self, codec: struct.Struct, address: int):
        """Unpack ``codec`` (a compiled Struct) at ``address``, bounds-checked."""
        return codec.unpack_from(self._memory, self._index(address, codec.size))

    def pack_into(self, codec: struct.Struct, address: int, *values) -> None:
        """Pack ``values`` with ``codec`` at ``address``, bounds-checked."""
        codec.pack_into(self._memory, self._index(address, codec.size), *values)

    def read_bytes(self, address: int, nbytes: int) -> bytes:
        i = self._index(address, nbytes)
        return bytes(self._memory[i : i + nbytes])

    def write_bytes(self, address: int, data: bytes) -> None:
        i = self._index(address, len(data))
        self._memory[i : i + len(data)] = data

    def read_word(self, address: int) -> int:
        i = self._index(address, WORD)
        return int.from_bytes(self._memory[i : i + WORD], "little")

    def write_word(self, address: int, value: int) -> None:
        i = self._index(address, WORD)
        self._memory[i : i + WORD] = (value & (2**64 - 1)).to_bytes(WORD, "little")

    # ------------------------------------------------------------------
    # object headers
    # ------------------------------------------------------------------

    def read_mark(self, address: int) -> int:
        return self.read_word(address + MARK_OFFSET)

    def write_mark(self, address: int, mark: int) -> None:
        self.write_word(address + MARK_OFFSET, mark)

    def read_klass_word(self, address: int) -> int:
        return self.read_word(address + KLASS_OFFSET)

    def write_klass_word(self, address: int, value: int) -> None:
        self.write_word(address + KLASS_OFFSET, value)

    def read_baddr(self, address: int) -> int:
        return self.read_word(address + self.layout.baddr_offset)

    def write_baddr(self, address: int, value: int) -> None:
        self.write_word(address + self.layout.baddr_offset, value)

    def klass_of(self, address: int) -> Klass:
        if self.klass_resolver is None:
            raise HeapError("heap has no klass resolver attached")
        return self.klass_resolver(self.read_klass_word(address))

    def array_length(self, address: int) -> int:
        i = self._index(address + self.layout.array_length_offset, 4)
        return int.from_bytes(self._memory[i : i + 4], "little")

    def _write_array_length(self, address: int, length: int) -> None:
        i = self._index(address + self.layout.array_length_offset, 4)
        self._memory[i : i + 4] = length.to_bytes(4, "little")

    def object_size(self, address: int) -> int:
        klass = self.klass_of(address)
        if klass.is_array:
            return klass.object_size(self.array_length(address))
        return klass.object_size()

    # ------------------------------------------------------------------
    # typed field / element access
    # ------------------------------------------------------------------

    def read_slot(self, address: int, offset: int, descriptor: str):
        """Read a value of ``descriptor`` type at ``address + offset``."""
        if descriptors.is_reference(descriptor):
            return self.read_word(address + offset)
        codec = _PRIM_CODEC[descriptor]
        size = descriptors.size_of(descriptor)
        i = self._index(address + offset, size)
        return struct.unpack_from(codec, self._memory, i)[0]

    def write_slot(self, address: int, offset: int, descriptor: str, value) -> None:
        if descriptors.is_reference(descriptor):
            self._write_ref_slot(address, offset, value)
            size = WORD
        else:
            codec = _PRIM_CODEC[descriptor]
            size = descriptors.size_of(descriptor)
            i = self._index(address + offset, size)
            if descriptor == "Z":
                value = 1 if value else 0
            struct.pack_into(codec, self._memory, i, value)
        if self.mutation_listeners:
            for listener in self.mutation_listeners:
                listener(address + offset, size)

    def _write_ref_slot(self, address: int, offset: int, value: int) -> None:
        if value is None:
            value = NULL
        self.write_word(address + offset, value)
        # Write barrier: a reference stored into the old generation dirties
        # its card so minor GCs can find old->young pointers.
        if value != NULL and self.old.contains(address):
            self.card_table.mark(address + offset)

    def read_field(self, address: int, field: FieldInfo):
        return self.read_slot(address, field.offset, field.descriptor)

    def write_field(self, address: int, field: FieldInfo, value) -> None:
        self.write_slot(address, field.offset, field.descriptor, value)

    def element_offset(self, klass: Klass, index: int) -> int:
        base = self.layout.array_payload_offset(klass.element_descriptor or "")
        return base + index * klass.element_size

    def read_element(self, address: int, index: int):
        klass = self.klass_of(address)
        length = self.array_length(address)
        if not 0 <= index < length:
            raise IndexError(f"array index {index} out of range [0, {length})")
        return self.read_slot(
            address, self.element_offset(klass, index), klass.element_descriptor or ""
        )

    def write_element(self, address: int, index: int, value) -> None:
        klass = self.klass_of(address)
        length = self.array_length(address)
        if not 0 <= index < length:
            raise IndexError(f"array index {index} out of range [0, {length})")
        self.write_slot(
            address, self.element_offset(klass, index), klass.element_descriptor or "", value
        )

    def reference_offsets(self, address: int) -> List[int]:
        """Offsets (relative to the object) of every reference slot."""
        klass = self.klass_of(address)
        if klass.is_array:
            if not klass.has_reference_elements:
                return []
            base = self.layout.array_payload_offset(klass.element_descriptor or "")
            return [
                base + i * klass.element_size
                for i in range(self.array_length(address))
            ]
        return list(klass.oop_offsets)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def allocate(
        self,
        klass: Klass,
        array_length: Optional[int] = None,
        old_gen: bool = False,
    ) -> int:
        """Bump-allocate an object; raises :class:`OutOfMemoryError` when
        the target region is full (the JVM layer catches this to run GC)."""
        size = klass.object_size(array_length)
        region = self.old if old_gen else self.eden
        address = self._bump(region, size)
        self._format_object(address, klass, array_length)
        return address

    def allocate_into(
        self, region: Region, klass: Klass, array_length: Optional[int] = None
    ) -> int:
        """Allocation into an explicit region (used by the GC)."""
        size = klass.object_size(array_length)
        address = self._bump(region, size)
        self._format_object(address, klass, array_length)
        return address

    def _bump(self, region: Region, size: int) -> int:
        size = align_up(size, OBJECT_ALIGNMENT)
        if region.free < size:
            raise OutOfMemoryError(
                f"{region.name}: need {size} bytes, {region.free} free"
            )
        address = region.top
        region.top += size
        region.object_starts.append(address)
        self.allocations += 1
        self.bytes_allocated += size
        return address

    def _format_object(
        self, address: int, klass: Klass, array_length: Optional[int]
    ) -> None:
        size = klass.object_size(array_length)
        i = self._index(address, size)
        self._memory[i : i + size] = bytes(size)
        self.write_mark(address, markword.FRESH_MARK)
        if klass.klass_id is None:
            raise HeapError(f"klass {klass.name} was never installed by a loader")
        self.write_klass_word(address, klass.klass_id)
        if klass.is_array:
            self._write_array_length(address, array_length or 0)

    def reserve_raw_old(self, nbytes: int) -> int:
        """Reserve raw old-generation space (Skyway input-buffer chunks).

        The caller must register every object it writes into the space via
        :meth:`register_object` to keep the region parse index correct.
        """
        nbytes = align_up(nbytes, OBJECT_ALIGNMENT)
        if self.old.free < nbytes:
            raise OutOfMemoryError(
                f"old gen: need {nbytes} raw bytes, {self.old.free} free"
            )
        address = self.old.top
        self.old.top += nbytes
        return address

    def register_object(self, address: int) -> None:
        """Add an externally-placed object (input-buffer content) to the
        old generation's parse index, keeping it address-sorted.

        Streaming placement registers in ascending order (the fast path);
        a delta epoch appending into a retained chunk's reserved tail can
        land *below* objects promoted since, so out-of-order registration
        inserts at the sorted position instead.
        """
        starts = self.old.object_starts
        if not starts or address > starts[-1]:
            starts.append(address)
            return
        i = bisect.bisect_left(starts, address)
        if i < len(starts) and starts[i] == address:
            raise HeapError(f"object already registered: {address:#x}")
        starts.insert(i, address)

    def register_objects(self, addresses: List[int]) -> None:
        """:meth:`register_object` for an ascending run of addresses: one
        bulk extend when the run lies above everything registered so far
        (streaming placement), per-object sorted inserts when it does not
        (a parallel stream interleaved its own chunks)."""
        starts = self.old.object_starts
        if addresses and (not starts or addresses[0] > starts[-1]):
            starts.extend(addresses)
        else:
            for address in addresses:
                self.register_object(address)

    # ------------------------------------------------------------------
    # iteration / queries
    # ------------------------------------------------------------------

    def regions(self) -> Tuple[Region, Region, Region, Region]:
        return (self.eden, self.survivor_from, self.survivor_to, self.old)

    def region_of(self, address: int) -> Region:
        for region in self.regions():
            if region.contains(address):
                return region
        raise SegfaultError(f"address {address:#x} in no region")

    def is_young(self, address: int) -> bool:
        return (
            self.eden.contains(address)
            or self.survivor_from.contains(address)
            or self.survivor_to.contains(address)
        )

    def iter_objects(self, region: Region) -> Iterator[int]:
        return iter(list(region.object_starts))

    def live_objects(self) -> Iterator[int]:
        for region in self.regions():
            yield from self.iter_objects(region)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + len(self._memory)

    @property
    def used_bytes(self) -> int:
        return sum(r.used for r in self.regions())

    def identity_hash(self, address: int, hash_source: Callable[[], int]) -> int:
        """The object's identity hashcode, computing and caching it in the
        mark word on first use (HotSpot semantics)."""
        mark = self.read_mark(address)
        if markword.has_hash(mark):
            return markword.get_hash(mark)
        hashcode = hash_source() & ((1 << 31) - 1)
        if hashcode == 0:
            hashcode = 1  # 0 means "not computed"
        self.write_mark(address, markword.set_hash(mark, hashcode))
        return hashcode


def copy_object_bytes(
    src_heap: ManagedHeap, src: int, dst_heap: ManagedHeap, dst: int, size: int
) -> None:
    """memcpy between heaps (or within one), used by GC and tests."""
    dst_heap.write_bytes(dst, src_heap.read_bytes(src, size))
