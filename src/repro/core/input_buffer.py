"""Skyway input buffers (paper §3.2, §4.3).

Input buffers live **in the managed heap** ("so that data coming from a
remote node is directly written into the heap and can be used right away"),
allocated in the old generation, and span **linked chunks** — "a new chunk
can be created and linked to the old chunk when the old one runs out of
space", because the receiver does not know the incoming byte count up
front and large contiguous allocations fragment the heap.  An object never
spans two chunks; objects whose size exceeds the regular chunk size get a
dedicated oversized chunk.

Because each chunk is filled sequentially with whole objects, the mapping
from *logical* (sender buffer) addresses to *physical* heap addresses is a
short run table — the chunk arithmetic of §4.3: find the chunk ``i`` a
relative address falls in, take its offset within the chunk, and add the
chunk's start address.  A chunk that cannot fit the next object gives its
unused tail back when it is still the old generation's last reservation,
so a stream that nothing interleaves with lands as chunks that abut: one
``physical - logical`` :attr:`InputBuffer.offset` for the whole buffer,
and logical -> physical is one add.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import itertools
import operator
from typing import List, Optional, Sequence

from repro.core.output_buffer import LOGICAL_BASE
from repro.heap.heap import ManagedHeap
from repro.heap.layout import OBJECT_ALIGNMENT, align_up


class InputBufferError(RuntimeError):
    pass


@dataclasses.dataclass
class Chunk:
    """One in-heap chunk: a contiguous run of received objects."""

    physical_start: int
    capacity: int
    logical_start: int
    filled: int = 0

    @property
    def logical_end(self) -> int:
        return self.logical_start + self.filled

    @property
    def free(self) -> int:
        return self.capacity - self.filled


class InputBuffer:
    """A per-(sender, stream) in-heap input buffer made of linked chunks."""

    def __init__(self, heap: ManagedHeap, chunk_size: int = 64 * 1024) -> None:
        if chunk_size < 256:
            raise ValueError("input-buffer chunk size too small")
        self.heap = heap
        self.chunk_size = chunk_size
        self.chunks: List[Chunk] = []
        #: Physical addresses of placed objects, in placement order.
        self.placed_objects: List[int] = []
        self._logical_cursor = LOGICAL_BASE
        self._starts_index: List[int] = []  # logical_start per chunk (bisect)
        #: ``physical - logical`` of every chunk while each abuts the one
        #: before; None before the first chunk and once one does not.
        self.offset: Optional[int] = None
        self.total_bytes = 0
        self._frozen = False

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def place(self, object_bytes: bytes) -> int:
        """Copy one received object into the buffer, returning its physical
        address.  The object's logical address is implied by arrival order
        (senders commit objects densely in logical space)."""
        if self._frozen:
            raise InputBufferError("buffer is frozen (stream already finished)")
        return self._place(object_bytes)

    def place_run(self, data, sizes: Sequence[int]) -> List[int]:
        """Copy a run of whole objects — ``data`` is their back-to-back
        images, ``sizes`` their (aligned) byte sizes — returning each
        object's physical address.

        Same greedy chunk filling as :meth:`place` object by object, but
        the bytes move with **one slice copy per chunk-run** and the parse
        index, placement list and cursors are extended in bulk.
        """
        if self._frozen:
            raise InputBufferError("buffer is frozen (stream already finished)")
        ends = list(itertools.accumulate(sizes))
        if not ends:
            return []
        if ends[-1] != len(data):
            raise InputBufferError(
                f"object sizes sum to {ends[-1]} bytes, run holds {len(data)}"
            )
        if functools.reduce(operator.or_, sizes) % OBJECT_ALIGNMENT:
            raise InputBufferError(
                f"run-placed object sizes must be {OBJECT_ALIGNMENT}-byte aligned"
            )
        heap = self.heap
        memory = heap.memory_view
        source = memoryview(data)
        placed_before = len(self.placed_objects)
        first = 0  # ordinal of the first object not yet placed
        consumed = 0  # source bytes already placed
        while first < len(ends):
            chunk = self._chunk_for(sizes[first])
            # Objects first..stop-1 fit this chunk's free tail.
            stop = bisect.bisect_right(ends, consumed + chunk.free, first)
            nbytes = ends[stop - 1] - consumed
            base = chunk.physical_start + chunk.filled
            at = heap.index_of(base, nbytes)
            memory[at : at + nbytes] = source[consumed : consumed + nbytes]
            shift = base - consumed
            run = [base] + [shift + end for end in ends[first : stop - 1]]
            heap.register_objects(run)
            self.placed_objects.extend(run)
            chunk.filled += nbytes
            self._logical_cursor += nbytes
            self.total_bytes += nbytes
            first = stop
            consumed += nbytes
        return self.placed_objects[placed_before:]

    def append(self, object_bytes: bytes) -> int:
        """Delta-epoch placement: append one NEW object to a *finished*
        buffer.  The buffer stays frozen — already-placed objects remain
        translatable throughout — and the logical cursor keeps growing, so
        sender and receiver agree on the offsets of appended objects."""
        if not self._frozen:
            raise InputBufferError(
                "delta append on a buffer that never finished its stream"
            )
        return self._place(object_bytes)

    def _place(self, object_bytes: bytes) -> int:
        size = align_up(len(object_bytes), OBJECT_ALIGNMENT)
        chunk = self._chunk_for(size)
        address = chunk.physical_start + chunk.filled
        self.heap.write_bytes(address, object_bytes)
        if size > len(object_bytes):
            pad = size - len(object_bytes)
            self.heap.write_bytes(address + len(object_bytes), bytes(pad))
        chunk.filled += size
        self._logical_cursor += size
        self.heap.register_object(address)
        self.placed_objects.append(address)
        self.total_bytes += size
        return address

    def _chunk_for(self, size: int) -> Chunk:
        if self.chunks:
            last = self.chunks[-1]
            if last.free >= size:
                return last
            if self.heap.release_raw_old(
                last.physical_start + last.filled, last.free
            ):
                last.capacity = last.filled
        capacity = max(self.chunk_size, size)  # oversized objects
        physical = self.heap.reserve_raw_old(capacity)
        offset = physical - self._logical_cursor
        if not self.chunks:
            self.offset = offset
        elif offset != self.offset:
            self.offset = None
        chunk = Chunk(
            physical_start=physical,
            capacity=capacity,
            logical_start=self._logical_cursor,
        )
        self.chunks.append(chunk)
        self._starts_index.append(chunk.logical_start)
        return chunk

    def freeze(self) -> None:
        """End of stream: no more placements; translation becomes legal."""
        self._frozen = True

    # ------------------------------------------------------------------
    # address translation (the §4.3 chunk arithmetic)
    # ------------------------------------------------------------------

    def translate(self, logical: int) -> int:
        """Absolute heap address for a relativized reference."""
        if not self._frozen:
            raise InputBufferError(
                "translation before end-of-stream (computation on a buffer "
                "being streamed into must block, paper §4.3)"
            )
        if logical < LOGICAL_BASE or logical >= self._logical_cursor:
            raise InputBufferError(
                f"relative address {logical:#x} outside buffer "
                f"[{LOGICAL_BASE:#x}, {self._logical_cursor:#x})"
            )
        if self.offset is not None:  # abutting chunks: one add
            return logical + self.offset
        i = bisect.bisect_right(self._starts_index, logical) - 1
        chunk = self.chunks[i]
        offset = logical - chunk.logical_start
        if offset >= chunk.filled:
            raise InputBufferError(
                f"relative address {logical:#x} falls in chunk {i} padding"
            )
        return chunk.physical_start + offset

    def landing_offset(self) -> Optional[int]:
        """The :attr:`offset` of a run placed now, if it abuts."""
        if self.chunks:
            return self.offset
        return self.heap.old.top - self._logical_cursor

    def fingerprint(self) -> bytes:
        """SHA-256 of the chunk layout, the object count and the bytes."""
        layout = [(c.physical_start, c.logical_start, c.filled)
                  for c in self.chunks]
        digest = hashlib.sha256(repr((len(self), layout)).encode())
        for chunk in self.chunks:
            digest.update(self.heap.read_bytes(chunk.physical_start,
                                               chunk.filled))
        return digest.digest()

    @property
    def logical_size(self) -> int:
        return self._logical_cursor - LOGICAL_BASE

    def __len__(self) -> int:
        return len(self.placed_objects)
