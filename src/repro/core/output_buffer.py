"""Skyway output buffers (paper §3.2, §4.2).

One output buffer exists per destination per sending thread, in *native*
(off-heap) memory — "they will not interfere with the GC, which could
reclaim data objects before they are sent if these buffers were in the
managed heap."  Objects are bump-committed at logical addresses; when the
physical buffer fills, its content is *flushed* (streamed) to the sink and
the buffer reused, with ``flushed_bytes`` tracking what left the buffer so
logical addresses keep growing monotonically (Algorithm 2's
``addr - ob.flushedBytes``).

The physical window is a fixed-size ``bytearray`` *segment* checked out of
a process-wide :class:`SegmentArena` and returned on :meth:`clear` (i.e. at
``shuffleStart``), so steady-state sending allocates no buffer memory.  The
clone fast path (:meth:`begin_clone`) hands the caller the raw segment and
a write offset, letting kernels copy an object image straight from the
heap's ``memoryview`` into the outgoing segment — one copy, no intermediate
``bytearray``/``bytes`` round-trips.  :meth:`write_object` (the interpreted
path) is a thin wrapper over the same primitive and keeps its historical
eager-flush timing.

Logical address 0 is reserved for null references; the logical space
therefore starts at one word.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.heap.layout import OBJECT_ALIGNMENT, WORD, align_up

#: First logical address handed out (0 encodes null on the wire).
LOGICAL_BASE = WORD

FlushSink = Callable[[bytes], None]


class SegmentArena:
    """A pool of reusable output-buffer segments, keyed by capacity.

    Buffers check segments out lazily and return them on :meth:`clear`
    (the shuffle-phase boundary), so consecutive phases — and the N
    per-thread buffers of a multi-stream send — recycle the same handful
    of ``bytearray`` windows instead of reallocating them.
    """

    #: At most this many idle segments are retained per capacity class.
    MAX_POOLED = 32

    def __init__(self) -> None:
        self._pools: Dict[int, List[bytearray]] = {}

    def acquire(self, capacity: int) -> bytearray:
        """A segment of exactly ``capacity`` bytes (contents are stale —
        callers must overwrite every byte they later emit)."""
        pool = self._pools.get(capacity)
        if pool:
            return pool.pop()
        return bytearray(capacity)

    def release(self, segment: bytearray) -> None:
        pool = self._pools.setdefault(len(segment), [])
        if len(pool) < self.MAX_POOLED:
            pool.append(segment)


#: The process-wide arena every output buffer shares.
_ARENA = SegmentArena()


class OutputBuffer:
    """A per-destination, per-thread native output buffer."""

    def __init__(
        self,
        destination: str,
        capacity: int = 256 * 1024,
        sink: Optional[FlushSink] = None,
    ) -> None:
        if capacity < 64:
            raise ValueError("output buffer capacity too small")
        self.destination = destination
        self.capacity = capacity
        #: Current physical segment (checked out lazily) and its fill level.
        self._seg: Optional[bytearray] = None
        self._fill = 0
        #: Whether ``_seg`` belongs to the arena (oversized one-offs don't).
        self._seg_pooled = False
        #: Next logical address to hand out (paper: ob.allocableAddr).
        self.allocable_addr = LOGICAL_BASE
        #: Logical bytes already streamed out (paper: ob.flushedBytes).
        self.flushed_bytes = LOGICAL_BASE
        self._sink = sink
        self._pending_segments: List[bytes] = []
        self.flush_count = 0

    # -- allocation -------------------------------------------------------------

    def reserve(self, size: int) -> int:
        """Claim ``size`` bytes at the next logical address (pre-announced
        during traversal, before the object is actually cloned)."""
        aligned = align_up(size, OBJECT_ALIGNMENT)
        addr = self.allocable_addr
        self.allocable_addr += aligned
        return addr
    # -- cloning ----------------------------------------------------------------

    def begin_clone(self, logical_addr: int, size: int) -> Tuple[bytearray, int]:
        """Open a ``size``-byte clone window at ``logical_addr`` and return
        ``(segment, offset)`` for the caller to fill in place (Algorithm 2's
        CLONEINBUFFER, minus the copy).  Flushes first if the object would
        overflow the physical segment; objects larger than the whole buffer
        get a one-off segment that streams through on the next flush.

        The caller must overwrite all ``size`` bytes at ``offset`` — the
        segment is recycled between flushes and carries stale content.
        """
        if logical_addr < self.flushed_bytes:
            raise ValueError(
                f"logical address {logical_addr} was already flushed"
            )
        offset = logical_addr - self.flushed_bytes
        seg = self._seg
        if seg is not None and offset < self._fill:
            # Out-of-order completion within the resident window (can
            # happen for padding differences) — plain in-place write.
            end = offset + size
            if end > len(seg):
                seg.extend(bytes(end - len(seg)))
                self._seg_pooled = False  # grown: no longer capacity-sized
            if end > self._fill:
                self._fill = end
            return seg, offset
        if seg is None or offset + size > len(seg):
            self.flush()
            offset = logical_addr - self.flushed_bytes
            seg = self._checkout(offset + size)
        if offset > self._fill:
            # Alignment gap: zero explicitly, the segment is recycled.
            seg[self._fill : offset] = bytes(offset - self._fill)
        end = offset + size
        if end > self._fill:
            self._fill = end
        return seg, offset

    def write_object(self, logical_addr: int, payload: bytes) -> None:
        """Clone object bytes at ``logical_addr`` (the interpreted path).
        Flushes first if the object would overflow the physical buffer;
        objects larger than the whole buffer stream through in one
        oversized segment."""
        seg, offset = self.begin_clone(logical_addr, len(payload))
        seg[offset : offset + len(payload)] = payload
        if self._fill >= self.capacity:
            self.flush()

    def patch_word(self, logical_addr: int, value: int) -> bool:
        """Rewrite one word if it is still resident; returns False if that
        region was already flushed (the caller must have relativized it
        before commit — this is why Algorithm 2 fills references when the
        *referencing* object is cloned, not later)."""
        offset = logical_addr - self.flushed_bytes
        if offset < 0:
            return False
        if offset + WORD > self._fill or self._seg is None:
            return False
        self._seg[offset : offset + WORD] = (value & (2**64 - 1)).to_bytes(
            8, "little"
        )
        return True

    def _checkout(self, min_size: int) -> bytearray:
        """Attach a fresh physical segment sized for ``min_size`` bytes."""
        if min_size <= self.capacity:
            seg = _ARENA.acquire(self.capacity)
            self._seg_pooled = True
        else:
            seg = bytearray(min_size)
            self._seg_pooled = False
        self._seg = seg
        self._fill = 0
        return seg

    def _recycle(self) -> None:
        if self._seg is not None and self._seg_pooled:
            _ARENA.release(self._seg)
        self._seg = None
        self._seg_pooled = False
        self._fill = 0

    # -- streaming ------------------------------------------------------------

    def flush(self) -> None:
        """Stream the resident bytes to the sink and reset the window."""
        if not self._fill or self._seg is None:
            return
        segment = bytes(memoryview(self._seg)[: self._fill])
        self.flushed_bytes += self._fill
        self._recycle()
        self.flush_count += 1
        if self._sink is not None:
            self._sink(segment)
        else:
            self._pending_segments.append(segment)

    def drain_segments(self) -> List[bytes]:
        """Segments accumulated while no sink was attached."""
        out, self._pending_segments = self._pending_segments, []
        return out

    def set_sink(self, sink: FlushSink) -> None:
        self._sink = sink
        for segment in self.drain_segments():
            sink(segment)

    @property
    def resident_bytes(self) -> int:
        return self._fill

    @property
    def logical_size(self) -> int:
        """Total logical bytes committed so far (excludes the null word)."""
        return self.allocable_addr - LOGICAL_BASE

    def clear(self) -> None:
        """Reset for a new shuffle phase (paper: buffers are cleared after
        their objects are sent / at shuffleStart).  Returns the physical
        segment to the arena for the next phase's buffers."""
        self._recycle()
        self._pending_segments = []
        self.allocable_addr = LOGICAL_BASE
        self.flushed_bytes = LOGICAL_BASE
