"""Transport-side counters and wall-clock phase timers.

The simulated cluster charges :class:`~repro.simtime.SimClock` time from a
cost model; the socket transport moves real bytes in real time, so it keeps
its own measured ledger.  Benchmarks report both side by side: the sim
clock says what the *model* predicts, these counters say what the wire
*did* (the pipelining win is a wall-clock fact, not a modeled one).

Thread safety: one metrics object is mutated from several threads at once —
the traversal thread feeds the chunk pipeline while its writer thread sends
DATA frames, and a snapshot (``as_dict``) may be taken from any thread
meanwhile.  Every mutation goes through a ``note_*`` method holding the
object's lock, and ``as_dict`` reads under it, so counts are exact and
snapshots consistent, not racy ``+=`` approximations.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator


class TransportMetrics:
    """Byte/chunk/retry counters plus per-phase wall-clock seconds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.chunks_sent = 0
        self.chunks_received = 0
        self.connect_attempts = 0
        self.retries = 0
        self.queue_full_stalls = 0
        #: Seconds the feeding thread spent blocked on a full chunk queue —
        #: the direct measure of "traversal outran the wire".
        self.stall_seconds = 0.0
        self.phases: Dict[str, float] = {}

    # -- locked mutators ----------------------------------------------------

    def note_frame_sent(self, nbytes: int) -> None:
        with self._lock:
            self.frames_sent += 1
            self.bytes_sent += nbytes

    def note_frame_received(self, nbytes: int) -> None:
        with self._lock:
            self.frames_received += 1
            self.bytes_received += nbytes

    def note_chunk_sent(self) -> None:
        with self._lock:
            self.chunks_sent += 1

    def note_chunk_received(self) -> None:
        with self._lock:
            self.chunks_received += 1

    def note_connect_attempt(self, retry: bool = False) -> None:
        with self._lock:
            self.connect_attempts += 1
            if retry:
                self.retries += 1

    def note_stall(self, seconds: float) -> None:
        with self._lock:
            self.queue_full_stalls += 1
            self.stall_seconds += seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock time under ``name`` ("traverse", "send",
        "handshake", "place", ...)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)

    def add_phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + seconds

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "chunks_sent": self.chunks_sent,
                "chunks_received": self.chunks_received,
                "connect_attempts": self.connect_attempts,
                "retries": self.retries,
                "queue_full_stalls": self.queue_full_stalls,
                "stall_seconds": round(self.stall_seconds, 6),
                "phases": {k: round(v, 6)
                           for k, v in sorted(self.phases.items())},
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransportMetrics({self.as_dict()!r})"
