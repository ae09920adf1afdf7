"""Multi-stream parallel send — the transport half of §4.2's threads.

The paper segregates output buffers by destination *and sending thread*:
"only one such output buffer exists for each destination [per thread]".
Here that becomes N concurrent ``recv_graph`` streams to one worker, each
with its own connection, chunk pipeline, and ``thread_id`` — so each
stream's baddr words carry a distinct thread field and an object reached
by two streams is cloned once per stream through the per-stream shared
table (the §4.2 crossover: "these copies will become separate objects
after delivered to a remote node").

Concurrency model: graph traversal is deterministic and runs on the
caller thread, interleaving roots round-robin across the streams; each
stream's chunk pipeline has its own writer thread pushing DATA frames, and
the worker's one event loop places whichever connection's chunk arrived,
one chunk at a time.  So stream i's traversal overlaps every stream's
socket I/O and the worker's placement of streams j != i — the wall-clock
win — while the byte content of each stream stays a pure function of its
root shard (the determinism the benchmark's digest-parity check relies
on).

All streams share ONE shuffling phase: a single ``shuffle_start`` before
any stream opens, so every baddr carries the same sID and a foreign
stream's baddr is recognized as "claimed by another thread this phase"
rather than rejected as stale.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from repro.transport.client import GraphSendStream, WorkerClient
from repro.transport.errors import TransportError
from repro.transport.metrics import TransportMetrics
from repro.transport.pipeline import DEFAULT_CHUNK_BYTES, DEFAULT_QUEUE_CHUNKS


def shard_roots(roots: Sequence[int], streams: int) -> List[List[int]]:
    """Deal roots round-robin into ``streams`` shards (shard i gets roots
    i, i+n, i+2n, ... — deterministic and balanced to within one root)."""
    if streams < 1:
        raise ValueError("streams must be >= 1")
    return [list(roots[i::streams]) for i in range(streams)]


@dataclasses.dataclass
class StreamReport:
    """What one stream of a parallel send delivered."""

    thread_id: int
    roots: int
    result: dict  # the worker's recv_graph RESULT payload
    data: bytes  # framed stream bytes, for byte-level cross-checks

    @property
    def digest(self) -> str:
        return self.result["digest"]

    @property
    def objects(self) -> int:
        return self.result["objects"]


@dataclasses.dataclass
class ParallelSendReport:
    """The aggregate of one multi-stream send."""

    streams: List[StreamReport]
    elapsed_seconds: float
    #: All streams' measured wire counters folded into one ledger (fresh
    #: object, deterministic fold order = thread-id order); None when the
    #: sender had no metrics to merge.
    transport: Optional[TransportMetrics] = None

    @property
    def digests(self) -> List[str]:
        """Per-stream digests in thread order — two runs that produced the
        same object bytes produce the same list."""
        return [s.digest for s in self.streams]

    @property
    def total_objects(self) -> int:
        return sum(s.objects for s in self.streams)

    @property
    def total_stream_bytes(self) -> int:
        return sum(len(s.data) for s in self.streams)

    def as_dict(self) -> Dict[str, object]:
        return {
            "streams": len(self.streams),
            "total_objects": self.total_objects,
            "total_stream_bytes": self.total_stream_bytes,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "digests": self.digests,
            "transport": (self.transport.as_dict()
                          if self.transport is not None else None),
        }


class ParallelGraphSender:
    """Shard a root set across N connected clients and stream in parallel.

    Every client must share one driver runtime (they usually point at one
    worker's port, but fanning out across workers works the same way —
    each stream is independent after the shared ``shuffle_start``).
    """

    def __init__(self, clients: Sequence[WorkerClient]) -> None:
        if not clients:
            raise ValueError("ParallelGraphSender needs at least one client")
        runtimes = {id(c.runtime) for c in clients}
        if len(runtimes) != 1:
            raise TransportError(
                "parallel streams must share one driver runtime "
                "(one shuffle phase, one registry, one heap)"
            )
        self.clients = list(clients)
        self.runtime = clients[0].runtime

    def send(
        self,
        roots: Sequence[int],
        retain: bool = False,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        throttle_mbps: Optional[float] = None,
    ) -> ParallelSendReport:
        """Send ``roots`` as ``len(self.clients)`` interleaved streams."""
        started = time.perf_counter()
        # One phase for every stream: baddrs from stream A observed by
        # stream B must read as "this phase, another thread".
        self.runtime.shuffle_start()
        shards = shard_roots(roots, len(self.clients))
        streams: List[GraphSendStream] = [
            client.begin_graph(
                retain=retain, thread_id=tid, fresh_phase=False,
                chunk_bytes=chunk_bytes, queue_chunks=queue_chunks,
                throttle_mbps=throttle_mbps,
            )
            for tid, client in enumerate(self.clients)
        ]
        try:
            # Round-robin, one root per stream per round: the traversal
            # order (and therefore every stream's bytes) is deterministic,
            # and shared subgraphs are reached alternately by different
            # thread_ids — the §4.2 crossover path, exercised on purpose.
            rounds = max((len(s) for s in shards), default=0)
            for step in range(rounds):
                for stream, shard in zip(streams, shards):
                    if step < len(shard):
                        stream.write_object(shard[step])
            reports = []
            for tid, (stream, shard) in enumerate(zip(streams, shards)):
                result, data = stream.finish()
                reports.append(StreamReport(
                    thread_id=tid, roots=len(shard),
                    result=result, data=data,
                ))
        except TransportError:
            for stream in streams:
                try:
                    stream.abort()
                except TransportError:  # pragma: no cover - best effort
                    pass
            raise
        return ParallelSendReport(
            streams=reports,
            elapsed_seconds=time.perf_counter() - started,
            transport=self._merged_metrics(),
        )

    def _merged_metrics(self) -> TransportMetrics:
        """One deterministic aggregate over the clients' metrics objects —
        deduplicated by identity first, since several clients may share one
        ledger (each distinct ledger counts exactly once)."""
        unique: List[TransportMetrics] = []
        for client in self.clients:
            if not any(client.metrics is m for m in unique):
                unique.append(client.metrics)
        return TransportMetrics.merged(unique)
