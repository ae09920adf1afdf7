"""repro.transport — a real socket transport for Skyway streams.

The simulated cluster (:mod:`repro.net.cluster`) *models* the wire; this
package *is* one: length-prefixed CRC-checked frames over loopback TCP,
multi-process workers (``multiprocessing.spawn`` — each its own heap, like
each its own JVM), a registry-converging HELLO handshake, and a pipelined
chunk sender that overlaps graph traversal with socket I/O in measured
wall-clock time — the paper's §4.2 streaming claim, made literal.

Entry points:

* :class:`WorkerHandle` / :class:`WorkerSpec` — spawn and reap workers;
* :class:`WorkerClient` — connect, handshake, ``send_graph``/``send_blob``,
  ``send_epochs``;
* :class:`ChunkPipeline` — the ``transport=`` seam for
  :class:`~repro.core.streams.SkywayObjectOutputStream`;
* :class:`TransportMetrics` — measured bytes/chunks/stalls/phases,
  reported alongside the simulated clock's categories;
* the typed error taxonomy in :mod:`repro.transport.errors`.
"""

from repro.transport.client import WorkerClient
from repro.transport.connection import FrameConnection, connect_with_retry
from repro.transport.digest import graph_digest, semantic_graph_digest
from repro.transport.errors import (
    FrameCorruptionError,
    HandshakeError,
    RemoteWorkerError,
    TransportClosed,
    TransportError,
    TransportTimeout,
    WorkerStartupError,
)
from repro.transport.metrics import TransportMetrics
from repro.transport.pipeline import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_QUEUE_CHUNKS,
    ChunkPipeline,
)
from repro.transport.worker import (
    LocalAsyncWorker,
    WorkerHandle,
    WorkerServer,
    WorkerSpec,
    worker_main,
)

#: The name ``benchmarks/ledger`` imports the client under.
MuxEpochClient = WorkerClient

__all__ = [
    "ChunkPipeline",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_QUEUE_CHUNKS",
    "FrameConnection",
    "FrameCorruptionError",
    "HandshakeError",
    "LocalAsyncWorker",
    "MuxEpochClient",
    "RemoteWorkerError",
    "TransportClosed",
    "TransportError",
    "TransportMetrics",
    "TransportTimeout",
    "WorkerClient",
    "WorkerHandle",
    "WorkerServer",
    "WorkerSpec",
    "WorkerStartupError",
    "connect_with_retry",
    "graph_digest",
    "semantic_graph_digest",
    "worker_main",
]
