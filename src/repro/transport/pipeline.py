"""Pipelined chunk streaming — the transport half of the paper's §4.2.

"Skyway starts streaming an output buffer while the sender is still
traversing the graph": here that is literal.  The sender's stream bytes
arrive via ``feed()`` on the *traversal* thread, get cut into fixed-size
chunks, and go into a bounded queue drained by a writer thread that pushes
the graph stream's DATA frames down the socket.  Traversal and socket I/O overlap in measured
wall-clock time; a full queue blocks the traversal (counted as a stall —
the wire is the bottleneck), an empty one idles the writer (traversal is).

``store_and_forward=True`` buffers the whole stream, then sends from the
calling thread — no writer, no queue.  It is the baseline Skyway §4.2
improves on (the ledger's ``transport.pipeline.overlap_gain_s`` compares
the two).  A payload already in hand (a blob, an epoch) has nothing to
overlap and never comes here: ``WorkerClient`` writes its frames inline.

Both modes end with one TRAILER frame carrying total bytes, a
whole-stream CRC32, and the chunk count, so the receiver can prove it
reassembled exactly what the sender traversed.  The stream is the
connection's bulk stream (``frames.BULK_STREAM``), opened by the caller's
STREAM frame.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

from repro import obs
from repro.transport import frames
from repro.transport.connection import FrameConnection
from repro.transport.errors import TransportClosed, TransportError

DEFAULT_CHUNK_BYTES = 64 * 1024
DEFAULT_QUEUE_CHUNKS = 8

_CLOSE = object()  # queue sentinel


class ChunkPipeline:
    """The ``transport=`` sink for :class:`SkywayObjectOutputStream`.

    Implements the stream-transport protocol: ``feed(data)`` for each new
    run of stream bytes, ``finish(total, crc)`` once after close.
    """

    def __init__(
        self,
        connection: FrameConnection,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        store_and_forward: bool = False,
        throttle_mbps: Optional[float] = None,
    ) -> None:
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        self._conn = connection
        self._chunk_bytes = chunk_bytes
        self._store_and_forward = store_and_forward
        #: Pacing in bytes/second; models a finite-bandwidth wire (the
        #: paper's testbed Ethernet) on an effectively infinite loopback.
        #: Applied per chunk in BOTH modes — it is the wire's speed, not
        #: the writer thread's.
        self._pace = throttle_mbps * 1e6 / 8.0 if throttle_mbps else None
        self.metrics = connection.metrics
        self._staging = bytearray()
        self._held: list = []  # store-and-forward chunk list
        self._chunks = 0
        self._finished = False
        self._writer_error: Optional[Exception] = None
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_chunks)
        #: Writer-thread spans can't inherit the constructing thread's span
        #: stack, so capture the current span id here and parent wire
        #: writes to it explicitly.
        self._obs_parent = obs.current_context()[1] or None
        self._writer: Optional[threading.Thread] = None
        if not store_and_forward:
            self._writer = threading.Thread(
                target=self._drain, name="skyway-chunk-writer", daemon=True
            )
            self._writer.start()

    # -- traversal-thread side --------------------------------------------

    def feed(self, data: bytes) -> None:
        if self._finished:
            raise TransportError("feed() after finish()")
        self._raise_writer_error()
        self._staging.extend(data)
        while len(self._staging) >= self._chunk_bytes:
            chunk = bytes(self._staging[:self._chunk_bytes])
            del self._staging[:self._chunk_bytes]
            self._dispatch(chunk)

    def finish(self, total_bytes: int, stream_crc: int) -> None:
        """Flush the tail chunk, wait out the writer, send the TRAILER."""
        if self._finished:
            raise TransportError("finish() called twice")
        self._finished = True
        if self._staging:
            self._dispatch(bytes(self._staging))
            self._staging.clear()
        if self._store_and_forward:
            with self.metrics.phase("send"):
                for chunk in self._held:
                    self._send_chunk(chunk)
            self._held.clear()
        else:
            assert self._writer is not None
            self._queue.put(_CLOSE)
            self._writer.join()
            self._raise_writer_error()
        self._conn.send_frame(frames.TRAILER, frames.encode_trailer(
            frames.BULK_STREAM, total_bytes, stream_crc, self._chunks))

    def abort(self) -> None:
        """Tear down the writer without sending a TRAILER (caller is
        abandoning the stream after an error)."""
        self._finished = True
        if self._writer is not None and self._writer.is_alive():
            self._queue.put(_CLOSE)
            self._writer.join()

    # -- internals ---------------------------------------------------------

    def _dispatch(self, chunk: bytes) -> None:
        self._chunks += 1
        if self._store_and_forward:
            self._held.append(chunk)
            return
        try:
            self._queue.put_nowait(chunk)
        except queue.Full:
            start = time.perf_counter()
            with obs.span("pipeline.stall", bytes=len(chunk)):
                self._queue.put(chunk)
            self.metrics.note_stall(time.perf_counter() - start)
        self._raise_writer_error()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                return
            if self._writer_error is not None:
                continue  # swallow the rest; feed()/finish() re-raise
            try:
                self._send_chunk(item)
            except Exception as exc:  # surfaces on the feeding thread
                self._writer_error = exc

    def _send_chunk(self, chunk: bytes) -> None:
        started = time.perf_counter()
        with obs.span("wire.write", parent=self._obs_parent,
                      bytes=len(chunk)):
            self._conn.send_encoded(
                frames.data_frame(frames.BULK_STREAM, chunk), "DATA frame")
        self.metrics.note_chunk_sent()
        if self._pace:
            budget = len(chunk) / self._pace
            elapsed = time.perf_counter() - started
            if elapsed < budget:
                time.sleep(budget - elapsed)

    def _raise_writer_error(self) -> None:
        if self._writer_error is not None:
            error = self._writer_error
            if isinstance(error, TransportError):
                raise error
            raise TransportClosed(f"chunk writer failed: {error}") from error

    @property
    def chunks(self) -> int:
        return self._chunks

