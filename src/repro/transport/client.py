"""The driver side of the worker protocol: talking to a worker.

:class:`WorkerClient` owns one framed *connection* to a worker — connect
with retry, registry handshake, TRACE propagation, obs-source registration,
BYE — and the two ways bytes move over it: plain CALL/RESULT control ops,
and streams (STREAM + DATA* + TRAILER, :mod:`~repro.transport.frames`).
A graph streams through the chunk pipeline's writer thread while the
traversal runs; a payload already in hand — a blob, or any number of
channel-tagged epochs interleaved (:meth:`WorkerClient.send_epochs`;
:meth:`~WorkerClient.deliver_epoch` is the one-epoch form
``DeltaSendChannel.ship`` recovers NACKs through) — is framed and written
inline by the one in-hand writer, :func:`_write_streams`.  Every
mid-stream failure is converted into the typed error taxonomy, the
worker's ERROR frame preferred over the local symptom.
"""

from __future__ import annotations

import itertools
import time
import zlib
from typing import Dict, Optional, Tuple, Type

from repro import obs
from repro.core.runtime import SkywayRuntime
from repro.core.streams import SkywayObjectOutputStream
from repro.delta.channel import DeltaStaleError
from repro.transport import frames, registry_sync
from repro.transport.connection import (
    FrameConnection,
    connect_with_retry,
    expect_payload,
)
from repro.transport.errors import (
    ClusterProtocolError,
    RemoteWorkerError,
    TransportClosed,
    TransportError,
)
from repro.transport.metrics import TransportMetrics
from repro.transport.pipeline import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_QUEUE_CHUNKS,
    ChunkPipeline,
)

#: Chunk size of a stream already in hand (an epoch, a blob).  Smaller
#: than the graph pipeline's default on purpose: these chunks are the
#: interleaving quantum, and a thousand channels sharing one socket
#: round-robin at this granularity.
DEFAULT_MUX_CHUNK_BYTES = 32 * 1024

#: In-hand streams' frames coalesce into one ``sendall`` per this many
#: bytes (and always through each stream's trailer).
MUX_FLUSH_BYTES = 256 * 1024


_client_ids = itertools.count(1)


def _fail_stream(conn: FrameConnection, exc: TransportError) -> None:
    """A send failed mid-stream: raise the worker's pending ERROR frame
    (its explanation of *why* it hung up) in preference to the local
    symptom."""
    remote = conn.pending_remote_error()
    if remote is not None:
        raise remote from exc
    raise exc


def _write_streams(conn: FrameConnection, streams, rng=None,
                   on_flush=None) -> None:
    """The in-hand writer.  Each ``(StreamHeader, data)`` stream is its
    STREAM opener, ``DEFAULT_MUX_CHUNK_BYTES`` DATA chunks (one at least)
    and TRAILER — or, for an epoch that fits one chunk, the opener alone,
    carrying it inline; streams interleave round-robin (in order within
    each — the only ordering the worker requires), or in ``rng``'s order
    (anything with ``randrange``; how the fuzz tests splice).  Frames
    coalesce into one ``sendall`` per ``MUX_FLUSH_BYTES`` and always
    through each stream's last frame, after which ``on_flush`` runs with
    that stream's id (``None`` after a size flush).  A failed write raises
    the worker's pending ERROR if it sent one."""
    queues = []
    for header, data in streams:
        sid, view, step = header.stream_id, memoryview(data), \
            DEFAULT_MUX_CHUNK_BYTES
        if header.kind == frames.STREAM_EPOCH and len(data) <= step:
            header = header._replace(inline=bytes(data))
            queues.append((sid, [frames.encode_frame(
                frames.STREAM, frames.encode_stream(header))]))
            continue
        queue = [frames.encode_frame(frames.STREAM,
                                     frames.encode_stream(header))]
        queue += [frames.data_frame(sid, view[off:off + step])
                  for off in range(0, max(len(data), 1), step)]
        queue.append(frames.encode_frame(frames.TRAILER, frames.encode_trailer(
            sid, len(data), zlib.crc32(data), len(queue) - 1)))
        queues.append((sid, queue))
    out = bytearray()
    while queues:
        idx = rng.randrange(len(queues)) if rng is not None else 0
        sid, queue = queues[idx]
        out.extend(queue.pop(0))
        if not queue:
            queues.pop(idx)
        elif rng is None:
            # round-robin rotates the head to the back
            queues.append(queues.pop(0))
        if queue and len(out) < MUX_FLUSH_BYTES:
            continue
        try:
            conn.send_encoded(bytes(out), "stream frames")
        except TransportError as exc:
            _fail_stream(conn, exc)
        out.clear()
        if on_flush is not None:
            on_flush(None if queue else sid)


def _read_result(frame: Tuple[int, bytes], span) -> dict:
    """A received frame as the RESULT it must be (an ERROR frame raises
    the remote failure), the worker's spans grafted under ``span``."""
    result = frames.decode_result(expect_payload(frame, frames.RESULT))
    obs.absorb_remote(result, span)
    return result


class WorkerClient:
    """One framed connection from a driver runtime to a worker."""

    def __init__(
        self,
        runtime: SkywayRuntime,
        host: str,
        port: int,
        node_name: str = "driver",
        connect_timeout: float = 2.0,
        connect_attempts: int = 1,
        connect_backoff: float = 0.05,
        read_timeout: float = 10.0,
        metrics: Optional[TransportMetrics] = None,
        connection_cls: Type[FrameConnection] = FrameConnection,
    ) -> None:
        self.runtime = runtime
        self.host = host
        self.port = port
        self.node_name = node_name
        self.metrics = metrics if metrics is not None else TransportMetrics()
        self._connect_opts = dict(
            connect_timeout=connect_timeout, attempts=connect_attempts,
            backoff=connect_backoff, metrics=self.metrics,
        )
        self._read_timeout = read_timeout
        self._connection_cls = connection_cls
        self._conn: Optional[FrameConnection] = None
        #: Names synced by the last HELLO on this connection; None means
        #: no HELLO yet (an empty frozenset would make a driver with an
        #: empty registry skip the handshake entirely and learn nothing
        #: from the worker's extras).
        self._synced_names: Optional[frozenset] = None
        self.peer_name: Optional[str] = None
        self._obs_source: Optional[str] = None

    # -- connection & handshake -------------------------------------------

    def connect(self):
        with self.metrics.phase("connect"):
            sock = connect_with_retry(self.host, self.port,
                                      **self._connect_opts)
        self._conn = self._connection_cls(
            sock, read_timeout=self._read_timeout, metrics=self.metrics,
        )
        self._synced_names = None
        self._sync_registry()
        if self._obs_source is None:
            # Feed this connection's wall-clock phase ledger into the obs
            # snapshot; deregistered on close() so nothing outlives the
            # connection.
            self._obs_source = (
                f"transport.{self.node_name}->{self.host}:{self.port}"
                f"#{next(_client_ids)}"
            )
            obs.registry().register_source(
                self._obs_source, self.metrics.as_dict
            )
        return self

    def _require_conn(self) -> FrameConnection:
        if self._conn is None:
            raise TransportError("client is not connected (call connect())")
        return self._conn

    def _sync_registry(self) -> None:
        """HELLO/HELLO_ACK whenever this side knows names it has not yet
        synced — including classes loaded *after* the initial handshake
        (a stream must never carry a tID the worker cannot resolve)."""
        conn = self._require_conn()
        snapshot = self.runtime.view.snapshot()
        if self._synced_names is not None \
                and frozenset(snapshot) == self._synced_names:
            return
        with self.metrics.phase("handshake"):
            conn.send_frame(
                frames.HELLO,
                frames.encode_hello(self.node_name, snapshot),
            )
            peer, extras = frames.decode_hello_ack(
                conn.expect_frame(frames.HELLO_ACK)
            )
            merged = registry_sync.merge_registries(snapshot, extras)
            registry_sync.install_merged(self.runtime, merged)
        self.peer_name = peer
        self._synced_names = frozenset(merged)

    def close(self) -> None:
        if self._obs_source is not None:
            obs.registry().deregister_source(self._obs_source)
            self._obs_source = None
        if self._conn is not None:
            self._conn.close(bye=True)
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plain ops ---------------------------------------------------------

    def _send_trace(self, conn: FrameConnection) -> None:
        """Propagate the driver's trace context (TRACE frame) so the
        worker's spans for the next CALL — or the next batch of epoch
        streams — stitch under the current span.  Not sent when tracing is
        disabled — zero wire overhead."""
        if obs.enabled():
            trace_id, span_id = obs.current_context()
            conn.send_frame(frames.TRACE,
                            frames.encode_trace(trace_id, span_id))

    def call_op(self, op: str, **params) -> dict:
        """One plain CALL/RESULT op (no DATA stream), trace-propagated.
        The building block under ping/stats and the fleet control ops."""
        conn = self._require_conn()
        self._send_trace(conn)
        return conn.call({"op": op, **params})

    def ping(self, echo=None) -> dict:
        return self.call_op("ping", echo=echo)

    def stats(self) -> dict:
        return self.call_op("stats")

    # -- fleet ops (repro.cluster) ----------------------------------------

    def admit_channel(self, channel_id: int) -> dict:
        """Tell the worker to expect epoch streams on ``channel_id`` (the
        coordinator assigned it); required in strict-channels fleet mode."""
        return self.call_op("admit_channel", channel_id=channel_id)

    def _traced_call(self, name: str, op_params: dict, **span_attrs) -> dict:
        """A plain op under its own ``wire.<op>`` span, the worker's spans
        grafted beneath it."""
        with obs.span(f"wire.{name}", **span_attrs,
                      via=f"{self.host}:{self.port}") as sp:
            result = self.call_op(name, **op_params)
            obs.absorb_remote(result, sp)
        return result

    def send_peer(self, peer: str, peer_host: str, peer_port: int,
                  channel_id: int, roots) -> dict:
        """Ask *this* worker to clone ``roots`` (addresses on its heap)
        straight into another worker — the peer-to-peer shuffle route."""
        return self._traced_call("send_peer", dict(
            peer=peer, peer_host=peer_host, peer_port=peer_port,
            channel_id=channel_id, roots=[int(r) for r in roots],
        ), peer=peer, channel=channel_id)

    def send_blob_peer(self, key: str, peer: str, peer_host: str,
                       peer_port: int) -> dict:
        """Ask this worker to push its stored blob ``key`` to a peer."""
        return self._traced_call("send_blob_peer", dict(
            key=key, peer=peer, peer_host=peer_host, peer_port=peer_port,
        ), peer=peer, key=key)

    # -- streams: STREAM, DATA*, TRAILER ---------------------------------

    def _send_blob(self, key: str, data: bytes) -> dict:
        """One blob stream (the bulk stream, in hand): its frames, then the
        RESULT, whose CRC must match.  A key stores the blob under it."""
        conn = self._require_conn()
        header = frames.StreamHeader(frames.BULK_STREAM, frames.STREAM_BLOB,
                                     key=key)
        with obs.span("wire.put_blob" if key else "wire.send_blob",
                      **({"key": key} if key else {}), bytes=len(data),
                      destination=f"{self.host}:{self.port}") as sp:
            self._send_trace(conn)
            with self.metrics.phase("traverse+send"):
                _write_streams(conn, [(header, data)])
            result = _read_result(conn.recv_frame(), sp)
        if result.get("crc32") != zlib.crc32(data):
            raise TransportError(
                "worker acknowledged a blob with a different CRC"
            )
        return result

    def send_blob(self, data: bytes) -> dict:
        """Ship opaque bytes (the Spark broadcast path) as a blob stream;
        the worker answers size + CRC."""
        return self._send_blob("", data)

    def put_blob(self, key: str, data: bytes) -> dict:
        """Store opaque bytes under ``key`` on the worker (the fleet's
        shuffle-bucket mirror); the worker answers size + CRC."""
        if not key:
            raise ClusterProtocolError("put_blob requires a non-empty key")
        return self._send_blob(key, data)

    def begin_graph(
        self,
        retain: bool = False,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        store_and_forward: bool = False,
        throttle_mbps: Optional[float] = None,
    ) -> "GraphSendStream":
        """Open a graph stream and return a handle the caller drives root
        by root (the building block under :meth:`send_graph`)."""
        conn = self._require_conn()
        self._sync_registry()
        # Each socket send is its own shuffling phase: bumping the sID
        # invalidates baddr words left in driver-heap objects by earlier
        # sends (including aborted ones) — without this, re-sending a
        # graph emits references into a buffer that no longer exists.
        self.runtime.shuffle_start()
        # The wire span stays open for the whole stream: write_object
        # traversal spans nest under it on this thread, pipeline writer
        # spans parent to it explicitly, and the worker's spans graft
        # under it at finish().
        wire_span = obs.start_span(
            "wire.send_graph", destination=f"{self.host}:{self.port}",
        )
        self._send_trace(conn)
        conn.send_frame(frames.STREAM, frames.encode_stream(
            frames.StreamHeader(frames.BULK_STREAM, frames.STREAM_GRAPH,
                                retain=retain)))
        pipeline = ChunkPipeline(
            conn, chunk_bytes=chunk_bytes, queue_chunks=queue_chunks,
            store_and_forward=store_and_forward, throttle_mbps=throttle_mbps,
        )
        out = SkywayObjectOutputStream(
            self.runtime, destination=f"socket:{self.host}:{self.port}",
            transport=pipeline,
        )
        return GraphSendStream(conn, pipeline, out, wire_span)

    def send_graph(
        self,
        roots,
        retain: bool = False,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        queue_chunks: int = DEFAULT_QUEUE_CHUNKS,
        store_and_forward: bool = False,
        throttle_mbps: Optional[float] = None,
    ) -> Tuple[dict, bytes]:
        """Serialize ``roots`` (heap addresses) straight into the chunk
        pipeline and return ``(worker result, framed stream bytes)``.

        The returned bytes are what an in-process ``accept()`` would have
        consumed — callers use them for the byte-identical cross-check.
        """
        stream = self.begin_graph(
            retain=retain, chunk_bytes=chunk_bytes,
            queue_chunks=queue_chunks, store_and_forward=store_and_forward,
            throttle_mbps=throttle_mbps,
        )
        with self.metrics.phase("traverse+send"):
            for root in roots:
                stream.write_object(root)
            return stream.finish()

    # -- epochs: one stream per channel, any number interleaved -----------

    def send_epochs(self, epochs) -> Dict[int, dict]:
        """Ship many already-framed FULL/DELTA epochs concurrently over
        the one connection.

        ``epochs`` is an iterable of ``(channel_id, epoch, frame_bytes)``
        or ``(channel_id, epoch, frame_bytes, digest)`` tuples (``digest``
        defaults to True and rides the stream's opener).  Each epoch is
        one stream whose id is its channel id, interleaved with the others
        by :func:`_write_streams`; one that fits a chunk is a single STREAM
        frame.  The binary RESULT records are drained as they arrive,
        decoded into dicts and matched back to their channel by the
        ``channel_id`` the worker tags them with.

        Each channel may appear at most once per call: the worker allows
        one open stream per id, and results are keyed by channel id —
        ship a channel's successive epochs in successive calls.

        Returns ``{channel_id: {"result": <worker RESULT>,
        "latency_s": <trailer-sent → result-read>}}``.  A per-channel
        failure — above all the ``DeltaStaleError`` NACK — is an
        ``ok=false`` result, returned, not raised: the connection and its
        other channels live, and triage is the caller's.  An ERROR frame
        means the connection is dead and raises immediately.
        """
        streams = []
        expected: set = set()
        traced = obs.enabled()  # then a TRACE frame precedes the batch
        for entry in epochs:
            channel_id, epoch, frame_bytes = entry[:3]
            digest = entry[3] if len(entry) > 3 else True
            if channel_id in expected:
                raise TransportError(
                    f"send_epochs got channel {channel_id} more than once "
                    f"in one call; a channel allows one open stream at a "
                    f"time — ship its epochs in successive calls"
                )
            expected.add(channel_id)
            streams.append((frames.StreamHeader(
                channel_id, frames.STREAM_EPOCH, epoch=epoch,
                frame_kind=frame_bytes[0] if frame_bytes else 0,
                digest=digest, traced=traced), frame_bytes))
        conn = self._require_conn()
        self._sync_registry()

        results: Dict[int, dict] = {}
        sent_at: Dict[int, float] = {}
        with obs.span("wire.send_epoch", channels=len(expected),
                      destination=f"{self.host}:{self.port}") as sp:

            def drain(block: bool = False) -> None:
                """Absorb every RESULT already here; ``block`` waits (up
                to the read timeout) for the first."""
                frame = conn.recv_frame() if block else conn.poll_frame()
                while frame is not None:
                    result = _read_result(frame, sp)
                    channel_id = result.get("channel_id")
                    if channel_id is None:
                        raise TransportClosed("epoch RESULT carries no "
                                              "channel_id; cannot demultiplex")
                    started = sent_at.get(channel_id)
                    results[channel_id] = {"result": result, "latency_s": (
                        time.perf_counter() - started
                        if started is not None else None)}
                    frame = conn.poll_frame()

            def on_flush(done: Optional[int]) -> None:
                # Each trailer is flushed before its clock starts, so the
                # latency counts from when the worker can see the stream.
                if done is not None:
                    sent_at[done] = time.perf_counter()
                drain()

            self._send_trace(conn)
            _write_streams(conn, streams, on_flush=on_flush)
            while expected - set(results):
                drain(block=True)
        return results

    def send_epoch(self, frame_bytes: bytes, channel_id: int,
                   epoch: int, digest: bool = True) -> dict:
        """One epoch, blocking: :meth:`send_epochs` of one, with an
        ``ok=false`` result raised as :class:`RemoteWorkerError` carrying
        the remote kind — a stale receiver's ``DeltaStaleError`` (the
        NACK) above all.  The connection survives either way."""
        outcome = self.send_epochs(
            [(channel_id, epoch, frame_bytes, digest)]
        )[channel_id]
        result = outcome["result"]
        if not result.get("ok", False):
            raise RemoteWorkerError(
                result.get("error_kind", "TransportError"),
                result.get("error", "epoch failed"),
            )
        result.setdefault("latency_s", outcome["latency_s"])
        return result

    def deliver_epoch(self, frame_bytes: bytes, channel_id: int,
                      epoch: int, digest: bool = True) -> dict:
        """:meth:`send_epoch` as a ``DeltaSendChannel.ship`` delivery: the
        NACK comes back as its type, :class:`DeltaStaleError`, which is
        what ``ship`` answers with a forced-FULL resend on this same
        connection.  Every other failure keeps ``send_epoch``'s form."""
        try:
            return self.send_epoch(frame_bytes, channel_id, epoch, digest)
        except RemoteWorkerError as exc:
            if exc.kind != "DeltaStaleError":
                raise
            raise DeltaStaleError(exc.message) from exc


class GraphSendStream:
    """One open graph stream (the connection's bulk stream).

    Drive it with :meth:`write_object` per root, then :meth:`finish` to
    flush the tail and read the worker's RESULT.  Any mid-stream transport
    failure aborts the pipeline and surfaces the worker's ERROR frame if
    one is pending.
    """

    def __init__(
        self,
        conn: FrameConnection,
        pipeline: ChunkPipeline,
        out: SkywayObjectOutputStream,
        wire_span=None,
    ) -> None:
        self._conn = conn
        self._pipeline = pipeline
        self._out = out
        self._done = False
        self._wire_span = wire_span

    def write_object(self, root: int) -> int:
        """Traverse-and-stream one root; returns its stream offset."""
        try:
            return self._out.write_object(root)
        except TransportError as exc:
            self._fail(exc)

    def finish(self) -> Tuple[dict, bytes]:
        """Close the stream and return ``(worker result, framed bytes)``."""
        if self._done:
            raise TransportError("finish() called twice on a graph stream")
        self._done = True
        try:
            try:
                data = self._out.close()
            except TransportError as exc:
                self._fail(exc)
            result = _read_result(self._conn.recv_frame(), self._wire_span)
        except BaseException as exc:  # the span ends on every exit path
            self._end_wire_span(error=type(exc).__name__)
            raise
        self._end_wire_span(stream_bytes=len(data))
        return result, data

    def _end_wire_span(self, **attrs) -> None:
        if self._wire_span is not None:
            self._wire_span.set(**attrs)
            obs.end_span(self._wire_span)
            self._wire_span = None

    def _fail(self, exc: TransportError) -> None:
        self._done = True
        self._end_wire_span(error=type(exc).__name__)
        self._pipeline.abort()
        _fail_stream(self._conn, exc)
