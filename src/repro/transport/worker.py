"""The Skyway worker: one receiving runtime, served from one event loop.

One worker = one spawned process = one JVM + Skyway runtime, listening on
a loopback TCP port.  :class:`WorkerServer` is the worker's
:class:`~repro.transport.loop.FrameLoop` subclass, as
:class:`~repro.cluster.coordinator.CoordinatorServer` is the
coordinator's: the loop owns sockets (accept, frame codec, outbound
buffers, ERROR-then-close, stall timeouts); this class owns the runtime,
the op tables, the state lock, the frame state machine and backpressure.
Thread-per-connection serving would spend the concurrency budget on OS
threads and lock convoys — at a thousand delta channels, the saturation
wall the managed-server-throughput literature predicts — so there is one
loop and no second thread.  The protocol per connection:

1. HELLO / HELLO_ACK — registry convergence (:mod:`registry_sync`).  A
   driver may re-HELLO on the same connection after loading new classes;
   the worker treats any HELLO as a fresh merge.
2. TRACE, optionally — the sender's trace context.  A CALL consumes it;
   an EPOCH header only reads it, so one TRACE covers a batch of epochs.
3. CALL frames carrying a JSON ``{"op": ...}``, one op in flight per
   connection; a data-bearing op is armed at its CALL, fed by DATA
   chunks and completed at its TRAILER (``_STREAM_OPS``).  Each op
   answers RESULT or ERROR.
4. Between calls, epoch streams: EPOCH + MUX_DATA chunks + MUX_TRAILER,
   tagged by channel id, any number interleaved on one socket.  Each
   completed epoch answers its own RESULT tagged ``channel_id`` —
   possibly out of order with other channels, which is the point.
5. BYE ends the connection; the worker keeps accepting new ones (this is
   what lets a driver's retry/backoff recover from a killed connection).

Ops answered straight from the CALL (``_OPS``): ``ping`` (echo),
``admit_channel``, ``send_peer``, ``send_blob_peer``, ``stats`` (runtime
+ transport + event-loop counters) and ``shutdown``.  Data-bearing ops:
``recv_graph`` receives one Skyway object stream into this heap
(placement overlapping arrival), absolutizes it, and answers root count,
object/byte tallies and the position-independent
:func:`~repro.transport.digest.graph_digest` — ``retain=false`` (default)
unpins the roots after digesting so repeated benchmark sends don't
exhaust the heap; ``recv_blob`` and ``put_blob`` take opaque bytes (the
Spark broadcast path; the fleet's named shuffle-bucket mirror) and
answer size and CRC.

An epoch is not an op: a reassembled FULL/DELTA frame is routed through
the runtime's :class:`~repro.delta.channel.DeltaReceiveEndpoint`.  A
stale delta (worker restarted, state dropped, epoch gap) answers
``ok=false`` naming ``DeltaStaleError`` — the cross-process NACK the
sender's ``DeltaSendChannel.ship`` answers with a forced-FULL resend.
Peer mode (``send_peer``) is the same ``ship`` from this side: the worker
keeps a ``DeltaSendChannel`` per (peer, channel id) and delivers through
its own :class:`~repro.transport.client.WorkerClient`, inline on the loop.

**One way onto the heap.**  Every byte that mutates shared state — heap,
class loader, registry, placement, tallies — goes through the state lock,
taken per *chunk*, so interleaved streams never interleave inside an
object placement; and every RESULT is answered by one body
(:meth:`WorkerServer._answer`), under the sender's trace when a TRACE
frame announced one, its spans shipped back inside the RESULT.

**Bounded queues, real backpressure.**  Completed-but-unapplied epochs sit
in a per-connection ready queue with per-channel pending caps and a byte
high-water mark; crossing either pauses *reads* on that socket (the
selector drops read interest) until the loop drains below half the mark.
A slow worker therefore pushes back through TCP flow control instead of
buffering unboundedly.  One progress guard keeps this deadlock-free: a
paused connection whose ready queue is *empty* (every buffered byte
belongs to still-open streams, which only more reads can complete)
resumes immediately — over the mark, reads throttle to apply progress
rather than stopping outright.

Failure taxonomy: protocol-fatal conditions (CRC mismatch, unknown frame,
trailer total/CRC/count mismatch, unknown op, any failure inside a CALL
op) take the loop's one ERROR frame and close — mid-stream state is
unrecoverable, a fresh connection is not.  A *per-channel* epoch failure
— above all the NACK — is answered as a RESULT with ``ok=false`` naming
the error kind, so one stale channel cannot kill the other thousand
sharing the socket.

Telemetry (:mod:`repro.obs.live`) runs only in fleet mode: a worker whose
membership (:meth:`WorkerServer.attach_membership`, wired by
:mod:`repro.cluster.membership`) heartbeats from the loop's tick keeps a
flight recorder and per-epoch ``worker.*`` series; a worker without one
writes none of them, because nothing would read them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import socket
import threading
import time
import zlib
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core.streams import IncrementalStreamDecoder
from repro.delta.channel import DeltaReceiveEndpoint, DeltaSendChannel
from repro.delta.wire import FRAME_DELTA, FRAME_FULL, DeltaFrame, parse_frame
from repro.transport import frames, registry_sync
from repro.transport.bootstrap import (
    MB,
    ProcessHandle,
    ThreadHost,
    build_runtime,
    serve_reporting_port,
)
from repro.transport.client import WorkerClient
from repro.transport.digest import graph_digest, semantic_graph_digest
from repro.transport.errors import (
    ClusterProtocolError,
    PeerGoneError,
    RemoteWorkerError,
    TransportClosed,
    TransportError,
)
from repro.transport.loop import Connection, FrameLoop

#: Completed epochs a single channel may have waiting in the ready queue
#: before its connection's reads pause.
MAX_PENDING_EPOCHS = 4

#: Byte high-water mark across one connection's open mux streams and
#: ready queue; crossing it pauses reads, draining below half resumes.
HIGH_WATER_BYTES = 4 * 1024 * 1024

#: Epochs applied per loop tick.  Bounding the batch is what makes the
#: backpressure real: arrival can outrun application, so the queues (and
#: then the socket) are where the excess shows up, not the heap.
APPLY_BATCH = 16

#: Longest poll of an idle worker, in seconds: the floor under the
#: heartbeat cadence and under how soon ``shutdown`` takes effect.
TICK = 0.05


@dataclasses.dataclass
class WorkerSpec:
    """Everything a spawned worker needs, in picklable form."""

    name: str
    classpath_factory: str  # "module:function" -> ClassPath
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; actual port reported back over the pipe
    read_timeout: float = 10.0
    young_bytes: int = 4 * MB
    old_bytes: int = 64 * MB
    #: Listen backlog.  The event loop accepts thousands of near-
    #: simultaneous connects (a fan-in opens them in a burst), so the
    #: default is far above ``bind_listener``'s conservative 8.
    listen_backlog: int = 128
    #: Fleet mode: reject EPOCH frames whose channel id the coordinator
    #: (via ``admit_channel``) never told this worker to expect.  Channel
    #: id 0 is rejected unconditionally, strict or not.
    strict_channels: bool = False


def _check_trailer(what: str, promised: Tuple[int, int, int],
                   received: Tuple[int, int, int]) -> None:
    """The stream-trailer cross-check, TRAILER and MUX_TRAILER
    alike: ``(total bytes, whole-stream CRC32, chunk count)`` as the sender
    promised them against what actually arrived.  A mismatch is
    protocol-fatal — the bytes already fed cannot be trusted."""
    (total, crc, chunks), (got_total, got_crc, got_chunks) = promised, received
    if got_total != total:
        raise TransportClosed(
            f"{what} promised {total} stream bytes, received {got_total}"
        )
    if got_chunks != chunks:
        raise TransportClosed(
            f"{what} promised {chunks} chunks, received {got_chunks}"
        )
    if got_crc != crc:
        raise TransportClosed(
            f"whole-stream CRC mismatch: {what} {crc:#010x}, "
            f"received {got_crc:#010x}"
        )


class _BlobSink:
    """A trivial decoder standing in for the stream decoder: a blob is
    opaque bytes (e.g. a Java-serializer broadcast payload) reassembled
    before it is stored or acknowledged."""

    def __init__(self) -> None:
        self.data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self.data.extend(chunk)


class _CallStream:
    """The streaming op in flight on a connection: armed at its CALL, fed
    by DATA frames, completed at its TRAILER."""

    __slots__ = ("op", "call", "sink", "trace", "total", "crc", "chunks")

    def __init__(self, op: str, call: dict, sink,
                 trace: Optional[Tuple[str, str]]) -> None:
        self.op = op
        self.call = call
        self.sink = sink  # IncrementalStreamDecoder or _BlobSink
        self.trace = trace
        self.total = 0
        self.crc = 0
        self.chunks = 0


class _MuxStream:
    """One in-flight multiplexed channel stream on one connection."""

    __slots__ = ("channel_id", "epoch", "kind", "trace", "buf", "crc",
                 "chunks", "error", "started")

    def __init__(self, channel_id: int, epoch: int, kind: int,
                 trace: Optional[Tuple[str, str]]) -> None:
        self.channel_id = channel_id
        self.epoch = epoch
        self.kind = kind
        self.trace = trace
        self.buf = bytearray()
        self.crc = 0
        self.chunks = 0
        #: EPOCH-header arrival stamp; trailer-minus-this is the stream's
        #: receive duration — the telemetry series straggler detection
        #: reads (a paced wire stretches the chunk arrivals in between).
        self.started = time.monotonic()
        #: Set when admission failed at the EPOCH header: chunks are then
        #: counted but discarded, and the trailer answers ok=false.
        self.error: Optional[Tuple[str, str]] = None


class _ReadyEpoch:
    """A reassembled epoch waiting for its turn on the heap."""

    __slots__ = ("channel_id", "epoch", "kind", "trace", "data",
                 "stream_bytes", "digest", "enqueued", "receive_s")

    def __init__(self, stream: _MuxStream, digest: bool) -> None:
        self.channel_id = stream.channel_id
        self.epoch = stream.epoch
        self.kind = stream.kind
        self.trace = stream.trace
        self.data = bytes(stream.buf)
        self.stream_bytes = len(self.data)
        self.digest = digest
        self.enqueued = time.perf_counter()
        self.receive_s = time.monotonic() - stream.started


class _AsyncConn(Connection):
    """A worker connection: the loop's transport state plus one protocol
    state machine."""

    def __init__(self, server: "WorkerServer",
                 sock: socket.socket) -> None:
        super().__init__(server, sock)
        #: The last TRACE frame's context.  A CALL consumes it; an EPOCH
        #: header only reads it, so one TRACE covers a whole batch of
        #: epoch streams.
        self.trace: Optional[Tuple[str, str]] = None
        # per-call (one-op-at-a-time) state; ``stream is None`` = idle
        self.stream: Optional[_CallStream] = None
        # per-channel epoch streams
        self.mux_open: Dict[int, _MuxStream] = {}
        self.ready: deque = deque()
        self.pending_per_channel: Dict[int, int] = {}
        self.queued_bytes = 0


class WorkerServer(FrameLoop):
    """One worker: its runtime and op handlers, served as a
    :class:`FrameLoop` whose tick applies queued epochs and beats the
    coordinator."""

    connection_cls = _AsyncConn

    def __init__(self, spec: WorkerSpec) -> None:
        # Structured, attributable diagnostics: one logger per worker id,
        # level picked up from REPRO_LOG_LEVEL as the process starts.
        super().__init__(logging.getLogger(f"repro.worker.{spec.name}"),
                         tick=TICK, read_timeout=spec.read_timeout)
        self.spec = spec
        self.runtime = build_runtime(
            spec.name, spec.classpath_factory,
            young_bytes=spec.young_bytes, old_bytes=spec.old_bytes,
        )
        self.graphs_received = 0
        #: One lock guards every mutation of shared runtime state (heap,
        #: loader, registry, placement, tallies), taken per chunk, so
        #: streams interleave without interleaving *inside* an object
        #: placement.  The loop is the only thread that serves; the lock
        #: is what lets an in-thread host's caller reach the heap too.
        self._state_lock = threading.Lock()
        #: Channel ids the coordinator admitted on this worker
        #: (``admit_channel``); consulted at every EPOCH header in strict mode.
        self._admitted: Set[int] = set()
        #: Named blob store (``put_blob`` / ``send_blob_peer``): the
        #: fleet's shuffle-bucket mirror.
        self._blobs: Dict[str, bytes] = {}
        #: Peer mode: cached connections and epoch channels *to* other
        #: workers, keyed so a coordinator re-assignment (fresh channel id
        #: after a peer restart) naturally opens a fresh channel.
        self._peer_clients: Dict[Tuple[str, str, int], WorkerClient] = {}
        self._peer_channels: Dict[Tuple[str, int], DeltaSendChannel] = {}
        self.peer_sends = 0
        #: Fleet mode's ``WorkerMembership`` (:meth:`attach_membership`);
        #: ``None`` for a worker outside a fleet.
        self.membership = None
        self._next_beat: Optional[float] = None
        #: Test hook: ``False`` parks the ready queues (reads still run
        #: until the high-water mark pauses them) — how the slow-reader
        #: test proves the queue is bounded.
        self.processing_enabled = True
        self._rr = 0  # round-robin cursor over connections
        self.epochs_applied = 0
        self.epoch_failures = 0
        self.reads_paused_total = 0
        self.queue_waits: List[float] = []

    def attach_membership(self, membership) -> None:
        """Adopt a registered
        :class:`~repro.cluster.membership.WorkerMembership`: the loop beats
        it on the jittered cadence, deregisters it on exit, and feeds the
        telemetry plane its heartbeats carry.  Reconnect budgets are
        tightened — a dead coordinator may cost one beat a short stall,
        never a long one."""
        membership.connect_attempts = 1
        membership.connect_timeout = 0.5
        self.membership = membership
        self._next_beat = time.monotonic() + membership.next_wait()

    # -- the loop's hooks --------------------------------------------------

    def _poll_timeout(self) -> float:
        if self.processing_enabled and any(c.ready for c in self._conns):
            return 0.0
        if self._next_beat is None:
            return self.tick
        return min(self.tick, max(0.0, self._next_beat - time.monotonic()))

    def _tick(self) -> None:
        self._process_ready()
        if self._next_beat is not None \
                and time.monotonic() >= self._next_beat:
            self.membership.beat_once()
            self._next_beat = time.monotonic() + self.membership.next_wait()

    def _mid_op(self, conn: _AsyncConn) -> bool:
        return (conn.stream is not None or bool(conn.mux_open)) \
            and not conn.paused

    def _on_exit(self) -> None:
        if self.membership is not None:
            self.membership.stop()

    # -- frame state machine -----------------------------------------------

    def _handle_frame(self, conn: _AsyncConn, ftype: int,
                      payload: bytes) -> None:
        if ftype == frames.HELLO:
            self._handshake(conn, payload)
            return
        if ftype == frames.TRACE:
            # Record, don't enable: the tracer is process-global and the
            # loop serves many connections, so it is (re-)pointed at a
            # connection's trace only around that connection's own work
            # (:meth:`_answer`) — a CALL at op time, an epoch at apply
            # time.  Queued applies from other traced connections keep
            # their own trace ids.
            conn.trace = frames.decode_trace(payload)
            return
        if conn.stream is not None:
            self._on_stream_frame(conn, conn.stream, ftype, payload)
            return
        # between calls: a fresh CALL, or a frame of an epoch stream
        handler = self._IDLE_FRAMES.get(ftype)
        if handler is None:
            raise TransportError(
                f"protocol violation: unexpected {frames.frame_name(ftype)} "
                f"frame between calls"
            )
        handler(self, conn, payload)

    def _handshake(self, conn: _AsyncConn, payload: bytes) -> None:
        version, peer, driver_map = frames.decode_hello(payload)
        if version != frames.PROTOCOL_VERSION:
            raise TransportError(
                f"protocol version mismatch: peer {peer!r} speaks "
                f"v{version}, this worker v{frames.PROTOCOL_VERSION}"
            )
        with self._state_lock:
            extras = registry_sync.extra_names(
                self.runtime.view.snapshot(), driver_map
            )
            conn.send_frame(
                frames.HELLO_ACK,
                frames.encode_hello_ack(self.spec.name, extras),
            )
            merged = registry_sync.merge_registries(driver_map, extras)
            registry_sync.install_merged(self.runtime, merged)
        self.log.info(
            "handshake with %s: %d driver classes, %d worker extras",
            peer, len(driver_map), len(extras),
        )

    def _start_call(self, conn: _AsyncConn, payload: bytes) -> None:
        call = frames.decode_json(payload, what="CALL")
        op = call.get("op")
        handler = self._OPS.get(op)
        stream_op = self._STREAM_OPS.get(op)
        if handler is None and stream_op is None:
            raise TransportError(f"unknown op {op!r}")
        self.log.debug("serving op %s", op)
        trace, conn.trace = conn.trace, None
        if handler is not None:
            self._answer(conn, op, trace, lambda: handler(self, call))
            return
        # streaming op: arm the sink now, complete at the TRAILER
        make_sink, _complete = stream_op
        conn.stream = _CallStream(op, call, make_sink(self, call), trace)

    @contextlib.contextmanager
    def _adopted(self, trace: Optional[Tuple[str, str]]):
        """Point the process-global tracer at one connection's trace for
        the duration of that connection's own work (a CALL op, an epoch
        apply), so interleaved work from other traced connections does not
        land under it.  Yields the tracer, or ``None`` when the connection
        sent no TRACE."""
        if trace is None:
            yield None
            return
        trace_id, parent_span = trace
        tracer = obs.enable(process=f"worker:{self.spec.name}",
                            trace_id=trace_id or None)
        tracer.adopt_remote(parent_span or None)
        try:
            yield tracer
        finally:
            tracer.clear_remote()

    def _answer(self, conn: _AsyncConn, op: str,
                trace: Optional[Tuple[str, str]], run, **attrs) -> None:
        """Run an op body (immediately for plain CALLs, at the TRAILER for
        streaming ones, at apply time for an epoch) and answer its RESULT.
        After a TRACE frame the body runs inside a ``worker.<op>`` span
        and its spans ship back inside the RESULT under ``"trace"``."""
        with self._adopted(trace) as tracer:
            if tracer is None:
                result = run()
            else:
                mark = tracer.mark()
                with tracer.span(f"worker.{op}", **attrs,
                                 clock=self.runtime.jvm.clock):
                    result = run()
                result["trace"] = tracer.export_payload(tracer.drain(mark))
        conn.send_frame(frames.RESULT, frames.encode_json(result))

    def _on_stream_frame(self, conn: _AsyncConn, stream: _CallStream,
                         ftype: int, payload: bytes) -> None:
        if ftype == frames.DATA:
            stream.chunks += 1
            stream.total += len(payload)
            stream.crc = zlib.crc32(payload, stream.crc)
            self.metrics.note_chunk_received()
            with self.metrics.phase("receive"), self._state_lock:
                stream.sink.feed(payload)
            return
        if ftype != frames.TRAILER:
            raise TransportError(
                f"protocol violation: expected DATA/TRAILER mid-stream, "
                f"peer sent {frames.frame_name(ftype)}"
            )
        _check_trailer("trailer", frames.decode_trailer(payload),
                       (stream.total, stream.crc, stream.chunks))
        conn.stream = None
        _make_sink, complete = self._STREAM_OPS[stream.op]

        def run():
            # Arrival overlapped the loop chunk by chunk, so there is no
            # blocking receive to time: the span marks where it ended.
            with obs.span("recv.receive", clock=self.runtime.jvm.clock,
                          stream_bytes=stream.total, overlapped=True):
                pass
            return complete(self, stream)

        self._answer(conn, stream.op, stream.trace, run)

    # -- streaming ops: make the sink at the CALL, complete at the TRAILER --

    def _graph_decoder(self, call: dict) -> IncrementalStreamDecoder:
        with self._state_lock:
            return IncrementalStreamDecoder(self.runtime)

    def _blob_sink(self, call: dict) -> _BlobSink:
        return _BlobSink()

    def _keyed_blob_sink(self, call: dict) -> _BlobSink:
        if not call.get("key"):
            raise ClusterProtocolError("put_blob requires a non-empty key")
        return _BlobSink()

    def _complete_recv_graph(self, stream: _CallStream) -> dict:
        """Everything after the last chunk: finish placement, digest,
        tally, unpin."""
        retain = bool(stream.call.get("retain", False))
        with self._state_lock:
            roots = stream.sink.finish()
            receiver = stream.sink.receiver
            token = self.runtime.track_input_buffer(receiver, roots)
            with self.metrics.phase("digest"), obs.span("recv.digest"):
                digest = graph_digest(self.runtime.jvm, receiver)
            result = {
                "op": "recv_graph",
                "roots": len(roots),
                "objects": receiver.objects_received,
                "logical_bytes": receiver.buffer.logical_size,
                "stream_bytes": stream.total,
                "digest": digest,
                "retained": retain,
            }
            self.graphs_received += 1
            if not retain:
                # unpin roots; GC reclaims on future pressure
                self.runtime.free_input_buffer(token)
        return result

    def _complete_recv_blob(self, stream: _CallStream) -> dict:
        data = bytes(stream.sink.data)
        return {"op": "recv_blob", "bytes": len(data),
                "crc32": zlib.crc32(data)}

    def _complete_put_blob(self, stream: _CallStream) -> dict:
        key, data = stream.call.get("key"), bytes(stream.sink.data)
        with self._state_lock:
            self._blobs[key] = data
        return {"op": "put_blob", "key": key, "bytes": len(data),
                "crc32": zlib.crc32(data)}

    _STREAM_OPS = {
        "recv_graph": (_graph_decoder, _complete_recv_graph),
        "recv_blob": (_blob_sink, _complete_recv_blob),
        "put_blob": (_keyed_blob_sink, _complete_put_blob),
    }

    # -- epoch streams: open at the EPOCH, ready at the MUX_TRAILER --------

    def _refusal(self, channel_id: int) -> Optional[Tuple[str, str]]:
        """The mis-route guard, checked at the EPOCH header *before* any
        stream byte is buffered, so nothing lands on this heap: a typed
        per-channel rejection beats a silent placement into the wrong
        channel state.  ``None`` admits the stream."""
        if channel_id == 0:
            why = ("channel id 0 is reserved coordinator-wide; an EPOCH "
                   "frame naming it can only be a corrupted or misrouted "
                   "header")
        elif self.spec.strict_channels and channel_id not in self._admitted:
            why = (f"EPOCH frame names channel {channel_id}, which the "
                   f"coordinator never admitted on worker "
                   f"{self.spec.name!r}")
        else:
            return None
        return ClusterProtocolError.__name__, why

    def _mux_open(self, conn: _AsyncConn, payload: bytes) -> None:
        channel_id, epoch, kind = frames.decode_epoch_header(payload)
        if channel_id in conn.mux_open:
            raise TransportError(
                f"protocol violation: channel {channel_id} opened a second "
                f"mux stream before its trailer"
            )
        stream = _MuxStream(channel_id, epoch, kind, conn.trace)
        stream.error = self._refusal(channel_id)
        conn.mux_open[channel_id] = stream

    def _mux_data(self, conn: _AsyncConn, payload: bytes) -> None:
        channel_id, chunk = frames.decode_mux_data(payload)
        stream = conn.mux_open.get(channel_id)
        if stream is None:
            raise TransportError(
                f"protocol violation: MUX_DATA for channel {channel_id} "
                f"with no open stream"
            )
        stream.chunks += 1
        stream.crc = zlib.crc32(chunk, stream.crc)
        self.metrics.note_chunk_received()
        if stream.error is None:
            stream.buf.extend(chunk)
            conn.queued_bytes += len(chunk)
            self._maybe_pause(conn)

    def _mux_trailer(self, conn: _AsyncConn, payload: bytes) -> None:
        channel_id, total, crc, chunks, digest = \
            frames.decode_mux_trailer(payload)
        stream = conn.mux_open.get(channel_id)
        if stream is None:
            raise TransportError(
                f"protocol violation: MUX_TRAILER for channel "
                f"{channel_id} with no open stream"
            )
        del conn.mux_open[channel_id]
        if stream.error is not None:
            self._answer(conn, "recv_epoch", stream.trace,
                         lambda: self._epoch_failed(
                             channel_id, stream.epoch, *stream.error),
                         channel=channel_id, epoch=stream.epoch)
            return
        _check_trailer(f"mux trailer for channel {channel_id}",
                       (total, crc, chunks),
                       (len(stream.buf), stream.crc, stream.chunks))
        conn.ready.append(_ReadyEpoch(stream, digest))
        conn.pending_per_channel[channel_id] = \
            conn.pending_per_channel.get(channel_id, 0) + 1
        self._maybe_pause(conn)

    #: What a connection with no CALL op in flight may receive.
    _IDLE_FRAMES = {
        frames.CALL: _start_call,
        frames.EPOCH: _mux_open,
        frames.MUX_DATA: _mux_data,
        frames.MUX_TRAILER: _mux_trailer,
    }

    def _epoch_failed(self, channel_id: int, epoch: int, kind: str,
                      message: str) -> dict:
        """A per-channel failure (DeltaStaleError above all): counted,
        flight-recorded — the next heartbeat ships it to the coordinator —
        and answered ``ok=false`` so the connection's other channels live."""
        self.epoch_failures += 1
        obs.record("error", error=kind, channel=channel_id, epoch=epoch,
                   detail=message[:200])
        return {"op": "recv_epoch", "ok": False, "channel_id": channel_id,
                "epoch": epoch, "error_kind": kind, "error": message}

    def _over_pending_cap(self, conn: _AsyncConn) -> bool:
        pending = conn.pending_per_channel
        return bool(pending) and max(pending.values()) >= MAX_PENDING_EPOCHS

    def _maybe_pause(self, conn: _AsyncConn) -> None:
        if conn.paused or conn.closing or conn.closed:
            return
        if conn.queued_bytes >= HIGH_WATER_BYTES \
                or self._over_pending_cap(conn):
            conn.paused = True
            self.reads_paused_total += 1
            self._update_interest(conn)

    def _maybe_resume(self, conn: _AsyncConn) -> None:
        if not conn.paused or conn.closed:
            return
        # With an empty ready queue every buffered byte belongs to a
        # still-open stream: the applier has nothing to drain, so only
        # more reads can make progress — staying paused would deadlock the
        # connection.  Resume; the next trailer completed over the mark
        # re-pauses immediately, so reads throttle to apply progress
        # instead of stopping outright.
        if not conn.ready or (
                conn.queued_bytes <= HIGH_WATER_BYTES // 2
                and not self._over_pending_cap(conn)):
            conn.paused = False
            self._update_interest(conn)

    def _process_ready(self) -> None:
        """Apply up to ``APPLY_BATCH`` queued epochs, round-robin across
        connections.  This is the only place epoch bytes touch the heap."""
        if not self.processing_enabled or not self._conns:
            return
        budget = APPLY_BATCH
        n = len(self._conns)
        for i in range(n):
            conn = self._conns[(self._rr + i) % n]
            while budget > 0 and conn.ready and not conn.closed:
                self._apply_one(conn, conn.ready.popleft())
                budget -= 1
            self._maybe_resume(conn)
            if budget == 0:
                break
        self._rr = (self._rr + 1) % max(1, len(self._conns))

    def _apply_one(self, conn: _AsyncConn, item: _ReadyEpoch) -> None:
        wait = time.perf_counter() - item.enqueued
        self.queue_waits.append(wait)
        if len(self.queue_waits) > 8192:
            del self.queue_waits[:4096]
        conn.queued_bytes -= item.stream_bytes
        left = conn.pending_per_channel.get(item.channel_id, 1) - 1
        if left > 0:
            conn.pending_per_channel[item.channel_id] = left
        else:
            conn.pending_per_channel.pop(item.channel_id, None)

        def run() -> dict:
            try:
                result = self._apply_epoch(item)
            except Exception as exc:  # noqa: BLE001 - per-channel blast radius
                return self._epoch_failed(item.channel_id, item.epoch,
                                          type(exc).__name__, str(exc))
            result["ok"] = True
            result["queue_wait_s"] = wait
            self.epochs_applied += 1
            return result

        try:
            self._answer(conn, "recv_epoch", item.trace, run,
                         channel=item.channel_id, epoch=item.epoch,
                         queue_wait_s=wait)
        except TransportError:  # pragma: no cover - oversized result
            self._close_conn(conn)

    def _apply_epoch(self, item: _ReadyEpoch) -> dict:
        """Apply one reassembled epoch frame: header cross-check, delta
        endpoint routing (timed as the ``receive`` phase), digest.  The
        frame is parsed once, here; the endpoint applies the parsed form.
        A :class:`DeltaStaleError` propagates to :meth:`_apply_one`, which
        turns it into the NACK the sender reacts to."""
        apply_started = time.monotonic()
        with self._state_lock:
            with self.metrics.phase("receive"):
                frame = parse_frame(item.data)
                actual_kind = (FRAME_DELTA if isinstance(frame, DeltaFrame)
                               else FRAME_FULL)
                if (frame.channel_id, frame.epoch, actual_kind) \
                        != (item.channel_id, item.epoch, item.kind):
                    raise TransportError(
                        f"EPOCH header announced channel {item.channel_id} "
                        f"epoch {item.epoch} kind {item.kind:#x}, frame "
                        f"carries channel {frame.channel_id} epoch "
                        f"{frame.epoch} kind {actual_kind:#x}"
                    )
                endpoint = DeltaReceiveEndpoint.for_runtime(self.runtime)
                roots = endpoint.receive_frame(frame)
            result = {
                "op": "recv_epoch",
                "channel_id": item.channel_id,
                "epoch": item.epoch,
                "kind": "delta" if actual_kind == FRAME_DELTA else "full",
                "roots": len(roots),
                "root_addresses": list(roots),
                "stream_bytes": item.stream_bytes,
            }
            if item.digest:
                with self.metrics.phase("digest"), obs.span("recv.digest"):
                    result["digest"] = semantic_graph_digest(
                        self.runtime.jvm, roots
                    )
        if self.membership is not None:
            # The telemetry plane's per-epoch observation point.  The
            # receive time covers EPOCH-header-to-last-chunk *as this
            # worker saw it arrive* — a paced or congested wire stretches
            # it, which is exactly the series the coordinator's straggler
            # rule reads.
            reg = obs.registry()
            reg.counter("worker.epochs")
            reg.counter("worker.epoch_bytes", item.stream_bytes)
            reg.observe("worker.epoch_receive_seconds", item.receive_s)
            obs.record("epoch", channel=item.channel_id,
                       bytes=item.stream_bytes,
                       recv_s=round(item.receive_s, 6),
                       apply_s=round(time.monotonic() - apply_started, 6))
        return result

    # -- ops answered from the CALL ----------------------------------------

    def _op_ping(self, call: dict) -> dict:
        return {"op": "ping", "echo": call.get("echo"),
                "worker": self.spec.name}

    def _op_admit_channel(self, call: dict) -> dict:
        channel_id = int(call.get("channel_id", 0))
        if channel_id == 0:
            raise ClusterProtocolError(
                "cannot admit channel id 0: it is reserved coordinator-wide"
            )
        with self._state_lock:
            self._admitted.add(channel_id)
        return {"op": "admit_channel", "channel_id": channel_id,
                "admitted": len(self._admitted)}

    def _peer_client(self, peer: str, host: str, port: int) -> WorkerClient:
        """A cached connection to another fleet worker (peer mode).  A
        peer that cannot be reached surfaces as :class:`PeerGoneError` —
        the typed signal the fleet reports to the coordinator."""
        key = (peer, host, port)
        client = self._peer_clients.get(key)
        if client is None:
            try:
                client = WorkerClient(
                    self.runtime, host, port,
                    node_name=self.spec.name,
                    connect_attempts=3,
                    read_timeout=self.spec.read_timeout,
                ).connect()
            except TransportError as exc:
                raise PeerGoneError(
                    peer, f"cannot connect for a peer send: {exc}"
                ) from exc
            self._peer_clients[key] = client
        return client

    def _drop_peer(self, peer: str) -> None:
        """Forget every cached connection/channel to a failed peer; the
        next send (after the coordinator hands out a fresh placement)
        starts from scratch."""
        for key in [k for k in self._peer_clients if k[0] == peer]:
            client = self._peer_clients.pop(key)
            try:
                client.close()
            except OSError:  # the socket's own close; the BYE is absorbed
                pass
        for key in [k for k in self._peer_channels if k[0] == peer]:
            self._peer_channels.pop(key).close()

    def _op_send_blob_peer(self, call: dict) -> dict:
        key = call.get("key")
        peer = call.get("peer", "?")
        with self._state_lock:
            data = self._blobs.get(key)
        if data is None:
            raise ClusterProtocolError(
                f"worker {self.spec.name!r} holds no blob under key {key!r}"
            )
        with obs.span("cluster.peer_blob", peer=peer, key=key,
                      bytes=len(data)):
            client = self._peer_client(
                peer, call.get("peer_host", "127.0.0.1"),
                int(call.get("peer_port", 0)),
            )
            try:
                result = client.send_blob(data)
            except TransportError as exc:
                self._drop_peer(peer)
                raise PeerGoneError(
                    peer, f"peer blob push failed: {exc}"
                ) from exc
        self.peer_sends += 1
        return {"op": "send_blob_peer", "key": key, "peer": peer,
                "bytes": len(data), "crc32": result["crc32"]}

    def _op_send_peer(self, call: dict) -> dict:
        """Peer mode: clone a graph rooted on *this* heap straight into
        another worker — the shuffle route that never bounces through the
        driver.  The state lock is held across the whole
        :meth:`~repro.delta.channel.DeltaSendChannel.ship` (digest,
        framing, wire, and a NACK's reframe): the loop is this worker's
        only thread, so there is nothing to let in between."""
        peer = call.get("peer", "?")
        host = call.get("peer_host", "127.0.0.1")
        port = int(call.get("peer_port", 0))
        channel_id = int(call.get("channel_id", 0))
        roots = [int(r) for r in call.get("roots", [])]
        if channel_id == 0:
            raise ClusterProtocolError(
                "send_peer requires a coordinator-assigned channel id"
            )
        if not roots:
            raise ClusterProtocolError(
                "send_peer requires at least one root"
            )
        with obs.span("cluster.peer_send", peer=peer, channel=channel_id,
                      roots=len(roots)) as sp:
            client = self._peer_client(peer, host, port)
            with self._state_lock:
                chan_key = (peer, channel_id)
                channel = self._peer_channels.get(chan_key)
                if channel is None:
                    channel = DeltaSendChannel(
                        self.runtime, destination=f"peer:{peer}",
                        channel_id=channel_id,
                    )
                    self._peer_channels[chan_key] = channel
                with self.metrics.phase("digest"), obs.span("recv.digest"):
                    sender_digest = semantic_graph_digest(
                        self.runtime.jvm, roots
                    )
                try:
                    # A peer that dropped its channel state (restart, full
                    # GC) NACKs; same recovery as the driver-side channel.
                    result, shipped = channel.ship(
                        roots, lambda frame: client.deliver_epoch(
                            frame, channel.channel_id, channel.epoch))
                except RemoteWorkerError:
                    raise  # the peer spoke: a typed op failure, not death
                except TransportError as exc:
                    self._drop_peer(peer)
                    raise PeerGoneError(
                        peer, f"peer send failed mid-transfer: {exc}"
                    ) from exc
            frame, nack = shipped[-1], len(shipped) > 1
            mode = channel.last_plan.mode
            sp.set(mode=mode, epoch=channel.epoch, nack=nack)
        self.peer_sends += 1
        return {
            "op": "send_peer",
            "peer": peer,
            "channel_id": channel.channel_id,
            "epoch": channel.epoch,
            "mode": mode,
            "wire_bytes": len(frame),
            "roots": result.get("roots", 0),
            "sender_digest": sender_digest,
            "digest": result.get("digest"),
            "digest_match": result.get("digest") == sender_digest,
            "nack_recovered": nack,
        }

    def _op_stats(self, call: dict) -> dict:
        waits = sorted(self.queue_waits)
        loop = {
            "conns_accepted": self.conns_accepted,
            "conns_open": len(self._conns),
            "epochs_applied": self.epochs_applied,
            "epoch_failures": self.epoch_failures,
            "reads_paused_total": self.reads_paused_total,
            "queue_wait_samples": len(waits),
        }
        if waits:
            loop["queue_wait_p50_s"] = waits[len(waits) // 2]
            loop["queue_wait_p99_s"] = waits[min(len(waits) - 1,
                                                 int(len(waits) * 0.99))]
        return {
            "op": "stats",
            "worker": self.spec.name,
            "graphs_received": self.graphs_received,
            "peer_sends": self.peer_sends,
            "blobs_stored": len(self._blobs),
            "channels_admitted": len(self._admitted),
            "generation": getattr(self.membership, "generation", 0),
            "telemetry_sent": getattr(self.membership, "telemetry_sent", 0),
            "runtime": {
                k: v for k, v in self.runtime.stats().items()
                if isinstance(v, (int, str, bool))
            },
            "transport": self.metrics.as_dict(),
            "aserve": loop,
        }

    def _op_shutdown(self, call: dict) -> dict:
        self.shutdown()
        return {"op": "shutdown", "ok": True}

    _OPS = {
        "ping": _op_ping,
        "admit_channel": _op_admit_channel,
        "send_blob_peer": _op_send_blob_peer,
        "send_peer": _op_send_peer,
        "stats": _op_stats,
        "shutdown": _op_shutdown,
    }


def worker_main(spec: WorkerSpec, port_pipe) -> None:
    """Entry point of the spawned process: bind, report the port through
    ``port_pipe``, then serve every connection from the one event loop
    until shutdown."""
    serve_reporting_port(port_pipe, spec.host, spec.port,
                         lambda _port: WorkerServer(spec),
                         backlog=spec.listen_backlog)


class WorkerHandle(ProcessHandle):
    """A spawned worker process and the port it listens on."""

    kind = "worker"
    main = staticmethod(worker_main)


class LocalAsyncWorker(ThreadHost):
    """An in-process worker for tests (see :class:`ThreadHost`);
    ``start()`` or ``with`` begins serving."""

    def __init__(self, spec: WorkerSpec) -> None:
        super().__init__(WorkerServer(spec), f"worker-{spec.name}",
                         spec.host, spec.port, backlog=spec.listen_backlog)
