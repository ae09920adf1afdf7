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
2. TRACE, optionally — the sender's trace context.  A CALL or a bulk
   stream consumes it; an epoch opener flagged ``traced`` only reads it,
   so one TRACE covers a batch of epochs.
3. CALL frames carrying a JSON ``{"op": ...}`` control op, answered
   RESULT or ERROR straight away (``_OPS``): ``ping`` (echo),
   ``admit_channel``, ``send_peer``, ``send_blob_peer``, ``stats``
   (runtime + transport + event-loop counters) and ``shutdown``.
4. Streams, any number interleaved on one socket: STREAM opens one (id,
   kind, the kind's fields), DATA chunks feed it, TRAILER completes it,
   every frame tagged by stream id (``_FRAMES``).  The kind picks the
   sink and the answer.  A graph (``recv_graph``) feeds this heap chunk
   by chunk, placement overlapping arrival, and answers root count,
   object/byte tallies and the position-independent
   :func:`~repro.transport.digest.graph_digest` at its trailer —
   ``retain`` false unpins the roots after digesting so repeated
   benchmark sends don't exhaust the heap.  A blob (``recv_blob``, or
   ``put_blob`` when it has a key: the Spark broadcast path, the fleet's
   named shuffle-bucket mirror) answers size and CRC at its trailer.  An
   epoch's stream id is its channel id; one that fits a chunk arrives
   whole in its opener.  It is queued once complete and answered at apply
   time by a binary RESULT tagged with its channel id — possibly out of
   order with other channels, which is the point.  Graphs and blobs use
   stream 0, which no channel may take.
5. BYE ends the connection; the worker keeps accepting new ones (this is
   what lets a driver's retry/backoff recover from a killed connection).

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
op or a graph or blob stream) take the loop's one ERROR frame and close — mid-stream state is
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
from repro.transport.digest import (epoch_digest, graph_digest,
                                    semantic_graph_digest)
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
    #: Fleet mode: refuse epoch streams whose channel id the coordinator
    #: (via ``admit_channel``) never told this worker to expect.  Channel
    #: id 0 is rejected unconditionally, strict or not.
    strict_channels: bool = False


def _check_trailer(what: str, promised: Tuple[int, int, int],
                   received: Tuple[int, int, int]) -> None:
    """The stream-trailer cross-check: ``(total bytes, whole-stream CRC32,
    chunk count)`` as the sender promised them against what actually
    arrived.  A mismatch is protocol-fatal — the bytes already fed cannot
    be trusted."""
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


class _Stream:
    """One open stream on one connection: opened by its STREAM frame, fed
    by DATA frames, completed at its TRAILER.  The sink is the graph's
    :class:`IncrementalStreamDecoder`, or the bytes a blob or an epoch
    reassembles."""

    __slots__ = ("header", "trace", "sink", "total", "crc", "chunks",
                 "error", "started", "enqueued")

    def __init__(self, header: frames.StreamHeader, sink,
                 trace: Optional[Tuple[str, str]]) -> None:
        self.header = header
        self.sink = sink
        self.trace = trace
        self.total = 0
        self.crc = 0
        self.chunks = 0
        #: Opener arrival stamp; ``enqueued`` (the trailer's) minus this is
        #: an epoch's receive duration — the telemetry series straggler
        #: detection reads (a paced wire stretches the chunk arrivals).
        self.started = self.enqueued = time.perf_counter()
        #: Set when an epoch's admission failed at its opener: chunks are
        #: then counted but discarded, and the trailer answers ok=false.
        self.error: Optional[Tuple[str, str]] = None


class _AsyncConn(Connection):
    """A worker connection: the loop's transport state plus one protocol
    state machine."""

    def __init__(self, server: "WorkerServer",
                 sock: socket.socket) -> None:
        super().__init__(server, sock)
        #: The last TRACE frame's context.  A CALL or a bulk stream
        #: consumes it; an epoch opener flagged ``traced`` only reads it, so
        #: one TRACE covers a whole batch of epoch streams.
        self.trace: Optional[Tuple[str, str]] = None
        #: Open streams by stream id.
        self.streams: Dict[int, _Stream] = {}
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
        #: (``admit_channel``); consulted at every epoch opener in strict mode.
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
        return bool(conn.streams) and not conn.paused

    def _on_exit(self) -> None:
        if self.membership is not None:
            self.membership.stop()

    # -- frame state machine -----------------------------------------------

    def _handle_frame(self, conn: _AsyncConn, ftype: int,
                      payload: bytes) -> None:
        handler = self._FRAMES.get(ftype)
        if handler is None:
            raise TransportError(
                f"protocol violation: unexpected {frames.frame_name(ftype)} "
                f"frame"
            )
        handler(self, conn, payload)

    def _record_trace(self, conn: _AsyncConn, payload: bytes) -> None:
        # Record, don't enable: the tracer is process-global and the loop
        # serves many connections, so it is (re-)pointed at a connection's
        # trace only around that connection's own work (:meth:`_answer`) —
        # an op or a bulk stream as it completes, an epoch at apply time.
        # Queued applies from other traced connections keep their own
        # trace ids.
        conn.trace = frames.decode_trace(payload)

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
        if handler is None:
            raise TransportError(f"unknown op {op!r}")
        self.log.debug("serving op %s", op)
        trace, conn.trace = conn.trace, None
        self._answer(conn, op, trace, lambda: handler(self, call))

    @contextlib.contextmanager
    def _adopted(self, trace: Tuple[str, str]):
        """Point the process-global tracer at one connection's trace for
        the duration of that connection's own work (a CALL op, an epoch
        apply), so interleaved work from other traced connections does not
        land under it.  Yields the tracer."""
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
        streaming ones, at apply time for an epoch) and answer its RESULT:
        JSON, or an epoch's binary record.  After a TRACE frame the body
        runs inside a ``worker.<op>`` span and its spans ship back inside
        the RESULT under ``"trace"``."""
        if trace is None:
            result = run()
        else:
            with self._adopted(trace) as tracer:
                mark = tracer.mark()
                with tracer.span(f"worker.{op}", **attrs,
                                 clock=self.runtime.jvm.clock):
                    result = run()
                result["trace"] = tracer.export_payload(tracer.drain(mark))
        encode = (frames.encode_epoch_result if op == "recv_epoch"
                  else frames.encode_json)
        conn.send_frame(frames.RESULT, encode(result))

    # -- streams: open at STREAM, fed by DATA, complete at TRAILER ---------

    def _open_stream(self, conn: _AsyncConn, payload: bytes) -> None:
        header = frames.decode_stream(payload)
        sid, kind = header.stream_id, header.kind
        if sid in conn.streams:
            raise TransportError(
                f"protocol violation: stream {sid} opened again before its "
                f"trailer"
            )
        trace, error = conn.trace, None
        if kind == frames.STREAM_EPOCH:
            sink, error = bytearray(), self._refusal(sid)
            trace = trace if header.traced else None
        elif sid != frames.BULK_STREAM:
            raise TransportError(
                f"protocol violation: a graph or blob stream must use id "
                f"{frames.BULK_STREAM}, not {sid}"
            )
        elif kind == frames.STREAM_GRAPH:
            conn.trace = None
            with self._state_lock:
                sink = IncrementalStreamDecoder(self.runtime)
        else:
            conn.trace, sink = None, bytearray()
        stream = _Stream(header, sink, trace)
        stream.error = error
        if header.inline is None:
            conn.streams[sid] = stream
            return
        # The whole epoch rode in: its DATA and TRAILER are implied.
        stream.chunks, stream.total = 1, len(header.inline)
        if error is None:
            stream.sink = header.inline
            conn.queued_bytes += stream.total
        self._epoch_complete(conn, stream)

    def _stream_of(self, conn: _AsyncConn, sid: int,
                   ftype: int) -> _Stream:
        stream = conn.streams.get(sid)
        if stream is None:
            raise TransportError(
                f"protocol violation: {frames.frame_name(ftype)} for stream "
                f"{sid} with no open stream"
            )
        return stream

    def _on_data(self, conn: _AsyncConn, payload: bytes) -> None:
        sid, chunk = frames.decode_data(payload)
        stream = self._stream_of(conn, sid, frames.DATA)
        stream.chunks += 1
        stream.total += len(chunk)
        stream.crc = zlib.crc32(chunk, stream.crc)
        self.metrics.note_chunk_received()
        if stream.error is not None:
            return
        if stream.header.kind == frames.STREAM_GRAPH:
            with self.metrics.phase("receive"), self._state_lock:
                stream.sink.feed(chunk)
            return
        stream.sink.extend(chunk)
        if stream.header.kind == frames.STREAM_EPOCH:
            conn.queued_bytes += len(chunk)
            self._maybe_pause(conn)

    def _on_trailer(self, conn: _AsyncConn, payload: bytes) -> None:
        sid, total, crc, chunks = frames.decode_trailer(payload)
        stream = self._stream_of(conn, sid, frames.TRAILER)
        del conn.streams[sid]
        # Every trailer is checked, a refused epoch's too: its bytes were
        # discarded, but counted.
        _check_trailer(f"trailer of stream {sid}", (total, crc, chunks),
                       (stream.total, stream.crc, stream.chunks))
        header = stream.header
        if header.kind == frames.STREAM_EPOCH:
            stream.sink = bytes(stream.sink)
            self._epoch_complete(conn, stream)
        else:
            graph = header.kind == frames.STREAM_GRAPH
            op = "recv_graph" if graph else (
                "put_blob" if header.key else "recv_blob")

            def run():
                # Arrival overlapped the loop chunk by chunk, so there is
                # no blocking receive to time: the span marks where it
                # ended.
                with obs.span("recv.receive", clock=self.runtime.jvm.clock,
                              stream_bytes=stream.total, overlapped=True):
                    pass
                if graph:
                    return self._complete_recv_graph(stream)
                return self._complete_blob(op, stream)

            self._answer(conn, op, stream.trace, run)

    def _epoch_complete(self, conn: _AsyncConn, stream: _Stream) -> None:
        """An epoch whose bytes are all here: queued for apply, or — when
        its opener was refused — answered ``ok=false`` now."""
        sid, epoch = stream.header.stream_id, stream.header.epoch
        if stream.error is not None:
            self._answer(conn, "recv_epoch", stream.trace,
                         lambda: self._epoch_failed(sid, epoch,
                                                    *stream.error),
                         channel=sid, epoch=epoch)
            return
        stream.enqueued = time.perf_counter()
        conn.ready.append(stream)
        pending = conn.pending_per_channel[sid] = \
            conn.pending_per_channel.get(sid, 0) + 1
        self._maybe_pause(conn, pending)

    def _complete_recv_graph(self, stream: _Stream) -> dict:
        """Everything after the last chunk: finish placement, digest,
        tally, unpin."""
        retain = stream.header.retain
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

    def _complete_blob(self, op: str, stream: _Stream) -> dict:
        """A blob is opaque bytes (a Java-serializer broadcast payload, a
        shuffle bucket): acknowledged by size and CRC, and stored under
        its key when it has one."""
        key, data = stream.header.key, bytes(stream.sink)
        result = {"op": op, "bytes": len(data), "crc32": zlib.crc32(data)}
        if key:
            with self._state_lock:
                self._blobs[key] = data
            result["key"] = key
        return result

    def _refusal(self, channel_id: int) -> Optional[Tuple[str, str]]:
        """The mis-route guard, checked at an epoch's opener *before* any
        stream byte is buffered, so nothing lands on this heap: a typed
        per-channel rejection beats a silent placement into the wrong
        channel state.  ``None`` admits the stream."""
        if channel_id == 0:
            why = ("channel id 0 is reserved coordinator-wide; an epoch "
                   "stream naming it can only be a corrupted or misrouted "
                   "header")
        elif self.spec.strict_channels and channel_id not in self._admitted:
            why = (f"epoch stream names channel {channel_id}, which the "
                   f"coordinator never admitted on worker "
                   f"{self.spec.name!r}")
        else:
            return None
        return ClusterProtocolError.__name__, why

    _FRAMES = {
        frames.HELLO: _handshake,
        frames.TRACE: _record_trace,
        frames.CALL: _start_call,
        frames.STREAM: _open_stream,
        frames.DATA: _on_data,
        frames.TRAILER: _on_trailer,
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

    def _maybe_pause(self, conn: _AsyncConn, pending: int = 0) -> None:
        """Pause reads over the byte mark or at ``pending``, the count of
        the channel that just queued an epoch (counts only grow there)."""
        if conn.paused or conn.closing or conn.closed:
            return
        if conn.queued_bytes >= HIGH_WATER_BYTES \
                or pending >= MAX_PENDING_EPOCHS:
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
                and max(conn.pending_per_channel.values(), default=0)
                < MAX_PENDING_EPOCHS):
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

    def _apply_one(self, conn: _AsyncConn, item: _Stream) -> None:
        cid, epoch = item.header.stream_id, item.header.epoch
        wait = time.perf_counter() - item.enqueued
        self.queue_waits.append(wait)
        if len(self.queue_waits) > 8192:
            del self.queue_waits[:4096]
        conn.queued_bytes -= item.total
        left = conn.pending_per_channel.get(cid, 1) - 1
        if left > 0:
            conn.pending_per_channel[cid] = left
        else:
            conn.pending_per_channel.pop(cid, None)

        def run() -> dict:
            try:
                result = self._apply_epoch(item)
            except Exception as exc:  # noqa: BLE001 - per-channel blast radius
                return self._epoch_failed(cid, epoch, type(exc).__name__,
                                          str(exc))
            result["ok"] = True
            result["queue_wait_s"] = wait
            self.epochs_applied += 1
            return result

        try:
            self._answer(conn, "recv_epoch", item.trace, run,
                         channel=cid, epoch=epoch, queue_wait_s=wait)
        except TransportError:  # pragma: no cover - oversized result
            self._close_conn(conn)

    def _apply_epoch(self, item: _Stream) -> dict:
        """Apply one reassembled epoch frame: opener cross-check, delta
        endpoint routing (timed as the ``receive`` phase), digest.  The
        frame is parsed once, here; the endpoint applies the parsed form.
        A :class:`DeltaStaleError` propagates to :meth:`_apply_one`, which
        turns it into the NACK the sender reacts to."""
        header = item.header
        announced = (header.stream_id, header.epoch, header.frame_kind)
        apply_started = time.monotonic()
        with self._state_lock:
            with self.metrics.phase("receive"):
                frame = parse_frame(item.sink)
                actual_kind = (FRAME_DELTA if isinstance(frame, DeltaFrame)
                               else FRAME_FULL)
                if (frame.channel_id, frame.epoch, actual_kind) != announced:
                    raise TransportError(
                        "stream opener announced channel %d epoch %d kind "
                        "%#x, frame carries channel %d epoch %d kind %#x"
                        % (*announced, frame.channel_id, frame.epoch,
                           actual_kind))
                endpoint = DeltaReceiveEndpoint.for_runtime(self.runtime)
                roots = endpoint.receive_frame(frame)
            result = {
                "op": "recv_epoch",
                "channel_id": header.stream_id,
                "epoch": header.epoch,
                "kind": "delta" if actual_kind == FRAME_DELTA else "full",
                "roots": len(roots),
                "root_addresses": list(roots),
                "stream_bytes": item.total,
            }
            if header.digest:
                with self.metrics.phase("digest"), obs.span("recv.digest"):
                    result["digest"] = epoch_digest(
                        self.runtime, header.stream_id, roots)
        if self.membership is not None:
            # The telemetry plane's per-epoch observation point.  The
            # receive time covers opener-to-last-chunk *as this worker saw
            # it arrive* — a paced or congested wire stretches it, which is
            # exactly the series the coordinator's straggler rule reads.
            receive_s = item.enqueued - item.started
            reg = obs.registry()
            reg.counter("worker.epochs")
            reg.counter("worker.epoch_bytes", item.total)
            reg.observe("worker.epoch_receive_seconds", receive_s)
            obs.record("epoch", channel=header.stream_id, bytes=item.total,
                       recv_s=round(receive_s, 6),
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
