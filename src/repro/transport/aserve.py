"""The worker's server: one event loop, thousands of channels.

Thread-per-connection serving spends its concurrency budget on OS threads
and its cycles on lock convoys — at a thousand delta channels it is the
saturation wall the managed-server-throughput literature predicts.  Every
worker connection is therefore served from the one ``selectors`` loop of
:mod:`repro.transport.loop` (sockets, frame codec, outbound buffers,
ERROR-then-close, stall timeouts); this module is the worker's half — what
a frame *means*:

* **Per-connection → per-channel state machine.**  The per-call protocol
  (HELLO → TRACE? → CALL → DATA*/TRAILER → RESULT) runs one op in flight
  per connection; a streaming op (graph, blob) is armed at its CALL and
  completed at its TRAILER through one table (``_STREAM_OPS``).  Epochs
  have no CALL: an EPOCH frame arriving between calls opens a per-channel
  stream, ``MUX_DATA`` frames (channel id + chunk) interleave freely
  across channels on one socket, and ``MUX_TRAILER`` completes a channel's
  stream.  Each completed epoch answers its own RESULT tagged
  ``channel_id`` — possibly out of order with other channels, which is
  the point.

* **Bounded queues, real backpressure.**  Completed-but-unapplied epochs
  sit in a per-connection ready queue with per-channel pending caps and a
  byte high-water mark; crossing either pauses *reads* on that socket
  (the selector drops read interest) until the loop drains below the
  low-water mark.  A slow worker therefore pushes back through TCP flow
  control instead of buffering unboundedly.  One progress guard keeps
  this deadlock-free: a paused connection whose ready queue is *empty*
  (every buffered byte belongs to still-open interleaved streams, which
  only more reads can complete) resumes immediately — over the mark,
  reads throttle to apply progress rather than stopping outright.

* **One way onto the heap.**  Every byte that mutates the heap goes
  through the ``WorkerServer.complete_*`` methods under the state lock,
  and every RESULT is answered by one body (:meth:`_answer`): under the
  sender's trace when a TRACE frame announced one, its spans shipped back
  inside the RESULT.

* **One process, one loop.**  The cluster heartbeat
  (:meth:`WorkerMembership.beat_once`) fires from the loop's tick on the
  jittered cadence, and peer-mode ops (``send_peer``, blob routing) run on
  the loop like any other op: their payloads are in hand, so the client
  writes them inline — a fleet worker has no second thread.

Failure taxonomy: protocol-fatal conditions (CRC mismatch, unknown frame,
trailer total/CRC/count mismatch, unknown op, any failure inside a CALL
op) take the loop's one ERROR frame and close.  A *per-channel* epoch
failure — above all :class:`DeltaStaleError`, the NACK — is answered as a
RESULT with ``ok=false`` naming the error kind, so one stale channel
cannot kill the other thousand sharing the socket.
"""

from __future__ import annotations

import contextlib
import socket
import time
import zlib
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.transport import frames
from repro.transport.bootstrap import ThreadHost
from repro.transport.errors import (
    ClusterProtocolError,
    TransportClosed,
    TransportError,
)
from repro.transport.loop import Connection, FrameLoop
from repro.transport.worker import WorkerServer, WorkerSpec, _BlobSink

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

    def __init__(self, server: "AsyncWorkerServer",
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


class AsyncWorkerServer(FrameLoop):
    """The worker's frame state machine around a :class:`WorkerServer` core.

    The core owns the runtime, metrics, op handlers, and the state lock;
    :class:`FrameLoop` owns sockets; this class owns scheduling and
    backpressure.  Everything that touches the heap funnels through the
    core's ``complete_*`` methods.
    """

    connection_cls = _AsyncConn

    def __init__(
        self,
        core: WorkerServer,
        high_water_bytes: int = HIGH_WATER_BYTES,
        tick: float = 0.05,
    ) -> None:
        super().__init__(core.log, metrics=core.metrics, tick=tick,
                         read_timeout=core.spec.read_timeout)
        self.core = core
        self.high_water_bytes = high_water_bytes
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
        core.loop = self  # ``stats`` reads it, ``shutdown`` stops it

    def attach_membership(self, membership) -> None:
        """Adopt a registered :class:`WorkerMembership`: the loop beats it
        on the jittered cadence and deregisters it on exit.  Reconnect
        budgets are tightened — a dead coordinator may cost one beat a
        short stall, never a long one."""
        membership.connect_attempts = 1
        membership.connect_timeout = 0.5
        self.membership = membership
        self._next_beat = time.monotonic() + membership.next_wait()

    def stats_snapshot(self) -> dict:
        waits = sorted(self.queue_waits)
        snap = {
            "conns_accepted": self.conns_accepted,
            "conns_open": len(self._conns),
            "epochs_applied": self.epochs_applied,
            "epoch_failures": self.epoch_failures,
            "reads_paused_total": self.reads_paused_total,
            "queue_wait_samples": len(waits),
        }
        if waits:
            snap["queue_wait_p50_s"] = waits[len(waits) // 2]
            snap["queue_wait_p99_s"] = waits[min(len(waits) - 1,
                                                 int(len(waits) * 0.99))]
        return snap

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
            self.core._handshake(conn, payload)
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

    def _start_call(self, conn: _AsyncConn, payload: bytes) -> None:
        call = frames.decode_json(payload, what="CALL")
        op = call.get("op")
        handler = self.core._OPS.get(op)
        stream_op = self._STREAM_OPS.get(op)
        if handler is None and stream_op is None:
            raise TransportError(f"unknown op {op!r}")
        self.log.debug("serving op %s", op)
        trace, conn.trace = conn.trace, None
        if handler is not None:
            self._answer(conn, op, trace, lambda: handler(self.core, call))
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
        tracer = obs.enable(process=f"worker:{self.core.spec.name}",
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
                                 clock=self.core.runtime.jvm.clock):
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
            with self.metrics.phase("receive"), self.core._state_lock:
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
            with obs.span("recv.receive", clock=self.core.runtime.jvm.clock,
                          stream_bytes=stream.total, overlapped=True):
                pass
            return complete(self, stream)

        self._answer(conn, stream.op, stream.trace, run)

    # -- streaming ops: make the sink at the CALL, complete at the TRAILER --

    def _graph_sink(self, call: dict):
        return self.core.start_recv_graph()

    def _blob_sink(self, call: dict):
        return _BlobSink()

    def _keyed_blob_sink(self, call: dict):
        if not call.get("key"):
            raise ClusterProtocolError("put_blob requires a non-empty key")
        return _BlobSink()

    def _complete_graph(self, stream: _CallStream) -> dict:
        return self.core.complete_recv_graph(
            stream.sink, stream.total,
            retain=bool(stream.call.get("retain", False)))

    def _complete_blob(self, stream: _CallStream) -> dict:
        return self.core.complete_recv_blob(bytes(stream.sink.data))

    def _complete_put_blob(self, stream: _CallStream) -> dict:
        return self.core.complete_put_blob(
            stream.call.get("key"), bytes(stream.sink.data))

    _STREAM_OPS = {
        "recv_graph": (_graph_sink, _complete_graph),
        "recv_blob": (_blob_sink, _complete_blob),
        "put_blob": (_keyed_blob_sink, _complete_put_blob),
    }

    # -- epoch streams: open at the EPOCH, ready at the MUX_TRAILER --------

    def _mux_open(self, conn: _AsyncConn, payload: bytes) -> None:
        channel_id, epoch, kind = frames.decode_epoch_header(payload)
        if channel_id in conn.mux_open:
            raise TransportError(
                f"protocol violation: channel {channel_id} opened a second "
                f"mux stream before its trailer"
            )
        stream = _MuxStream(channel_id, epoch, kind, conn.trace)
        try:
            self.core._check_channel_id(channel_id)
        except ClusterProtocolError as exc:  # per-channel, not fatal
            stream.error = (type(exc).__name__, str(exc))
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
        if conn.queued_bytes >= self.high_water_bytes \
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
                conn.queued_bytes <= self.high_water_bytes // 2
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
                result = self.core.complete_recv_epoch(
                    item.channel_id, item.epoch, item.kind, item.data,
                    item.stream_bytes, digest=item.digest,
                    receive_seconds=item.receive_s,
                )
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


class LocalAsyncWorker(ThreadHost):
    """An in-process worker for tests (see :class:`ThreadHost`);
    ``start()`` or ``with`` begins serving."""

    def __init__(self, spec: WorkerSpec, **loop_kwargs) -> None:
        super().__init__(
            AsyncWorkerServer(WorkerServer(spec), **loop_kwargs),
            f"aserve-{spec.name}", spec.host, spec.port,
            backlog=spec.listen_backlog,
        )
