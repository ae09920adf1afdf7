"""The worker's server: one event loop, thousands of channels.

Thread-per-connection serving spends its concurrency budget on OS threads
and its cycles on lock convoys — at a thousand delta channels it is the
saturation wall the managed-server-throughput literature predicts.  Every
worker connection is therefore served from a single ``selectors`` event
loop:

* **Non-blocking frame codec.**  Each connection owns a
  :class:`~repro.transport.frames.FrameDecoder` (already incremental) and
  an outbound byte buffer; the loop reads/writes whatever the kernel will
  take and the state machine advances one complete frame at a time.

* **Per-connection → per-channel state machine.**  The classic per-call
  protocol (HELLO → TRACE? → CALL → DATA*/TRAILER → RESULT) runs one op
  in flight per connection; a streaming op is armed at its CALL and
  completed at its TRAILER through one table (``_STREAM_OPS``).
  On top of it, a *multiplexed* mode: an EPOCH frame arriving with no
  classic op active opens a per-channel stream, ``MUX_DATA`` frames
  (channel id + chunk) interleave freely across channels on one socket,
  and ``MUX_TRAILER`` completes a channel's stream.  Each completed epoch
  answers its own RESULT tagged ``channel_id`` — possibly out of order
  with other channels, which is the point.

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
  through the ``WorkerServer.complete_*`` methods under the state lock —
  classic stream or mux channel, the digests, tallies, and clock
  accounting come from the same code.

* **One process, one loop.**  The cluster heartbeat
  (:meth:`WorkerMembership.beat_once`) fires from the loop on the jittered
  cadence, and peer-mode ops (``send_peer``, blob routing) run on the loop
  like any other op — a fleet worker has no second thread.

Failure taxonomy: protocol-fatal conditions (CRC mismatch, unknown frame,
trailer total/CRC/count mismatch, unknown op) answer one ERROR frame and
close the connection.  In mux mode a *per-channel* failure — above all
:class:`DeltaStaleError`, the NACK — is answered as a RESULT with
``ok=false`` naming the error kind, so one stale channel cannot kill the
other thousand sharing the socket.

An idle connection with no op or stream in flight is kept open
indefinitely (a thousand persistent channels rely on it); only a
connection stalled *mid-stream* is timed out after ``read_timeout``.
"""

from __future__ import annotations

import contextlib
import select
import selectors
import socket
import threading
import time
import zlib
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cluster.errors import ClusterProtocolError
from repro.transport import frames, registry_sync
from repro.transport.bootstrap import bind_listener
from repro.transport.connection import connect_with_retry
from repro.transport.errors import (
    FrameCorruptionError,
    RemoteWorkerError,
    TransportClosed,
    TransportError,
    TransportTimeout,
)
from repro.transport.metrics import TransportMetrics
from repro.transport.worker import WorkerServer, WorkerSpec, _BlobSink

#: Chunk size for multiplexed streams.  Smaller than the classic pipeline
#: default on purpose: mux chunks are the interleaving quantum, and a
#: thousand channels sharing one socket round-robin at this granularity.
DEFAULT_MUX_CHUNK_BYTES = 32 * 1024

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
    """The stream-trailer cross-check, classic TRAILER and MUX_TRAILER
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
    """The classic streaming op in flight on a connection: armed at its
    CALL, fed by DATA frames, completed at its TRAILER."""

    __slots__ = ("op", "call", "sink", "total", "crc", "chunks", "header",
                 "started")

    def __init__(self, op: str, call: dict, sink) -> None:
        self.op = op
        self.call = call
        #: IncrementalStreamDecoder or _BlobSink; ``None`` while a
        #: recv_epoch still waits for its EPOCH header.
        self.sink = sink
        self.total = 0
        self.crc = 0
        self.chunks = 0
        #: recv_epoch only: ``(channel id, epoch, kind)`` from the EPOCH
        #: header, and that header's arrival stamp.
        self.header: Optional[Tuple[int, int, int]] = None
        self.started = 0.0


class _MuxStream:
    """One in-flight multiplexed channel stream on one connection."""

    __slots__ = ("channel_id", "epoch", "kind", "buf", "crc", "chunks",
                 "error", "started")

    def __init__(self, channel_id: int, epoch: int, kind: int) -> None:
        self.channel_id = channel_id
        self.epoch = epoch
        self.kind = kind
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

    __slots__ = ("channel_id", "epoch", "kind", "data", "stream_bytes",
                 "digest", "enqueued", "receive_s")

    def __init__(self, channel_id: int, epoch: int, kind: int,
                 data: bytes, stream_bytes: int, digest: bool,
                 receive_s: Optional[float] = None) -> None:
        self.channel_id = channel_id
        self.epoch = epoch
        self.kind = kind
        self.data = data
        self.stream_bytes = stream_bytes
        self.digest = digest
        self.enqueued = time.perf_counter()
        self.receive_s = receive_s


class _AsyncConn:
    """Per-connection state: decoder in, byte buffer out, one state
    machine."""

    def __init__(self, server: "AsyncWorkerServer",
                 sock: socket.socket) -> None:
        self._server = server
        self.sock = sock
        self.decoder = frames.FrameDecoder()
        self.out = bytearray()
        self.paused = False
        self.closing = False  # flush outbound, then close
        self.closed = False
        self.registered = False
        self.events = 0
        self.last_activity = time.monotonic()
        # classic (one-op-at-a-time) state; ``stream is None`` = idle
        self.stream: Optional[_CallStream] = None
        self.trace_pending: Optional[Tuple[str, str]] = None
        self.op_trace: Optional[Tuple[str, str]] = None
        # multiplexed state
        self.mux_trace: Optional[Tuple[str, str]] = None
        self.mux_open: Dict[int, _MuxStream] = {}
        self.ready: deque = deque()
        self.pending_per_channel: Dict[int, int] = {}
        self.queued_bytes = 0

    def send_frame(self, ftype: int, payload: bytes = b"") -> None:
        data = frames.encode_frame(ftype, payload)
        self.out.extend(data)
        self._server.core.metrics.note_frame_sent(len(data))
        self._server._update_interest(self)


class AsyncWorkerServer:
    """The event loop around a :class:`WorkerServer` core.

    The core owns the runtime, metrics, op handlers, and the state lock;
    this class owns sockets, scheduling, and backpressure.  Everything
    that touches the heap funnels through the core's ``complete_*``
    methods.
    """

    def __init__(
        self,
        core: WorkerServer,
        max_pending_epochs: int = MAX_PENDING_EPOCHS,
        high_water_bytes: int = HIGH_WATER_BYTES,
        apply_batch: int = APPLY_BATCH,
        tick: float = 0.05,
    ) -> None:
        self.core = core
        self.max_pending_epochs = max_pending_epochs
        self.high_water_bytes = high_water_bytes
        self.apply_batch = apply_batch
        self.tick = tick
        self.membership = None
        self._next_beat: Optional[float] = None
        #: Test hook: ``False`` parks the ready queues (reads still run
        #: until the high-water mark pauses them) — how the slow-reader
        #: test proves the queue is bounded.
        self.processing_enabled = True
        self._sel: Optional[selectors.BaseSelector] = None
        self._conns: List[_AsyncConn] = []
        self._rr = 0  # round-robin cursor over connections
        self.conns_accepted = 0
        self.epochs_applied = 0
        self.epoch_failures = 0
        self.reads_paused_total = 0
        self.queue_waits: List[float] = []
        core.loop = self  # the ``stats`` op reads :meth:`stats_snapshot`

    def attach_membership(self, membership) -> None:
        """Adopt a registered :class:`WorkerMembership`: the loop beats it
        on the jittered cadence.  Reconnect budgets are tightened — a dead
        coordinator may cost one beat a short stall, never a long one."""
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

    # -- the loop ----------------------------------------------------------

    def serve_forever(self, listener: socket.socket) -> None:
        sel = selectors.DefaultSelector()
        self._sel = sel
        listener.setblocking(False)
        sel.register(listener, selectors.EVENT_READ, None)
        try:
            while self.core._running:
                timeout = self.tick
                if self.processing_enabled and any(
                        c.ready for c in self._conns):
                    timeout = 0.0
                elif self._next_beat is not None:
                    timeout = min(timeout,
                                  max(0.0, self._next_beat - time.monotonic()))
                events = sel.select(timeout)
                for key, mask in events:
                    conn = key.data
                    if conn is None:
                        self._accept(listener)
                        continue
                    if conn.closed:
                        continue
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    if not conn.closed and mask & selectors.EVENT_WRITE:
                        self._on_writable(conn)
                self._process_ready()
                self._maybe_beat()
                self._reap_stalled()
        finally:
            self._shutdown_flush()
            sel.unregister(listener)
            sel.close()
            self._sel = None

    def shutdown(self) -> None:
        """Ask the loop to exit (the in-process harness path; over the
        wire the classic ``shutdown`` op does the same)."""
        self.core._running = False

    # -- accept / read / write ---------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - e.g. AF_UNIX
                pass
            conn = _AsyncConn(self, sock)
            self._conns.append(conn)
            self.conns_accepted += 1
            self._update_interest(conn)

    def _on_readable(self, conn: _AsyncConn) -> None:
        try:
            data = conn.sock.recv(256 * 1024)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.last_activity = time.monotonic()
        conn.decoder.feed(data)
        self._drain_frames(conn)

    def _drain_frames(self, conn: _AsyncConn) -> None:
        while not conn.closing and not conn.closed:
            try:
                frame = conn.decoder.next_frame()
            except FrameCorruptionError as exc:
                self._fail_conn(conn, exc)
                return
            if frame is None:
                return
            ftype, payload = frame
            self.core.metrics.note_frame_received(
                frames.HEADER_BYTES + len(payload)
            )
            try:
                self._handle_frame(conn, ftype, payload)
            except Exception as exc:  # noqa: BLE001 - reported as ERROR frame
                self._fail_conn(conn, exc)
                return

    def _on_writable(self, conn: _AsyncConn) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(memoryview(conn.out))
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close_conn(conn)
                return
            del conn.out[:sent]
        if not conn.out and conn.closing:
            self._close_conn(conn)
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _AsyncConn) -> None:
        if conn.closed or self._sel is None:
            return
        events = 0
        if not conn.paused and not conn.closing:
            events |= selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        if events == conn.events and conn.registered == bool(events):
            return
        if conn.registered and not events:
            self._sel.unregister(conn.sock)
            conn.registered = False
        elif conn.registered:
            self._sel.modify(conn.sock, events, conn)
        elif events:
            self._sel.register(conn.sock, events, conn)
            conn.registered = True
        conn.events = events

    def _close_conn(self, conn: _AsyncConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.registered and self._sel is not None:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            conn.registered = False
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        if conn in self._conns:
            self._conns.remove(conn)

    def _fail_conn(self, conn: _AsyncConn, exc: Exception) -> None:
        """One ERROR frame naming the exception type, then the connection
        closes (after the buffer flushes)."""
        self.core.log.warning(
            "op failed, answering ERROR: %s: %s", type(exc).__name__, exc,
        )
        obs.record("error", error=type(exc).__name__,
                   detail=str(exc)[:200])
        try:
            conn.send_frame(
                frames.ERROR,
                frames.encode_error(type(exc).__name__, str(exc)),
            )
        except TransportError:  # pragma: no cover - encode failure
            pass
        conn.closing = True
        if not conn.out:
            self._close_conn(conn)
        else:
            self._update_interest(conn)

    # -- frame state machine -----------------------------------------------

    def _handle_frame(self, conn: _AsyncConn, ftype: int,
                      payload: bytes) -> None:
        if ftype == frames.HELLO:
            self.core._handshake(conn, payload)
            return
        if ftype == frames.BYE:
            conn.closing = True
            if not conn.out:
                self._close_conn(conn)
            return
        if ftype == frames.TRACE:
            # Record, don't enable: the tracer is process-global and the
            # loop serves many connections, so it is (re-)pointed at a
            # connection's trace only around that connection's own work —
            # a classic CALL at op time (:meth:`_finish_call`), a mux
            # apply at apply time (:meth:`_apply_one`).  Queued applies
            # from other traced connections keep their own trace ids.
            conn.trace_pending = frames.decode_trace(payload)
            conn.mux_trace = conn.trace_pending
            return
        stream = conn.stream
        if stream is not None and stream.sink is None:
            if ftype != frames.EPOCH:
                raise TransportError(
                    f"protocol violation: expected EPOCH after a "
                    f"recv_epoch CALL, peer sent {frames.frame_name(ftype)}"
                )
            stream.header = frames.decode_epoch_header(payload)
            self.core._check_channel_id(stream.header[0])
            stream.started = time.monotonic()
            stream.sink = _BlobSink()
            return
        if stream is not None:
            self._on_stream_frame(conn, stream, ftype, payload)
            return
        # idle: a fresh classic CALL, or the multiplexed sub-protocol
        if ftype == frames.CALL:
            self._start_call(conn, frames.decode_json(payload, what="CALL"))
            return
        if ftype == frames.EPOCH:
            self._mux_open(conn, payload)
            return
        if ftype == frames.MUX_DATA:
            self._mux_data(conn, payload)
            return
        if ftype == frames.MUX_TRAILER:
            self._mux_trailer(conn, payload)
            return
        raise TransportError(
            f"protocol violation: unexpected {frames.frame_name(ftype)} "
            f"frame between calls"
        )

    def _start_call(self, conn: _AsyncConn, call: dict) -> None:
        op = call.get("op")
        handler = self.core._OPS.get(op)
        stream_op = self._STREAM_OPS.get(op)
        if handler is None and stream_op is None:
            raise TransportError(f"unknown op {op!r}")
        self.core.log.debug("serving op %s", op)
        conn.op_trace, conn.trace_pending = conn.trace_pending, None
        if handler is not None:
            self._finish_call(conn, op, lambda: handler(self.core, call))
            return
        # streaming op: arm the sink now, complete at the TRAILER
        make_sink, _complete = stream_op
        conn.stream = _CallStream(op, call, make_sink(self, call))

    @contextlib.contextmanager
    def _adopted(self, trace: Optional[Tuple[str, str]]):
        """Point the process-global tracer at one connection's trace for
        the duration of that connection's own work (a classic op, a mux
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

    def _finish_call(self, conn: _AsyncConn, op: str, run) -> None:
        """Run an op body (immediately for plain CALLs, at the TRAILER for
        streaming ones) and answer the RESULT.  After a TRACE frame the op
        runs inside a ``worker.<op>`` span and its spans ship back inside
        the RESULT under ``"trace"``."""
        trace, conn.op_trace = conn.op_trace, None
        with self._adopted(trace) as tracer:
            if tracer is None:
                result = run()
            else:
                mark = tracer.mark()
                with tracer.span(f"worker.{op}",
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
            self.core.metrics.note_chunk_received()
            with self.core.metrics.phase("receive"), self.core._state_lock:
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
        attrs = {"stream_bytes": stream.total, "overlapped": True}
        if stream.header is not None:
            attrs["channel"], attrs["epoch"] = stream.header[:2]

        def run():
            # Arrival overlapped the loop chunk by chunk, so there is no
            # blocking receive to time: the span marks where it ended.
            with obs.span("recv.receive", clock=self.core.runtime.jvm.clock,
                          **attrs):
                pass
            return complete(self, stream)

        self._finish_call(conn, stream.op, run)

    # -- streaming ops: make the sink at the CALL, complete at the TRAILER --

    def _graph_sink(self, call: dict):
        return self.core.start_recv_graph()

    def _blob_sink(self, call: dict):
        return _BlobSink()

    def _keyed_blob_sink(self, call: dict):
        if not call.get("key"):
            raise ClusterProtocolError("put_blob requires a non-empty key")
        return _BlobSink()

    def _epoch_sink(self, call: dict):
        return None  # armed by the EPOCH header that must come next

    def _complete_graph(self, stream: _CallStream) -> dict:
        return self.core.complete_recv_graph(
            stream.sink, stream.total,
            retain=bool(stream.call.get("retain", False)))

    def _complete_blob(self, stream: _CallStream) -> dict:
        return self.core.complete_recv_blob(bytes(stream.sink.data))

    def _complete_put_blob(self, stream: _CallStream) -> dict:
        return self.core.complete_put_blob(
            stream.call.get("key"), bytes(stream.sink.data))

    def _complete_epoch(self, stream: _CallStream) -> dict:
        # DeltaStaleError propagates: on a classic stream the NACK is
        # ERROR + close.
        channel_id, epoch, kind = stream.header
        return self.core.complete_recv_epoch(
            channel_id, epoch, kind, bytes(stream.sink.data), stream.total,
            digest=stream.call.get("digest", True),
            receive_seconds=time.monotonic() - stream.started)

    _STREAM_OPS = {
        "recv_graph": (_graph_sink, _complete_graph),
        "recv_blob": (_blob_sink, _complete_blob),
        "put_blob": (_keyed_blob_sink, _complete_put_blob),
        "recv_epoch": (_epoch_sink, _complete_epoch),
    }

    # -- multiplexed streams -----------------------------------------------

    def _mux_open(self, conn: _AsyncConn, payload: bytes) -> None:
        channel_id, epoch, kind = frames.decode_epoch_header(payload)
        if channel_id in conn.mux_open:
            raise TransportError(
                f"protocol violation: channel {channel_id} opened a second "
                f"mux stream before its trailer"
            )
        stream = _MuxStream(channel_id, epoch, kind)
        try:
            self.core._check_channel_id(channel_id)
        except Exception as exc:  # noqa: BLE001 - per-channel, not fatal
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
        self.core.metrics.note_chunk_received()
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
            self.epoch_failures += 1
            kind, message = stream.error
            obs.record("error", error=kind, channel=channel_id,
                       epoch=stream.epoch, detail=message[:200])
            conn.send_frame(frames.RESULT, frames.encode_json({
                "op": "recv_epoch", "ok": False, "channel_id": channel_id,
                "epoch": stream.epoch, "error_kind": kind, "error": message,
            }))
            return
        received = len(stream.buf)
        _check_trailer(f"mux trailer for channel {channel_id}",
                       (total, crc, chunks),
                       (received, stream.crc, stream.chunks))
        conn.ready.append(_ReadyEpoch(
            channel_id, stream.epoch, stream.kind, bytes(stream.buf),
            received, digest,
            receive_s=time.monotonic() - stream.started,
        ))
        conn.pending_per_channel[channel_id] = \
            conn.pending_per_channel.get(channel_id, 0) + 1
        self._maybe_pause(conn)

    def _maybe_pause(self, conn: _AsyncConn) -> None:
        if conn.paused or conn.closing or conn.closed:
            return
        over_bytes = conn.queued_bytes >= self.high_water_bytes
        over_count = conn.pending_per_channel and max(
            conn.pending_per_channel.values()) >= self.max_pending_epochs
        if over_bytes or over_count:
            conn.paused = True
            self.reads_paused_total += 1
            self._update_interest(conn)

    def _maybe_resume(self, conn: _AsyncConn) -> None:
        if not conn.paused or conn.closed:
            return
        if not conn.ready:
            # Every buffered byte belongs to a still-open stream: the
            # applier has nothing to drain, so only more reads can make
            # progress — staying paused would deadlock the connection.
            # Resume; the next trailer completed over the mark re-pauses
            # immediately, so reads throttle to apply progress instead of
            # stopping outright.
            conn.paused = False
            self._update_interest(conn)
            return
        if conn.queued_bytes <= self.high_water_bytes // 2 and (
                not conn.pending_per_channel or max(
                    conn.pending_per_channel.values())
                < self.max_pending_epochs):
            conn.paused = False
            self._update_interest(conn)

    def _process_ready(self) -> None:
        """Apply up to ``apply_batch`` queued epochs, round-robin across
        connections.  This is the only place mux bytes touch the heap."""
        if not self.processing_enabled or not self._conns:
            return
        budget = self.apply_batch
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
        obs.registry().observe("aserve.queue_wait_seconds", wait)
        conn.queued_bytes -= item.stream_bytes
        left = conn.pending_per_channel.get(item.channel_id, 1) - 1
        if left > 0:
            conn.pending_per_channel[item.channel_id] = left
        else:
            conn.pending_per_channel.pop(item.channel_id, None)
        try:
            with self._adopted(conn.mux_trace), \
                    obs.span("aserve.apply", channel=item.channel_id,
                             epoch=item.epoch, queue_wait_s=wait,
                             clock=self.core.runtime.jvm.clock):
                result = self.core.complete_recv_epoch(
                    item.channel_id, item.epoch, item.kind, item.data,
                    item.stream_bytes, digest=item.digest,
                    receive_seconds=item.receive_s,
                )
            result["ok"] = True
            result["queue_wait_s"] = wait
            self.epochs_applied += 1
        except Exception as exc:  # noqa: BLE001 - per-channel blast radius
            self.epoch_failures += 1
            # Flight-recorder the NACK (DeltaStaleError above all): the
            # next heartbeat ships it, so a dying worker's channel
            # failures survive at the coordinator.
            obs.record("error", error=type(exc).__name__,
                       channel=item.channel_id, epoch=item.epoch,
                       detail=str(exc)[:200])
            result = {
                "op": "recv_epoch", "ok": False,
                "channel_id": item.channel_id, "epoch": item.epoch,
                "error_kind": type(exc).__name__, "error": str(exc),
            }
        try:
            conn.send_frame(frames.RESULT, frames.encode_json(result))
        except TransportError:  # pragma: no cover - oversized result
            self._close_conn(conn)

    # -- housekeeping ------------------------------------------------------

    def _maybe_beat(self) -> None:
        if self.membership is None or self._next_beat is None:
            return
        if time.monotonic() >= self._next_beat:
            self.membership.beat_once()
            self._next_beat = time.monotonic() + self.membership.next_wait()

    def _reap_stalled(self) -> None:
        """Time out connections stalled *mid-stream*.  Idle connections
        between ops live forever — a thousand persistent channels rely on
        it."""
        timeout = self.core.spec.read_timeout
        if not timeout:
            return
        now = time.monotonic()
        for conn in list(self._conns):
            if (conn.stream is not None or conn.mux_open) \
                    and not conn.paused \
                    and now - conn.last_activity > timeout:
                self._fail_conn(conn, TransportTimeout(
                    f"stream stalled for {timeout:.1f}s mid-op"
                ))

    def _shutdown_flush(self) -> None:
        """Best-effort flush of every outbound buffer (above all the
        final shutdown RESULT), then close everything."""
        for conn in list(self._conns):
            if conn.out and not conn.closed:
                try:
                    conn.sock.setblocking(True)
                    conn.sock.settimeout(2.0)
                    conn.sock.sendall(conn.out)
                except OSError:
                    pass
            self._close_conn(conn)


class LocalAsyncWorker:
    """An in-process async worker for tests: the event loop runs on a
    daemon thread inside *this* interpreter, so a test can reach the
    server object (pause processing, read counters) while real sockets
    carry the protocol.  Mirrors ``LocalCoordinator``."""

    def __init__(self, spec: WorkerSpec, **loop_kwargs) -> None:
        self.spec = spec
        self.server = WorkerServer(spec)
        self.loop = AsyncWorkerServer(self.server, **loop_kwargs)
        self._listener = bind_listener(spec.host, spec.port,
                                       backlog=spec.listen_backlog)
        self.host = spec.host
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self.loop.serve_forever, args=(self._listener,),
            name=f"aserve-{spec.name}", daemon=True,
        )

    def start(self) -> "LocalAsyncWorker":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.loop.shutdown()
        self._thread.join(timeout=10.0)
        self._listener.close()

    def __enter__(self) -> "LocalAsyncWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class MuxEpochClient:
    """Driver-side endpoint of the multiplexed sub-protocol: one socket,
    many concurrent channel streams.

    ``send_epochs`` interleaves every channel's EPOCH header, MUX_DATA
    chunks, and MUX_TRAILER on the single connection (round-robin by
    default, caller-shuffled for the fuzz tests), draining RESULT frames
    as they arrive — each result is matched back to its channel by the
    ``channel_id`` the worker tags it with, and per-channel latency is
    measured trailer-written → result-read.

    Failures follow the mux taxonomy: a per-channel ``ok=false`` RESULT
    is returned to the caller (or raised as :class:`RemoteWorkerError` by
    the single-channel :meth:`send_epoch`), while an ERROR frame means
    the connection is dead and raises immediately.
    """

    def __init__(
        self,
        runtime,
        host: str,
        port: int,
        node_name: str = "driver",
        connect_timeout: float = 2.0,
        connect_attempts: int = 1,
        connect_backoff: float = 0.05,
        read_timeout: float = 60.0,
        chunk_bytes: int = DEFAULT_MUX_CHUNK_BYTES,
        metrics: Optional[TransportMetrics] = None,
    ) -> None:
        self.runtime = runtime
        self.host = host
        self.port = port
        self.node_name = node_name
        self.chunk_bytes = chunk_bytes
        self.metrics = metrics if metrics is not None else TransportMetrics()
        self._connect_timeout = connect_timeout
        self._connect_attempts = connect_attempts
        self._connect_backoff = connect_backoff
        self._read_timeout = read_timeout
        self._sock: Optional[socket.socket] = None
        self._decoder = frames.FrameDecoder()
        self._synced_names: Optional[frozenset] = None
        self._traced = False
        self.peer_name: Optional[str] = None

    # -- connection --------------------------------------------------------

    def connect(self) -> "MuxEpochClient":
        with self.metrics.phase("connect"):
            sock = connect_with_retry(
                self.host, self.port,
                connect_timeout=self._connect_timeout,
                attempts=self._connect_attempts,
                backoff=self._connect_backoff,
                metrics=self.metrics,
            )
        sock.settimeout(self._read_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover
            pass
        self._sock = sock
        self._decoder = frames.FrameDecoder()
        self._synced_names = None
        self._traced = False
        self._sync_registry()
        return self

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._send_raw(frames.encode_frame(frames.BYE, b""))
        except TransportError:
            pass
        try:
            self._sock.close()
        finally:
            self._sock = None

    def __enter__(self) -> "MuxEpochClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise TransportError("mux client is not connected")
        return self._sock

    def _send_raw(self, data: bytes) -> None:
        sock = self._require_sock()
        try:
            sock.sendall(data)
        except socket.timeout as exc:
            raise TransportTimeout("timed out sending mux frames") from exc
        except OSError as exc:
            raise TransportClosed(
                f"peer closed while sending mux frames: {exc}"
            ) from exc
        self.metrics.note_frame_sent(len(data))

    def _recv_frame(self, timeout: Optional[float]) -> Optional[Tuple[int, bytes]]:
        """One frame; ``timeout=0`` polls (returns None when nothing is
        buffered or readable), otherwise blocks up to ``timeout``.

        Polling probes readability with ``select`` rather than zeroing
        the socket timeout: the socket must stay blocking so that
        ``sendall`` survives a full kernel send buffer — the stall the
        worker's backpressure deliberately creates — instead of raising
        ``BlockingIOError`` after a partial write."""
        sock = self._require_sock()
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                self.metrics.note_frame_received(
                    frames.HEADER_BYTES + len(frame[1])
                )
                return frame
            if timeout == 0.0:
                if not select.select([sock], [], [], 0.0)[0]:
                    return None
            else:
                sock.settimeout(timeout)
            try:
                data = sock.recv(256 * 1024)
            except (BlockingIOError, socket.timeout) as exc:
                if timeout == 0.0:
                    return None
                raise TransportTimeout(
                    "timed out waiting for a mux RESULT"
                ) from exc
            except OSError as exc:
                raise TransportClosed(f"connection reset: {exc}") from exc
            if not data:
                raise TransportClosed(
                    "peer closed the connection mid-conversation"
                )
            self._decoder.feed(data)

    def _sync_registry(self) -> None:
        snapshot = self.runtime.view.snapshot()
        if self._synced_names is not None \
                and frozenset(snapshot) == self._synced_names:
            return
        with self.metrics.phase("handshake"):
            self._send_raw(frames.encode_frame(
                frames.HELLO,
                frames.encode_hello(self.node_name, snapshot),
            ))
            got = self._recv_frame(self._read_timeout)
            ftype, payload = got
            if ftype == frames.ERROR:
                kind, message = frames.decode_error(payload)
                raise RemoteWorkerError(kind, message)
            if ftype != frames.HELLO_ACK:
                raise TransportClosed(
                    f"protocol violation: expected HELLO_ACK, peer sent "
                    f"{frames.frame_name(ftype)}"
                )
            peer, extras = frames.decode_hello_ack(payload)
            merged = registry_sync.merge_registries(snapshot, extras)
            registry_sync.install_merged(self.runtime, merged)
        self.peer_name = peer
        self._synced_names = frozenset(merged)

    def _send_trace_once(self) -> None:
        if self._traced or not obs.enabled():
            return
        trace_id, span_id = obs.current_context()
        self._send_raw(frames.encode_frame(
            frames.TRACE, frames.encode_trace(trace_id, span_id)
        ))
        self._traced = True

    # -- the fan-in send ---------------------------------------------------

    def send_epochs(
        self,
        epochs,
        rng=None,
        flush_bytes: int = 256 * 1024,
    ) -> Dict[int, dict]:
        """Ship many epochs concurrently over the one connection.

        ``epochs`` is an iterable of ``(channel_id, epoch, frame_bytes)``
        or ``(channel_id, epoch, frame_bytes, digest)`` tuples (``digest``
        defaults to True and rides the MUX_TRAILER flags byte).  Frames
        interleave round-robin across channels (in-order within each
        channel — the only ordering the worker requires); pass an ``rng``
        (anything with ``randrange``) to randomize the interleaving
        instead, which is how the fuzz test splices.

        Each channel may appear at most once per call: the worker allows
        one open mux stream per channel, and results are keyed by channel
        id — ship a channel's successive epochs in successive calls.

        Returns ``{channel_id: {"result": <worker RESULT>,
        "latency_s": <trailer-sent → result-read>}}``.  ``ok=false``
        results are returned, not raised — per-channel failures are the
        caller's to triage.
        """
        epochs = list(epochs)
        queues: List[List[Tuple[int, bytes]]] = []
        expected: set = set()
        for entry in epochs:
            channel_id, epoch, frame_bytes = entry[:3]
            digest = entry[3] if len(entry) > 3 else True
            if channel_id in expected:
                raise TransportError(
                    f"send_epochs got channel {channel_id} more than once "
                    f"in one call; a channel allows one open mux stream "
                    f"at a time — ship its epochs in successive calls"
                )
            expected.add(channel_id)
            per = [(0, frames.encode_frame(
                frames.EPOCH,
                frames.encode_epoch_header(
                    channel_id, epoch,
                    frame_bytes[0] if frame_bytes else 0),
            ))]
            for off in range(0, max(len(frame_bytes), 1),
                             self.chunk_bytes):
                chunk = frame_bytes[off:off + self.chunk_bytes]
                per.append((0, frames.encode_frame(
                    frames.MUX_DATA,
                    frames.encode_mux_data(channel_id, chunk),
                )))
            chunks = len(per) - 1
            per.append((channel_id, frames.encode_frame(
                frames.MUX_TRAILER,
                frames.encode_mux_trailer(
                    channel_id, len(frame_bytes),
                    zlib.crc32(frame_bytes), chunks, digest=digest),
            )))
            queues.append(per)
        self._sync_registry()
        self._send_trace_once()

        results: Dict[int, dict] = {}
        sent_at: Dict[int, float] = {}
        out = bytearray()

        def drain(timeout: float) -> None:
            while True:
                frame = self._recv_frame(timeout)
                if frame is None:
                    return
                self._absorb_result(frame, results, sent_at)
                timeout = 0.0  # drain whatever else is buffered

        with obs.span("mux.send_epochs", channels=len(expected),
                      destination=f"{self.host}:{self.port}"):
            while queues:
                if rng is not None:
                    idx = rng.randrange(len(queues))
                else:
                    idx = 0
                queue = queues[idx]
                marker, data = queue.pop(0)
                out.extend(data)
                if not queue:
                    # rotate finished queues out; round-robin rotates the
                    # head to the back so channels interleave
                    queues.pop(idx)
                elif rng is None:
                    queues.append(queues.pop(0))
                if marker:
                    # flush through the trailer so the latency clock
                    # starts when the worker can actually see the stream
                    self._send_raw(bytes(out))
                    out.clear()
                    sent_at[marker] = time.perf_counter()
                    drain(0.0)
                elif len(out) >= flush_bytes:
                    self._send_raw(bytes(out))
                    out.clear()
                    drain(0.0)
            if out:
                self._send_raw(bytes(out))
                out.clear()
            while expected - set(results):
                drain(self._read_timeout)
        return results

    def _absorb_result(self, frame: Tuple[int, bytes],
                       results: Dict[int, dict],
                       sent_at: Dict[int, float]) -> None:
        ftype, payload = frame
        if ftype == frames.ERROR:
            kind, message = frames.decode_error(payload)
            raise RemoteWorkerError(kind, message)
        if ftype != frames.RESULT:
            raise TransportClosed(
                f"protocol violation: expected RESULT, peer sent "
                f"{frames.frame_name(ftype)}"
            )
        result = frames.decode_json(payload, what="RESULT")
        channel_id = result.get("channel_id")
        if channel_id is None:
            raise TransportClosed(
                "mux RESULT carries no channel_id; cannot demultiplex"
            )
        now = time.perf_counter()
        started = sent_at.get(channel_id)
        results[channel_id] = {
            "result": result,
            "latency_s": (now - started) if started is not None else None,
        }

    def send_epoch(self, frame_bytes: bytes, channel_id: int,
                   epoch: int, digest: bool = True) -> dict:
        """The single-channel convenience (the exchange substrate's
        via-mux path): one epoch, blocking, classic error semantics — an
        ``ok=false`` result raises :class:`RemoteWorkerError` with the
        remote kind, so :class:`DeltaStaleError` NACKs surface exactly as
        they do on a classic connection (minus the connection teardown:
        the mux socket survives, no reconnect needed)."""
        outcome = self.send_epochs(
            [(channel_id, epoch, frame_bytes, digest)]
        )[channel_id]
        result = outcome["result"]
        if not result.get("ok", False):
            raise RemoteWorkerError(
                result.get("error_kind", "TransportError"),
                result.get("error", "mux epoch failed"),
            )
        result.setdefault("latency_s", outcome["latency_s"])
        return result

    # -- classic ops over the mux socket -----------------------------------

    def call_op(self, op: str, **params) -> dict:
        """A plain CALL/RESULT op on the mux connection (idle state serves
        the classic protocol unchanged) — ``stats`` is the usual guest."""
        self._send_raw(frames.encode_frame(
            frames.CALL, frames.encode_json({"op": op, **params})
        ))
        got = self._recv_frame(self._read_timeout)
        ftype, payload = got
        if ftype == frames.ERROR:
            kind, message = frames.decode_error(payload)
            raise RemoteWorkerError(kind, message)
        if ftype != frames.RESULT:
            raise TransportClosed(
                f"protocol violation: expected RESULT, peer sent "
                f"{frames.frame_name(ftype)}"
            )
        return frames.decode_json(payload, what="RESULT")

    def stats(self) -> dict:
        return self.call_op("stats")
