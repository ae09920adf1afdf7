"""The one server loop of the framed protocol.

Every process that *serves* CALL/RESULT/ERROR frames — a worker
(:class:`~repro.transport.aserve.AsyncWorkerServer`), the fleet
coordinator (:class:`~repro.cluster.coordinator.CoordinatorServer`) — is a
:class:`FrameLoop` subclass.  The loop owns everything that touches a
socket: accept, non-blocking ``recv`` into a per-connection
:class:`~repro.transport.frames.FrameDecoder`, the outbound byte buffer,
selector interest, close, and the failure contract (*one ERROR frame
naming the exception type, then close once the buffer has flushed*).  A
subclass owns the protocol — what a frame means (``_handle_frame``) and
what runs between polls (``_tick``: heartbeats and epoch applies on a
worker, liveness sweeps on the coordinator) — and needs no second thread.

An idle connection is kept open indefinitely; only one stalled mid-op
(``_mid_op``) is timed out after ``read_timeout``.
"""

from __future__ import annotations

import logging
import selectors
import socket
import time
from typing import List, Optional

from repro import obs
from repro.transport import frames
from repro.transport.errors import (
    FrameCorruptionError,
    TransportError,
    TransportTimeout,
)
from repro.transport.metrics import TransportMetrics

_RECV_BYTES = 256 * 1024


class Connection:
    """Per-connection transport state: decoder in, byte buffer out.
    Protocol state (an op in flight, epoch streams) is the subclass's."""

    def __init__(self, server: "FrameLoop", sock: socket.socket) -> None:
        self._server = server
        self.sock = sock
        self.decoder = frames.FrameDecoder()
        self.out = bytearray()
        self.paused = False   # read interest dropped (backpressure)
        self.closing = False  # flush outbound, then close
        self.closed = False
        self.events = 0  # selector interest currently registered
        self.last_activity = time.monotonic()

    def send_frame(self, ftype: int, payload: bytes = b"") -> None:
        data = frames.encode_frame(ftype, payload)
        self.out.extend(data)
        self._server.metrics.note_frame_sent(len(data))
        self._server._update_interest(self)


class FrameLoop:
    """Accept, read, decode, dispatch, write — one ``selectors`` loop."""

    #: What :meth:`_accept` wraps each socket in.
    connection_cls = Connection

    def __init__(self, log: logging.Logger,
                 metrics: Optional[TransportMetrics] = None,
                 tick: float = 0.05,
                 read_timeout: Optional[float] = None) -> None:
        self.log = log
        self.metrics = metrics if metrics is not None else TransportMetrics()
        self.tick = tick
        self.read_timeout = read_timeout
        self._running = True
        self._sel: Optional[selectors.BaseSelector] = None
        self._conns: List[Connection] = []
        self.conns_accepted = 0

    def shutdown(self) -> None:
        """Ask the loop to exit within one tick (in-process hosts; over
        the wire each server's ``shutdown`` op does the same)."""
        self._running = False

    # -- what a server supplies --------------------------------------------

    def _handle_frame(self, conn: Connection, ftype: int,
                      payload: bytes) -> None:
        """Advance ``conn``'s protocol by one complete frame (BYE never
        arrives here: it ends the connection).  Anything raised answers
        ERROR and closes the connection."""
        raise NotImplementedError

    def _tick(self) -> None:
        """Runs after every poll, events or not."""

    def _poll_timeout(self) -> float:
        """How long the next poll may block."""
        return self.tick

    def _mid_op(self, conn: Connection) -> bool:
        """Whether silence on ``conn`` is a stall rather than idleness."""
        return conn.decoder.buffered > 0

    def _on_exit(self) -> None:
        """Runs once as :meth:`serve_forever` returns."""

    # -- the loop ----------------------------------------------------------

    def serve_forever(self, listener: socket.socket) -> None:
        sel = selectors.DefaultSelector()
        self._sel = sel
        listener.setblocking(False)
        sel.register(listener, selectors.EVENT_READ, None)
        try:
            while self._running:
                for key, mask in sel.select(self._poll_timeout()):
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
                self._tick()
                self._reap_stalled()
        finally:
            self._shutdown_flush()
            sel.unregister(listener)
            sel.close()
            self._sel = None
            self._on_exit()

    # -- accept / read / write ---------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:  # BlockingIOError: drained; else: listener gone
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - e.g. AF_UNIX
                pass
            conn = self.connection_cls(self, sock)
            self._conns.append(conn)
            self.conns_accepted += 1
            self._update_interest(conn)

    def _on_readable(self, conn: Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
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

    def _drain_frames(self, conn: Connection) -> None:
        while not conn.closing and not conn.closed:
            try:
                frame = conn.decoder.next_frame()
            except FrameCorruptionError as exc:
                self._fail_conn(conn, exc)
                return
            if frame is None:
                return
            ftype, payload = frame
            self.metrics.note_frame_received(
                frames.HEADER_BYTES + len(payload)
            )
            if ftype == frames.BYE:
                self._close_after_flush(conn)
                return
            try:
                self._handle_frame(conn, ftype, payload)
            except Exception as exc:  # noqa: BLE001 - reported as ERROR frame
                self._fail_conn(conn, exc)
                return

    def _on_writable(self, conn: Connection) -> None:
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

    def _update_interest(self, conn: Connection) -> None:
        if conn.closed or self._sel is None:
            return
        events = 0
        if not conn.paused and not conn.closing:
            events |= selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        if events == conn.events:
            return
        if not events:
            self._sel.unregister(conn.sock)
        elif conn.events:
            self._sel.modify(conn.sock, events, conn)
        else:
            self._sel.register(conn.sock, events, conn)
        conn.events = events

    # -- closing -----------------------------------------------------------

    def _close_after_flush(self, conn: Connection) -> None:
        """Stop reading; close as soon as the outbound buffer is empty."""
        conn.closing = True
        if not conn.out:
            self._close_conn(conn)
        else:
            self._update_interest(conn)

    def _close_conn(self, conn: Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.events and self._sel is not None:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        if conn in self._conns:
            self._conns.remove(conn)

    def _send_error(self, conn: Connection, exc: Exception) -> None:
        conn.send_frame(
            frames.ERROR, frames.encode_error(type(exc).__name__, str(exc)),
        )

    def _fail_conn(self, conn: Connection, exc: Exception) -> None:
        """One ERROR frame naming the exception type, then the connection
        closes (after the buffer flushes)."""
        self.log.warning(
            "op failed, answering ERROR: %s: %s", type(exc).__name__, exc,
        )
        obs.record("error", error=type(exc).__name__,
                   detail=str(exc)[:200])
        try:
            self._send_error(conn, exc)
        except TransportError:  # pragma: no cover - encode failure
            pass
        self._close_after_flush(conn)

    def _reap_stalled(self) -> None:
        """Time out connections stalled mid-op.  Idle connections between
        ops live forever — a thousand persistent channels rely on it."""
        timeout = self.read_timeout
        if not timeout:
            return
        now = time.monotonic()
        for conn in list(self._conns):
            if self._mid_op(conn) and now - conn.last_activity > timeout:
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
