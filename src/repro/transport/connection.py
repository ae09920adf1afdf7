"""A framed connection over one TCP socket, with typed failures.

Wraps a connected socket in the frame protocol from
:mod:`repro.transport.frames` and converts every raw socket failure into
the :mod:`repro.transport.errors` taxonomy at the boundary — no caller
above this layer ever sees ``OSError``/``socket.timeout``/``struct.error``.
"""

from __future__ import annotations

import contextlib
import select
import socket
import time
from typing import Optional, Tuple

from repro.transport import frames
from repro.transport.errors import (
    RemoteWorkerError,
    TransportClosed,
    TransportError,
    TransportTimeout,
)
from repro.transport.metrics import TransportMetrics

_RECV_BYTES = 256 * 1024


def connect_with_retry(
    host: str,
    port: int,
    connect_timeout: float = 2.0,
    attempts: int = 1,
    backoff: float = 0.05,
    metrics: Optional[TransportMetrics] = None,
) -> socket.socket:
    """Dial ``host:port``, retrying refused/timed-out connects with
    exponential backoff (``backoff * 2**n`` between tries).

    Raises :class:`TransportTimeout` when every attempt fails — the retry
    budget *is* the deadline here, so "out of attempts" and "timed out"
    are one condition.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    last_error: Optional[Exception] = None
    for attempt in range(attempts):
        if metrics is not None:
            metrics.note_connect_attempt(retry=bool(attempt))
        try:
            return socket.create_connection((host, port), timeout=connect_timeout)
        except (ConnectionError, socket.timeout, OSError) as exc:
            last_error = exc
            if attempt + 1 < attempts:
                time.sleep(backoff * (2 ** attempt))
    raise TransportTimeout(
        f"could not connect to {host}:{port} after {attempts} "
        f"attempt(s): {last_error}"
    )


def expect_payload(frame: Tuple[int, bytes], ftype: int) -> bytes:
    """The payload of a received frame that must be ``ftype``; an ERROR
    frame raises the remote failure, anything else is a protocol
    violation."""
    got, payload = frame
    if got == ftype:
        return payload
    if got == frames.ERROR:
        kind, message = frames.decode_error(payload)
        raise RemoteWorkerError(kind, message)
    raise TransportClosed(
        f"protocol violation: expected {frames.frame_name(ftype)}, "
        f"peer sent {frames.frame_name(got)}"
    )


class FrameConnection:
    """send_frame/recv_frame over a socket, CRC-verified both ways."""

    def __init__(
        self,
        sock: socket.socket,
        read_timeout: Optional[float] = None,
        metrics: Optional[TransportMetrics] = None,
    ) -> None:
        self._sock = sock
        self._decoder = frames.FrameDecoder()
        self._closed = False
        self.metrics = metrics if metrics is not None else TransportMetrics()
        sock.settimeout(read_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. AF_UNIX
            pass

    @property
    def raw_socket(self) -> socket.socket:
        """The underlying socket (tests assert its options; don't read or
        write through it behind the framing layer's back)."""
        return self._sock

    # -- sending -----------------------------------------------------------

    def send_frame(self, ftype: int, payload: bytes = b"") -> None:
        self.send_encoded(frames.encode_frame(ftype, payload),
                          f"{frames.frame_name(ftype)} frame")

    def send_encoded(self, data: bytes, what: str = "frames") -> None:
        """One ``sendall`` of already-encoded frame bytes — a single frame,
        or a batch ``send_epochs`` coalesced (counted as one send)."""
        try:
            self._sock.sendall(data)
        except socket.timeout as exc:
            raise TransportTimeout(f"timed out sending {what}") from exc
        except OSError as exc:
            raise TransportClosed(
                f"peer closed while sending {what}: {exc}"
            ) from exc
        self.metrics.note_frame_sent(len(data))

    # -- receiving ---------------------------------------------------------

    def poll_frame(self) -> Optional[Tuple[int, bytes]]:
        """The next complete frame if one is buffered or readable right
        now, else ``None``.  Readability is probed with ``select`` rather
        than by zeroing the socket timeout: the socket must stay blocking
        so that ``sendall`` survives a full kernel send buffer — the stall
        a worker's backpressure deliberately creates — instead of raising
        ``BlockingIOError`` after a partial write."""
        return self.recv_frame(block=False)

    def recv_frame(self, block: bool = True) -> Optional[Tuple[int, bytes]]:
        """The next complete frame, reading from the socket as needed
        (never ``None`` when blocking)."""
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                self.metrics.note_frame_received(
                    frames.HEADER_BYTES + len(frame[1])
                )
                return frame
            if not block and not select.select([self._sock], [], [], 0.0)[0]:
                return None
            try:
                data = self._sock.recv(_RECV_BYTES)
            except socket.timeout as exc:
                raise TransportTimeout("timed out waiting for a frame") from exc
            except OSError as exc:
                raise TransportClosed(f"connection reset: {exc}") from exc
            if not data:
                raise TransportClosed(
                    "peer closed the connection mid-conversation"
                    + (f" ({self._decoder.buffered} bytes of a partial frame"
                       " buffered)" if self._decoder.buffered else "")
                )
            self._decoder.feed(data)

    def expect_frame(self, ftype: int) -> bytes:
        """Receive one frame that must be ``ftype`` and return its
        payload (see :func:`expect_payload`)."""
        return expect_payload(self.recv_frame(), ftype)

    def call(self, call: dict) -> dict:
        """One plain op: CALL out, the RESULT's JSON back (an ERROR frame
        raises the remote failure)."""
        self.send_frame(frames.CALL, frames.encode_json(call))
        return frames.decode_json(self.expect_frame(frames.RESULT),
                                  what="RESULT")

    def pending_remote_error(self, wait: float = 0.25) -> Optional[RemoteWorkerError]:
        """Best-effort peek for an ERROR frame after a send failed.

        A worker that rejects the stream (CRC failure, decode error) sends
        ERROR and closes; the driver's next ``sendall`` then fails with a
        reset *before* it has read that explanation.  This drains the
        socket briefly so the typed remote error wins over a generic
        :class:`TransportClosed`.  The connection's own read timeout is
        back in force afterwards, whatever the peek found."""
        previous = self._sock.gettimeout()
        try:
            self._sock.settimeout(wait)
            while True:
                ftype, payload = self.recv_frame()
                if ftype == frames.ERROR:
                    kind, message = frames.decode_error(payload)
                    return RemoteWorkerError(kind, message)
        except (TransportError, OSError):  # OSError: socket torn down
            return None
        finally:
            with contextlib.suppress(OSError):
                self._sock.settimeout(previous)

    # -- lifecycle ---------------------------------------------------------

    def close(self, bye: bool = False) -> None:
        """Close the socket; ``bye`` first tells the peer (best effort)
        that the conversation is over."""
        if self._closed:
            return
        self._closed = True
        try:
            if bye:
                self.send_frame(frames.BYE)
        except TransportError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
