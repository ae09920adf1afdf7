"""Typed transport errors.

Every failure mode of the socket transport — refused or timed-out connects,
mid-stream peer death, corrupt frames, errors raised inside the remote
worker — surfaces at the driver as one of these types, never as a bare
``OSError``/``struct.error``.  Drivers can therefore write policy
(retry, re-queue, fail the task) against a stable taxonomy, which is what
the paper's "Skyway runtime" does for its TCP channel failures.

The fleet's membership failures live here too (:class:`ClusterError` and
its family): workers raise them themselves, so they sit below both the
worker and :mod:`repro.cluster`.  :class:`PeerGoneError` carries the dead
peer's name, so a broadcast can finish on survivors while naming exactly
who vanished; :class:`ClusterProtocolError` is the mis-route guard (a
reserved or unadmitted channel id on an epoch stream is refused, never
placed into the wrong channel state).
"""

from __future__ import annotations


class TransportError(RuntimeError):
    """Base class for every socket-transport failure."""


class HandshakeError(TransportError):
    """HELLO/HELLO_ACK exchange failed or produced an inconsistent
    registry view."""


class FrameCorruptionError(TransportError):
    """A frame failed its CRC32 check or carried an impossible length."""


class TransportTimeout(TransportError):
    """A connect or read deadline elapsed."""


class TransportClosed(TransportError):
    """The peer closed (or reset) the connection mid-conversation —
    e.g. a worker process killed mid-stream."""


class WorkerStartupError(TransportError):
    """A spawned worker process failed to report a listening port."""


class RemoteWorkerError(TransportError):
    """An error raised inside the worker, propagated over an ERROR frame.

    ``kind`` is the remote exception class name; ``message`` its text.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"remote worker error [{kind}]: {message}")
        self.kind = kind
        self.message = message


class ClusterError(RuntimeError):
    """Base of every fleet membership failure: who is in the fleet, and is
    the peer still the process the coordinator registered?"""


class ClusterConfigError(ClusterError):
    """The fleet was asked for something its configuration lacks
    (unknown worker name, no coordinator, malformed spec)."""


class ClusterProtocolError(ClusterError):
    """A coordinator/fleet protocol violation: a reserved or unassigned
    channel id on an epoch stream, a malformed coordinator RPC, or a blob
    key the peer never stored."""


class CoordinatorUnavailableError(ClusterError):
    """The coordinator could not be reached (down or unreachable); fleet
    membership answers are unavailable until it returns."""


class PeerGoneError(ClusterError):
    """A fleet worker is dead (missed heartbeats, or found dead under a
    send).  Carries the peer's name and, when known, the generation the
    failing channel was bound to."""

    def __init__(self, peer: str, message: str = "",
                 generation: int = 0) -> None:
        detail = message or "worker is gone (marked dead by the coordinator)"
        super().__init__(f"peer {peer!r}: {detail}")
        self.peer = peer
        self.generation = generation
