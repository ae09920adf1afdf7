"""The in-process substrate: a worker's epoch RESULT without the worker.

:class:`Loopback` has the one method a graph channel asks of a substrate,
``deliver_epoch``, with :meth:`WorkerClient.deliver_epoch`'s signature and
answer.  It applies the frame through the receiving runtime's delta
endpoint in this process, under that clock's ``DESERIALIZATION`` phase,
after charging the simulated :class:`~repro.net.cluster.Cluster` link when
one is given.  A stale receiver raises :class:`DeltaStaleError` (the NACK
``DeltaSendChannel.ship`` recovers from); anything malformed surfaces as
:class:`~repro.exchange.errors.ExchangeProtocolError`.  A plain Skyway
stream is not an epoch: :class:`~repro.core.adapter.SkywaySerializer`
reads those, and refuses an epoch frame with a typed ``SkywayStreamError``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.runtime import SkywayRuntime
from repro.delta.channel import DeltaReceiveEndpoint, DeltaStaleError
from repro.exchange.errors import ExchangeProtocolError
from repro.net.cluster import Cluster, Node
from repro.simtime import Category
from repro.transport.digest import epoch_digest


class Loopback:
    """Epochs delivered by function call to ``receiver``."""

    def __init__(self, receiver: SkywayRuntime,
                 cluster: Optional[Cluster] = None,
                 src: Optional[Node] = None,
                 dst: Optional[Node] = None) -> None:
        self.receiver = receiver
        self._cluster = cluster
        self._src = src
        self._dst = dst

    def deliver_epoch(self, frame_bytes: bytes, channel_id: int,
                      epoch: int, digest: bool = True) -> dict:
        """Apply one FULL/DELTA frame; the endpoint routes it by the
        channel id and epoch the frame itself carries."""
        if self._cluster is not None:
            self._cluster.transfer(self._src, self._dst, len(frame_bytes))
        jvm = self.receiver.jvm
        with jvm.clock.phase(Category.DESERIALIZATION):
            try:
                roots = DeltaReceiveEndpoint.for_runtime(
                    self.receiver).receive(frame_bytes)
            except DeltaStaleError:
                raise
            except Exception as exc:
                raise ExchangeProtocolError(
                    f"cannot apply epoch frame ({type(exc).__name__}: {exc})"
                ) from exc
        return {"root_addresses": roots,
                "digest": (epoch_digest(self.receiver, channel_id, roots)
                           if digest and roots else None)}
