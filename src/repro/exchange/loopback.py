"""The in-process substrate: epochs delivered by function call.

A :class:`LoopbackGraphChannel` is the shared
:class:`~repro.exchange.channel.GraphChannel` send body (same
:class:`~repro.delta.channel.DeltaSendChannel`, same FULL/DELTA wire
bytes as the socket substrate — that identity is what the cross-substrate
parity test checks) plus a ``_deliver`` that calls the receiving runtime's
dispatch in the same process.  Two binding modes:

* **bound** — constructed with a ``receiver_runtime``: every ``send()``
  also applies the frame there, optionally byte-accounting the transfer on
  a simulated :class:`~repro.net.cluster.Cluster` link, and the receipt
  carries receiver roots.  A stale receiver's :class:`DeltaStaleError`
  propagates out of ``_deliver`` as-is: it *is* the NACK.
* **unbound** — no receiver: ``send()`` just frames the epoch and hands
  the bytes back (the engine moves them itself and applies them with
  :func:`~repro.exchange.dispatch.receive_epoch`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.runtime import SkywayRuntime
from repro.exchange.capabilities import (
    ChannelCapabilities,
    DEFAULT_REQUEST,
    LOOPBACK_OFFER,
)
from repro.exchange.channel import GraphChannel
from repro.exchange.errors import ExchangeConfigError
from repro.exchange.dispatch import receive_epoch
from repro.net.cluster import Cluster, Node
from repro.simtime import Category
from repro.transport.digest import semantic_graph_digest


class LoopbackGraphChannel(GraphChannel):
    """One in-process sending endpoint."""

    substrate = "loopback"

    def __init__(
        self,
        runtime: SkywayRuntime,
        destination: str,
        requested: ChannelCapabilities = DEFAULT_REQUEST,
        receiver_runtime: Optional[SkywayRuntime] = None,
        cluster: Optional[Cluster] = None,
        src: Optional[Node] = None,
        dst: Optional[Node] = None,
        policy=None,
        channel_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            runtime, destination, requested, LOOPBACK_OFFER,
            policy=policy, channel_id=channel_id,
            target_layout=(receiver_runtime.jvm.layout
                           if receiver_runtime is not None else None),
        )
        self.receiver_runtime = receiver_runtime
        self._cluster = cluster
        self._src = src
        self._dst = dst
        if receiver_runtime is not None \
                and receiver_runtime.jvm.clock is not runtime.jvm.clock:
            self._clocks.append(receiver_runtime.jvm.clock)

    def receiver_digest(self, roots: Sequence[int]) -> str:
        """Semantic digest of ``roots`` on the receiving heap — the
        cross-substrate equivalence handle."""
        if self.receiver_runtime is None:
            raise ExchangeConfigError(
                f"loopback channel to {self.destination!r} has no receiver "
                f"runtime bound"
            )
        return semantic_graph_digest(self.receiver_runtime.jvm, roots)

    def _deliver(self, frame: bytes, digest: bool):
        if self.receiver_runtime is None:
            return [], None, None
        if self._cluster is not None and self._src is not None \
                and self._dst is not None:
            self._cluster.transfer(self._src, self._dst, len(frame))
        with self.receiver_runtime.jvm.clock.phase(Category.DESERIALIZATION):
            roots = receive_epoch(self.receiver_runtime, frame)
        return (roots,
                self.receiver_digest(roots) if digest and roots else None,
                None)
