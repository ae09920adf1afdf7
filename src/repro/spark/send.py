"""``SparkContext.send``'s engine: one policy-driven push to every worker.

:class:`PolicySend` is the single front door for shipping driver-heap
object graphs.  The caller does not pick a mode: per worker per push, the
shared stateless policy plans the epoch (full or delta, digest) from that
channel's live signals and history inside the channel's one send body,
and this module only fans the push out and totals what it cost.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Union

from repro.delta.channel import ChannelStats
from repro.exchange.channel import GraphChannel
from repro.exchange.service import Exchange
from repro.net.cluster import Cluster, Node
from repro.policy import resolve_policy


@dataclasses.dataclass
class PushReport:
    """What one ``push()`` epoch cost, per worker and in total."""

    epoch: int
    wire_bytes: int
    modes: Dict[str, str]  # worker name -> "full" | "delta"
    resends: int  # stale-channel full resends this push


class PolicySend:
    """A driver-heap value pushed to every worker, one plan per epoch."""

    def __init__(
        self,
        cluster: Cluster,
        roots: Union[int, Sequence[int]],
        policy=None,
        exchange: Optional[Exchange] = None,
        workers: Optional[Sequence[str]] = None,
    ) -> None:
        driver = cluster.driver
        if driver.jvm.skyway is None:
            raise RuntimeError(
                "send() needs Skyway attached to the cluster "
                "(repro.core.attach_skyway)"
            )
        self.cluster = cluster
        self.exchange = (exchange if exchange is not None
                         else Exchange(cluster))
        self.roots: List[int] = ([roots] if isinstance(roots, int)
                                 else list(roots))
        if not self.roots:
            raise ValueError("send() needs at least one root")
        #: One policy across every worker channel; each channel keeps its
        #: own history.
        self.policy = resolve_policy(policy, default="adaptive")
        self._pins = [driver.jvm.pin(root) for root in self.roots]
        names = (list(workers) if workers is not None
                 else [w.name for w in cluster.workers])
        self._channels: Dict[str, GraphChannel] = {
            name: self.exchange.channel_to(name, policy=self.policy)
            for name in names
        }
        self._worker_roots: Dict[str, int] = {}
        self.pushes: List[PushReport] = []

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        return self.roots[0]

    def push(self, digest: Optional[bool] = None) -> PushReport:
        """Ship one epoch of the value to every worker, mode per plan."""
        total = 0
        modes: Dict[str, str] = {}
        resends = 0
        epoch = 0
        for name, channel in self._channels.items():
            receipt = channel.send(self.roots, digest=digest)
            if receipt.nack_recovered:
                resends += 1
            total += receipt.wire_bytes
            modes[name] = receipt.mode
            epoch = receipt.epoch
            if receipt.roots:
                self._worker_roots[name] = receipt.roots[0]
        report = PushReport(
            epoch=epoch, wire_bytes=total, modes=modes, resends=resends
        )
        self.pushes.append(report)
        return report

    # ------------------------------------------------------------------
    # reading / accounting
    # ------------------------------------------------------------------

    def value_on(self, worker: Node) -> int:
        """The worker-heap address of the value (stable across delta
        epochs; changes only when a full resend rebuilds it)."""
        try:
            return self._worker_roots[worker.name]
        except KeyError:
            raise RuntimeError(
                f"no epoch pushed to {worker.name} yet; call push() first"
            ) from None

    @property
    def wire_bytes(self) -> int:
        return sum(report.wire_bytes for report in self.pushes)

    def channel_stats(self) -> Dict[str, ChannelStats]:
        return {name: ch.stats for name, ch in self._channels.items()}

    def metrics(self) -> Dict[str, dict]:
        """Per-worker unified exchange metrics (one snapshot each)."""
        return {name: ch.metrics() for name, ch in self._channels.items()}

    def close(self) -> None:
        """Unpin the driver copy and detach every channel's card table."""
        for pin in self._pins:
            self.cluster.driver.jvm.unpin(pin)
        for channel in self._channels.values():
            channel.close()
