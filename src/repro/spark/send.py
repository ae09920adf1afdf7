"""``SparkContext.send``'s engine: one policy-driven push to every worker.

:class:`PolicySend` is the single front door for shipping driver-heap
object graphs.  The caller does not pick a mode: per worker per push, the
shared :class:`~repro.policy.engine.PolicyEngine` plans the epoch (full,
delta, kernel traversal, stream count, digest) from that channel's live
signals, and the dispatch here merely executes the plan — ``parallel-N``
plans route around the epoch channel to ``Exchange.parallel_send``,
everything else goes down the channel with the plan attached.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.delta.channel import ChannelStats
from repro.exchange.capabilities import ChannelCapabilities, DEFAULT_REQUEST
from repro.exchange.channel import GraphChannel
from repro.exchange.service import Exchange
from repro.net.cluster import Cluster, Node
from repro.policy import resolve_engine


@dataclasses.dataclass
class PushReport:
    """What one ``push()`` epoch cost, per worker and in total."""

    epoch: int
    wire_bytes: int
    modes: Dict[str, str]  # worker name -> "full" | "delta" | "parallel-N"
    resends: int  # stale-channel full resends this push


#: What ``send()`` requests per worker: every fast path on, enough stream
#: headroom for the engine's ``parallel-N`` plans (the substrate's offer
#: still clamps).
SEND_REQUEST = dataclasses.replace(DEFAULT_REQUEST, parallel_streams=4)


class PolicySend:
    """A driver-heap value pushed to every worker, one plan per epoch."""

    def __init__(
        self,
        cluster: Cluster,
        roots: Union[int, Sequence[int]],
        policy=None,
        exchange: Optional[Exchange] = None,
        workers: Optional[Sequence[str]] = None,
        requested: Optional[ChannelCapabilities] = None,
    ) -> None:
        driver = cluster.driver
        if driver.jvm.skyway is None:
            raise RuntimeError(
                "send() needs Skyway attached to the cluster "
                "(repro.core.attach_skyway)"
            )
        self.cluster = cluster
        self.exchange = (exchange if exchange is not None
                         else Exchange.loopback(cluster))
        self.roots: List[int] = ([roots] if isinstance(roots, int)
                                 else list(roots))
        if not self.roots:
            raise ValueError("send() needs at least one root")
        #: One engine across every worker channel: per-channel history
        #: keeps a slow peer's bandwidth from polluting the others.
        self.engine = resolve_engine(policy, default="adaptive")
        self.requested = requested if requested is not None else SEND_REQUEST
        self._pins = [driver.jvm.pin(root) for root in self.roots]
        names = (list(workers) if workers is not None
                 else [w.name for w in cluster.workers])
        self._channels: Dict[str, GraphChannel] = {
            name: self.exchange.channel_to(
                name, requested=self.requested, policy=self.engine
            )
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
            plan = channel.plan_next(self.roots)
            if plan.mode == "full" and plan.streams > 1 and len(self.roots) > 1:
                total += self._push_parallel(name, channel, plan.streams)
                modes[name] = plan.label
                epoch = channel.epoch
                continue
            receipt = channel.send(self.roots, digest=digest, plan=plan)
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

    def _push_parallel(self, name: str, channel: GraphChannel,
                       streams: int) -> int:
        """Execute a ``parallel-N`` plan: route the roots around the epoch
        channel as N interleaved streams.  The receiver's retained channel
        state is bypassed, so the next channel epoch is forced FULL and
        any channel-delivered root address is invalidated."""
        channel.discard_plan()
        started = time.perf_counter()
        report = self.exchange.parallel_send(name, self.roots,
                                             streams=streams)
        wire = sum(s.result["stream_bytes"] for s in report.streams)
        channel.engine.observe_transfer(
            channel.channel_id, wire, time.perf_counter() - started
        )
        channel.force_full_next()
        self._worker_roots.pop(name, None)
        return wire

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
        return {name: ch.metrics().as_dict()
                for name, ch in self._channels.items()}

    def close(self) -> None:
        """Unpin the driver copy and detach every channel's card table."""
        for pin in self._pins:
            self.cluster.driver.jvm.unpin(pin)
        for channel in self._channels.values():
            channel.close()
