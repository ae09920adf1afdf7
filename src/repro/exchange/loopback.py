"""The in-process substrate: epochs delivered by function call.

A :class:`LoopbackGraphChannel` frames epochs exactly like the socket
substrate (same :class:`~repro.delta.channel.DeltaSendChannel`, same
FULL/DELTA wire bytes — that identity is what the cross-substrate parity
test checks) but delivers them by calling the receiving runtime's dispatch in
the same process.  Two binding modes:

* **bound** — constructed with a ``receiver_runtime``: every ``send()``
  also applies the frame there, optionally byte-accounting the transfer on
  a simulated :class:`~repro.net.cluster.Cluster` link, and the receipt
  carries receiver roots.  An in-process :class:`DeltaStaleError` is
  handled like the socket NACK: force the next epoch full, resend, count
  both frames.
* **unbound** — no receiver: ``send()`` just frames the epoch and hands
  the bytes back (the serializer-adapter path, where the engine moves the
  bytes itself).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.core.runtime import SkywayRuntime
from repro.delta.channel import DeltaSendChannel, DeltaStaleError
from repro.exchange.capabilities import (
    ChannelCapabilities,
    DEFAULT_REQUEST,
    LOOPBACK_OFFER,
)
from repro.exchange.channel import GraphChannel, SendReceipt, collect_roots
from repro.exchange.errors import ExchangeConfigError
from repro.exchange.dispatch import receive_epoch
from repro.net.cluster import Cluster, Node
from repro.policy import SendPlan
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
        super().__init__(destination, requested, LOOPBACK_OFFER)
        self.runtime = runtime
        self.receiver_runtime = receiver_runtime
        self._cluster = cluster
        self._src = src
        self._dst = dst
        self._channel = DeltaSendChannel(
            runtime,
            destination=destination,
            policy=policy,
            target_layout=(receiver_runtime.jvm.layout
                           if receiver_runtime is not None else None),
            channel_id=channel_id,
            delta_enabled=self.capabilities.delta,
            use_kernels=self.capabilities.kernel,
            capabilities=self.capabilities,
        )

    # ------------------------------------------------------------------

    def _send_impl(self, roots: Sequence[int],
                   digest: Optional[bool] = None,
                   plan: Optional[SendPlan] = None) -> SendReceipt:
        channel = self._require_open()
        roots = collect_roots(roots)
        snaps = [(clock, clock.snapshot()) for clock in self._clocks()]
        sender_clock = self.runtime.jvm.clock
        started = time.perf_counter()
        with sender_clock.phase(Category.SERIALIZATION):
            frame = channel.send(roots, plan=plan)
        wire_bytes = len(frame)
        received: List[int] = []
        nack = False
        if self.receiver_runtime is not None:
            try:
                received = self._deliver(frame)
            except DeltaStaleError:
                # The in-process NACK: receiver state is gone (full GC or a
                # dropped channel).  Same recovery as the socket substrate.
                nack = True
                channel.force_full_next()
                with sender_clock.phase(Category.SERIALIZATION):
                    frame = channel.send(roots)
                wire_bytes += len(frame)
                received = self._deliver(frame)
        channel.engine.observe_transfer(
            channel.channel_id, wire_bytes,
            time.perf_counter() - started,
        )
        for clock, snap in snaps:
            self._note_sim(clock.since(snap))
        executed = channel.last_plan
        if digest is None:
            # No explicit override: the plan decides.
            digest = bool(executed.digest)
        receipt = SendReceipt(
            mode=executed.mode,
            reason=executed.reason,
            epoch=channel.epoch,
            wire_bytes=wire_bytes,
            frame=frame,
            roots=tuple(received),
            digest=(self.receiver_digest(received)
                    if digest and received else None),
            nack_recovered=nack,
            plan=executed,
        )
        return self._account_send(receipt)

    def receiver_digest(self, roots: Sequence[int]) -> str:
        """Semantic digest of ``roots`` on the receiving heap — the
        cross-substrate equivalence handle."""
        if self.receiver_runtime is None:
            raise ExchangeConfigError(
                f"loopback channel to {self.destination!r} has no receiver "
                f"runtime bound"
            )
        return semantic_graph_digest(self.receiver_runtime.jvm, roots)

    # ------------------------------------------------------------------

    def _deliver(self, frame: bytes) -> List[int]:
        if self._cluster is not None and self._src is not None \
                and self._dst is not None:
            self._cluster.transfer(self._src, self._dst, len(frame))
        receiver_clock = self.receiver_runtime.jvm.clock
        with receiver_clock.phase(Category.DESERIALIZATION):
            return receive_epoch(self.receiver_runtime, frame)

    def _clocks(self):
        clocks = [self.runtime.jvm.clock]
        if self.receiver_runtime is not None:
            rc = self.receiver_runtime.jvm.clock
            if rc is not clocks[0]:
                clocks.append(rc)
        return clocks
