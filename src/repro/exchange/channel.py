"""The ``GraphChannel`` protocol: one stateful sender per destination.

Every send mode in the repo — plain full streams, compiled-kernel clones,
epoch deltas, compact headers — is a *capability* of one channel type, not
a separate code path.  A channel is opened with requested capabilities,
negotiates them against its substrate's offer, and its ``send(roots)``
ships one epoch, returning a :class:`SendReceipt` that says what traveled
(mode, bytes, receiver roots, digest) however it traveled.

Both substrate implementations delegate the epoch protocol itself to
:class:`~repro.delta.channel.DeltaSendChannel` — full-only channels are
delta channels with the tracker disabled, so FULL framing, epoch numbering
and channel-id routing stay one implementation across substrates (which is
also what makes cross-substrate byte parity checkable at all).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.delta.channel import ChannelStats, DeltaSendChannel
from repro.exchange.capabilities import ChannelCapabilities
from repro.exchange.errors import ExchangeError
from repro.exchange.metrics import ExchangeMetrics
from repro.policy import PolicyEngine, SendPlan
from repro.simtime import Category


@dataclasses.dataclass
class SendReceipt:
    """What one ``send()`` shipped and what the receiver now holds."""

    mode: str  # "full" | "delta"
    reason: str  # the executed plan's reason
    epoch: int
    wire_bytes: int
    #: The framed epoch bytes as produced by the sender (the *last* frame
    #: when a NACK forced a resend) — the cross-substrate parity handle.
    frame: bytes
    #: Receiver-heap root addresses (empty for an unbound channel).
    roots: Tuple[int, ...] = ()
    #: Semantic graph digest of the receiver's roots, when requested.
    digest: Optional[str] = None
    #: True when this send hit a staleness NACK and recovered with a
    #: forced FULL resend (wire_bytes then counts both frames).
    nack_recovered: bool = False
    #: The substrate's raw receive result (the worker's RESULT payload on
    #: sockets; None on loopback).
    result: Optional[dict] = None
    #: The engine's (clamped) decision this send executed — mode, reason,
    #: streams, digest/compact knobs and the signals that drove it.
    plan: Optional[SendPlan] = None


_obs_source_ids = itertools.count(1)


class GraphChannel:
    """Base of both substrate channels: negotiation + shared bookkeeping."""

    substrate = "abstract"

    def __init__(
        self,
        destination: str,
        requested: ChannelCapabilities,
        offered: ChannelCapabilities,
    ) -> None:
        # Negotiation grants the union of what both sides can do; whether
        # a given epoch *uses* a capability (compact headers, kernels,
        # parallel streams) is the policy plane's call — SendPlan.clamp()
        # bounds each plan by these capabilities per epoch.
        caps = requested.intersect(offered)
        self.destination = destination
        self.requested = requested
        self.offered = offered
        self.capabilities = caps
        self.sends = 0
        self.wire_bytes = 0
        self.nack_recoveries = 0
        self._sim_totals: Dict[Category, float] = {}
        self._channel: Optional[DeltaSendChannel] = None  # set by subclass
        self._closed = False
        #: Feed this channel's ExchangeMetrics into the obs registry;
        #: deregistered on close() so no registry entry outlives the
        #: channel.
        self._obs_source = (
            f"exchange.{self.substrate}.{destination}"
            f"#{next(_obs_source_ids)}"
        )
        obs.registry().register_source(self._obs_source, self._obs_metrics)

    def _obs_metrics(self) -> Dict[str, object]:
        if self._closed or self._channel is None:
            return {"closed": True}
        return self.metrics().as_dict()

    # -- the protocol -------------------------------------------------------

    def send(self, roots: Sequence[int], **kwargs) -> SendReceipt:
        with obs.span("exchange.send", substrate=self.substrate,
                      destination=self.destination) as sp:
            receipt = self._send_impl(roots, **kwargs)
            sp.set(mode=receipt.mode, epoch=receipt.epoch,
                   wire_bytes=receipt.wire_bytes,
                   nack=receipt.nack_recovered)
        return receipt

    def _send_impl(self, roots: Sequence[int], **kwargs) -> SendReceipt:
        raise NotImplementedError

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        obs.registry().deregister_source(self._obs_source)
        if self._channel is not None:
            self._channel.close()

    # -- shared bookkeeping -------------------------------------------------

    def _require_open(self) -> DeltaSendChannel:
        if self._closed or self._channel is None:
            raise ExchangeError(
                f"channel to {self.destination!r} is closed"
            )
        return self._channel

    def _note_sim(self, deltas: Dict[Category, float]) -> None:
        for category, seconds in deltas.items():
            if seconds:
                self._sim_totals[category] = (
                    self._sim_totals.get(category, 0.0) + seconds
                )

    def _account_send(self, receipt: SendReceipt) -> SendReceipt:
        self.sends += 1
        self.wire_bytes += receipt.wire_bytes
        if receipt.nack_recovered:
            self.nack_recoveries += 1
        reg = obs.registry()
        labels = dict(substrate=self.substrate,
                      destination=self.destination)
        reg.counter("exchange.sends", **labels)
        reg.gauge("exchange.bytes_per_epoch",
                  self.wire_bytes / self.sends, **labels)
        if receipt.plan is not None:
            reg.gauge("exchange.mutation_rate",
                      receipt.plan.mutation_rate, **labels)
        return receipt

    # -- introspection ------------------------------------------------------

    @property
    def channel_id(self) -> int:
        return self._require_open().channel_id

    @property
    def epoch(self) -> int:
        return self._require_open().epoch

    @property
    def last_plan(self) -> Optional[SendPlan]:
        return self._require_open().last_plan

    @property
    def engine(self) -> PolicyEngine:
        return self._require_open().engine

    @property
    def stats(self) -> ChannelStats:
        return self._require_open().stats

    def plan_next(self, roots: Sequence[int]) -> SendPlan:
        """Decide (and cache) the next epoch's plan without sending —
        the dispatch hook that lets a caller route ``parallel-N`` plans
        to the multi-stream sender instead."""
        return self._require_open().plan_next(list(roots))

    def discard_plan(self) -> None:
        self._require_open().discard_plan()

    def force_full_next(self) -> None:
        self._require_open().force_full_next()

    def metrics(self) -> ExchangeMetrics:
        """The unified snapshot: sim breakdown + delta stats (+ transport
        counters on substrates that have a wire)."""
        channel = self._require_open()
        return ExchangeMetrics.build(
            substrate=self.substrate,
            destination=self.destination,
            channel_id=channel.channel_id,
            capabilities=self.capabilities.as_dict(),
            sends=self.sends,
            wire_bytes=self.wire_bytes,
            nack_recoveries=self.nack_recoveries,
            sim_totals=self._sim_totals,
            stats=channel.stats,
            transport=self._transport_dict(),
            last_plan=(channel.last_plan.as_dict()
                       if channel.last_plan is not None else None),
        )

    def _transport_dict(self) -> Optional[Dict[str, object]]:
        return None


def collect_roots(roots: Sequence[int]) -> List[int]:
    out = list(roots)
    if not out:
        raise ExchangeError("send() needs at least one root")
    return out
