"""The ``GraphChannel`` protocol: one stateful sender per destination.

Every send mode in the repo — plain full streams, compiled-kernel clones,
epoch deltas — is a *capability* of one channel type, not a separate code
path.  A channel is opened with requested capabilities, negotiates them
against its substrate's offer, and its ``send(roots)`` ships one epoch,
returning a :class:`SendReceipt` that says what traveled (mode, bytes,
receiver roots, digest) however it traveled.

There is one send body, :meth:`GraphChannel._send_impl`, and a substrate
is nothing but its ``_deliver(frame, digest)``.  The epoch protocol itself
— framing, epoch numbering, channel-id routing and the NACK step — is
:class:`~repro.delta.channel.DeltaSendChannel`'s (``ship``); full-only
channels are delta channels with the tracker disabled, so it stays one
implementation across substrates (which is also what makes
cross-substrate byte parity checkable at all).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.core.runtime import SkywayRuntime
from repro.delta.channel import ChannelStats, DeltaSendChannel
from repro.exchange.capabilities import ChannelCapabilities
from repro.exchange.errors import ExchangeError
from repro.exchange.metrics import ExchangeMetrics
from repro.heap.layout import HeapLayout
from repro.policy import SendPlan
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
    #: the digest knob and the estimates that drove it.
    plan: Optional[SendPlan] = None


_obs_source_ids = itertools.count(1)


class GraphChannel:
    """Base of both substrate channels: negotiation, the one send body,
    shared bookkeeping.  A subclass adds how a frame is delivered."""

    substrate = "abstract"

    def __init__(
        self,
        runtime: SkywayRuntime,
        destination: str,
        requested: ChannelCapabilities,
        offered: ChannelCapabilities,
        policy=None,
        channel_id: Optional[int] = None,
        target_layout: Optional[HeapLayout] = None,
    ) -> None:
        # Negotiation grants what both sides can do: ``kernel`` fixes this
        # channel's clone engine, and SendPlan.clamp() bounds each epoch's
        # full-or-delta plan by ``delta``.
        caps = requested.intersect(offered)
        self.runtime = runtime
        self.destination = destination
        self.requested = requested
        self.offered = offered
        self.capabilities = caps
        self.sends = 0
        self.wire_bytes = 0
        self.nack_recoveries = 0
        self._sim_totals: Dict[Category, float] = {}
        #: The clocks whose charges land in this channel's sim breakdown
        #: (a substrate that receives in-process appends the receiver's).
        self._clocks = [runtime.jvm.clock]
        self._channel = DeltaSendChannel(
            runtime,
            destination=destination,
            policy=policy,
            target_layout=target_layout,
            channel_id=channel_id,
            delta_enabled=caps.delta,
            use_kernels=caps.kernel,
            capabilities=caps,
        )
        self.closed = False
        #: Feed this channel's ExchangeMetrics into the obs registry —
        #: last, so a construction that raises registers nothing;
        #: deregistered on close() so no registry entry outlives the
        #: channel.
        self._obs_source = (
            f"exchange.{self.substrate}.{destination}"
            f"#{next(_obs_source_ids)}"
        )
        obs.registry().register_source(self._obs_source, self._obs_metrics)

    def _obs_metrics(self) -> Dict[str, object]:
        if self.closed:
            return {"closed": True}
        return self.metrics().as_dict()

    # -- the protocol -------------------------------------------------------

    def send(self, roots: Sequence[int],
             digest: Optional[bool] = None) -> SendReceipt:
        """Ship one epoch carrying ``roots``, mode per the engine's plan.
        ``digest=None`` lets the executed plan decide."""
        with obs.span("exchange.send", substrate=self.substrate,
                      destination=self.destination) as sp:
            receipt = self._send_impl(roots, digest)
            sp.set(mode=receipt.mode, epoch=receipt.epoch,
                   wire_bytes=receipt.wire_bytes,
                   nack=receipt.nack_recovered)
        return receipt

    def _send_impl(self, roots: Sequence[int],
                   digest: Optional[bool]) -> SendReceipt:
        channel = self._require_open()
        roots = list(roots)
        if not roots:
            raise ExchangeError("send() needs at least one root")
        snaps = [(clock, clock.snapshot()) for clock in self._clocks]

        def deliver(frame: bytes):
            return self._deliver(
                frame,
                bool(channel.last_plan.digest) if digest is None else digest)

        # The phase labels the framing.  Delivery charges this clock
        # nothing unlabelled: the simulated wire charges NETWORK by name,
        # and an in-process receive runs under its own phase.
        with self.runtime.jvm.clock.phase(Category.SERIALIZATION):
            (received, receiver_digest, result), shipped = channel.ship(
                roots, deliver)
        for clock, snap in snaps:
            self._note_sim(clock.since(snap))
        executed = channel.last_plan
        return self._account_send(SendReceipt(
            mode=executed.mode,
            reason=executed.reason,
            epoch=channel.epoch,
            wire_bytes=sum(map(len, shipped)),
            frame=shipped[-1],
            roots=tuple(received),
            digest=receiver_digest,
            nack_recovered=len(shipped) > 1,
            result=result,
            plan=executed,
        ))

    def _deliver(self, frame: bytes, digest: bool
                 ) -> Tuple[Sequence[int], Optional[str], Optional[dict]]:
        """Hand one framed epoch to the receiver: ``(receiver roots,
        receiver digest when asked, the substrate's raw result)``.  A
        stale receiver raises :class:`~repro.delta.channel.DeltaStaleError`
        — the NACK ``DeltaSendChannel.ship`` recovers from."""
        raise NotImplementedError

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        obs.registry().deregister_source(self._obs_source)
        self._channel.close()

    # -- shared bookkeeping -------------------------------------------------

    def _require_open(self) -> DeltaSendChannel:
        if self.closed:
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
    def policy(self):
        return self._require_open().policy

    @property
    def stats(self) -> ChannelStats:
        return self._require_open().stats

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
