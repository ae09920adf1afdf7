"""The graph channel: one stateful sender per destination, any substrate.

A :class:`GraphChannel`'s ``send(roots)`` ships one epoch through one
send body and returns a :class:`SendReceipt` saying what traveled (mode,
bytes, receiver roots, digest).  The epoch protocol — policy plan,
framing, epoch numbering, channel-id routing and the NACK step — is
:meth:`~repro.delta.channel.DeltaSendChannel.ship`'s.  A substrate is any
object with ``deliver_epoch(frame, channel_id, epoch, digest) -> dict``
answering ``root_addresses`` and ``digest``: a connected
:class:`~repro.transport.client.WorkerClient`, or the in-process
:class:`~repro.exchange.loopback.Loopback`.  Both receive the same frames,
which is what makes cross-substrate byte parity checkable at all.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.core.runtime import SkywayRuntime
from repro.delta.channel import ChannelStats, DeltaSendChannel
from repro.exchange.errors import ExchangeConfigError, ExchangeError
from repro.exchange.loopback import Loopback
from repro.policy import SendPlan
from repro.simtime import Breakdown, Category


@dataclasses.dataclass(frozen=True)
class ChannelCapabilities:
    """What a channel may do: ``kernel`` fixes its clone engine (False
    pins the interpreted executable spec), ``delta=False`` frames every
    epoch FULL — the epochs the ``always_full`` policy also produces."""

    kernel: bool = True
    delta: bool = True

    def intersect(self, other: "ChannelCapabilities") -> "ChannelCapabilities":
        return ChannelCapabilities(kernel=self.kernel and other.kernel,
                                   delta=self.delta and other.delta)


#: Every path on; the name the perf ledger still imports.
SOCKET_OFFER = ChannelCapabilities()


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
    #: Receiver-heap root addresses.
    roots: Tuple[int, ...] = ()
    #: Semantic graph digest of the receiver's roots, when requested.
    digest: Optional[str] = None
    #: True when this send hit a staleness NACK and recovered with a
    #: forced FULL resend (wire_bytes then counts both frames).
    nack_recovered: bool = False
    #: The substrate's ``deliver_epoch`` answer (the worker's RESULT).
    result: Optional[dict] = None
    #: The engine's decision this send executed — mode, reason, the
    #: digest knob and the estimates that drove it.
    plan: Optional[SendPlan] = None


_obs_source_ids = itertools.count(1)


class GraphChannel:
    """One destination's sending endpoint over one substrate."""

    def __init__(
        self,
        runtime: SkywayRuntime,
        substrate,
        requested: ChannelCapabilities = ChannelCapabilities(),
        policy=None,
        channel_id: Optional[int] = None,
        destination: Optional[str] = None,
    ) -> None:
        loopback = isinstance(substrate, Loopback)
        #: "loopback" or "socket": the obs source's and spans' label.
        self.kind = "loopback" if loopback else "socket"
        self.runtime = runtime
        self._check(substrate)
        self.substrate = substrate
        self.destination = destination or self.kind
        self.sends = 0
        self.wire_bytes = 0
        self.nack_recoveries = 0
        self._sim_totals: Dict[Category, float] = {}
        #: The clocks whose charges land in this channel's sim breakdown
        #: (an in-process receiver's as well as the sender's).
        self._clocks = [runtime.jvm.clock]
        if loopback and substrate.receiver.jvm.clock is not runtime.jvm.clock:
            self._clocks.append(substrate.receiver.jvm.clock)
        self._channel = DeltaSendChannel(
            runtime,
            destination=self.destination,
            policy=policy,
            target_layout=substrate.receiver.jvm.layout if loopback else None,
            channel_id=channel_id,
            delta_enabled=requested.delta,
            use_kernels=requested.kernel,
        )
        self.closed = False
        #: Registered last, so a construction that raises registers
        #: nothing; deregistered on close().
        self._obs_source = (f"exchange.{self.kind}.{self.destination}"
                            f"#{next(_obs_source_ids)}")
        obs.registry().register_source(self._obs_source, self.metrics)

    def _check(self, substrate) -> None:
        if not isinstance(substrate, Loopback) \
                and substrate.runtime is not self.runtime:
            raise ExchangeConfigError(
                f"client speaks for runtime {substrate.runtime.jvm.name!r}, "
                f"channel for {self.runtime.jvm.name!r}"
            )

    def send(self, roots: Sequence[int],
             digest: Optional[bool] = None) -> SendReceipt:
        """Ship one epoch carrying ``roots``, mode per the policy's plan.
        ``digest=None`` lets the executed plan decide."""
        with obs.span("exchange.send", substrate=self.kind,
                      destination=self.destination) as sp:
            if self.closed:
                raise ExchangeError(
                    f"channel to {self.destination!r} is closed")
            roots = list(roots)
            if not roots:
                raise ExchangeError("send() needs at least one root")
            channel = self._channel
            snaps = [(clock, clock.snapshot()) for clock in self._clocks]

            def deliver(frame: bytes) -> dict:
                return self.substrate.deliver_epoch(
                    frame, channel.channel_id, channel.epoch,
                    bool(channel.last_plan.digest) if digest is None
                    else digest)

            # The phase labels the framing.  Delivery charges this clock
            # nothing unlabelled: the simulated wire charges NETWORK by
            # name, and an in-process receive runs under its own phase.
            with self.runtime.jvm.clock.phase(Category.SERIALIZATION):
                result, shipped = channel.ship(roots, deliver)
            for clock, snap in snaps:
                for category, seconds in clock.since(snap).items():
                    if seconds:
                        self._sim_totals[category] = (
                            self._sim_totals.get(category, 0.0) + seconds)
            executed = channel.last_plan
            receipt = SendReceipt(
                mode=executed.mode,
                reason=executed.reason,
                epoch=channel.epoch,
                wire_bytes=sum(map(len, shipped)),
                frame=shipped[-1],
                roots=tuple(result.get("root_addresses", ())),
                digest=result.get("digest"),
                nack_recovered=len(shipped) > 1,
                result=result,
                plan=executed,
            )
            self.sends += 1
            self.wire_bytes += receipt.wire_bytes
            self.nack_recoveries += receipt.nack_recovered
            reg = obs.registry()
            labels = dict(substrate=self.kind, destination=self.destination)
            reg.counter("exchange.sends", **labels)
            reg.gauge("exchange.bytes_per_epoch",
                      self.wire_bytes / self.sends, **labels)
            reg.gauge("exchange.mutation_rate", executed.mutation_rate,
                      **labels)
            sp.set(mode=receipt.mode, epoch=receipt.epoch,
                   wire_bytes=receipt.wire_bytes,
                   nack=receipt.nack_recovered)
        return receipt

    def rebind(self, substrate) -> None:
        """Point this channel at a replacement connection (typically to a
        restarted worker).  The epoch record is kept: the next delta draws
        the fresh worker's NACK and converges through the forced FULL."""
        self._check(substrate)
        self.substrate = substrate

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        obs.registry().deregister_source(self._obs_source)
        self._channel.close()

    @property
    def channel_id(self) -> int:
        return self._channel.channel_id

    @property
    def epoch(self) -> int:
        return self._channel.epoch

    @property
    def last_plan(self) -> Optional[SendPlan]:
        return self._channel.last_plan

    @property
    def policy(self):
        return self._channel.policy

    @property
    def stats(self) -> ChannelStats:
        return self._channel.stats

    def metrics(self) -> Dict[str, object]:
        """This channel's registry source, JSON-safe: the simulated
        breakdown it charged, the delta ledger, the policy's last plan,
        and the substrate's wire counters (None in-process)."""
        stats = self._channel.stats
        plan = self._channel.last_plan
        return {
            "substrate": self.kind,
            "destination": self.destination,
            "channel_id": self._channel.channel_id,
            "sends": self.sends,
            "wire_bytes": self.wire_bytes,
            "nack_recoveries": self.nack_recoveries,
            "breakdown": Breakdown.from_totals(
                self._sim_totals, bytes_written=self.wire_bytes).as_dict(),
            "delta": dataclasses.asdict(stats)
            | {"bytes_total": stats.bytes_total},
            "transport": (None if self.kind == "loopback"
                          else self.substrate.metrics.as_dict()),
            "last_plan": plan.as_dict() if plan is not None else None,
        }
