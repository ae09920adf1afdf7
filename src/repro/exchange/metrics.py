"""Unified per-channel observability.

Before the exchange layer, three ledgers existed and never met: the
simulated :class:`~repro.simtime.Breakdown` (what the cost model predicts),
the measured :class:`~repro.transport.metrics.TransportMetrics` (what the
wire did), and the delta :class:`~repro.delta.channel.ChannelStats` (what
the epoch protocol decided).  :class:`ExchangeMetrics` is the one snapshot
merging all three for one channel — JSON-exportable, consumed by
anything tracking send behavior across runs.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Mapping, Optional

from repro.delta.channel import ChannelStats
from repro.simtime import Breakdown, Category


def delta_stats_dict(stats: ChannelStats) -> Dict[str, object]:
    out = dataclasses.asdict(stats)
    out["bytes_total"] = stats.bytes_total
    return out


@dataclasses.dataclass
class ExchangeMetrics:
    """One channel's merged ledger at snapshot time."""

    substrate: str
    destination: str
    channel_id: int
    capabilities: Dict[str, object]
    #: Exchange-level sends (one per ``send()`` call; a NACK recovery is
    #: one send shipping two wire frames).
    sends: int
    wire_bytes: int
    nack_recoveries: int
    #: Simulated clock seconds this channel charged, by category.
    breakdown: Breakdown
    #: The epoch protocol's ledger (full/delta counts, fallbacks, ...).
    delta: Dict[str, object]
    #: Measured wire counters; None on the loopback substrate (no wire).
    transport: Optional[Dict[str, object]] = None
    #: The policy plane's most recent (clamped) decision on this channel,
    #: as :meth:`~repro.policy.plan.SendPlan.as_dict`.
    last_plan: Optional[Dict[str, object]] = None

    @property
    def bytes_per_epoch(self) -> float:
        """Mean wire bytes per exchange-level send."""
        return self.wire_bytes / self.sends if self.sends else 0.0

    @property
    def mutation_rate(self) -> float:
        """The dirty fraction behind the latest decision (0 when the
        channel has not observed a mutation epoch yet)."""
        if self.last_plan is None:
            return 0.0
        return float(self.last_plan.get("mutation_rate", 0.0))

    def as_dict(self) -> Dict[str, object]:
        return {
            "substrate": self.substrate,
            "destination": self.destination,
            "channel_id": self.channel_id,
            "capabilities": dict(self.capabilities),
            "sends": self.sends,
            "wire_bytes": self.wire_bytes,
            "bytes_per_epoch": self.bytes_per_epoch,
            "mutation_rate": self.mutation_rate,
            "nack_recoveries": self.nack_recoveries,
            "breakdown": self.breakdown.as_dict(),
            "delta": dict(self.delta),
            "transport": (dict(self.transport)
                          if self.transport is not None else None),
            "last_plan": (dict(self.last_plan)
                          if self.last_plan is not None else None),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def build(
        cls,
        substrate: str,
        destination: str,
        channel_id: int,
        capabilities: Dict[str, object],
        sends: int,
        wire_bytes: int,
        nack_recoveries: int,
        sim_totals: Mapping[Category, float],
        stats: ChannelStats,
        transport: Optional[Dict[str, object]] = None,
        last_plan: Optional[Dict[str, object]] = None,
    ) -> "ExchangeMetrics":
        return cls(
            substrate=substrate,
            destination=destination,
            channel_id=channel_id,
            capabilities=capabilities,
            sends=sends,
            wire_bytes=wire_bytes,
            nack_recoveries=nack_recoveries,
            breakdown=Breakdown.from_totals(
                dict(sim_totals), bytes_written=wire_bytes,
            ),
            delta=delta_stats_dict(stats),
            transport=transport,
            last_plan=last_plan,
        )
