"""The :class:`PolicyEngine`: per-channel history + one decision point.

Every mode decision in the repo funnels through ``engine.plan(signals,
capabilities)``:

* the engine folds its per-channel history into the signals (byte-fraction
  EWMA, measured-bandwidth EWMA, the policy's last chosen mode for
  hysteresis),
* the policy's decision table emits a :class:`SendPlan`,
* the negotiated capabilities clamp it,
* and the decision is emitted as a ``policy.decide`` span plus a
  ``policy.decisions`` counter — so a trace says *why* each epoch shipped
  the way it did.

One engine may serve many channels (``Fleet`` shares one across all
broadcast receivers): history is keyed by channel id, so a slow peer's
bandwidth EWMA degrades only its own channel's plans.

Transport layers close the loop through :meth:`observe_transfer` — the
measured wire seconds of each shipped frame feed the bandwidth EWMA that
drives the adaptive policy's stream-count choice.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro import obs
from repro.policy.plan import SendPlan
from repro.policy.policies import DecisionTable, resolve_policy
from repro.policy.signals import ChannelSignals

#: Reasons that represent the policy's own steady-state choice; only
#: these update the hysteresis anchor (a forced or first-epoch FULL must
#: not push the adaptive policy into its full regime).
_REGIME_REASONS = ("delta", "mutation_crossover", "static_full")


@dataclasses.dataclass
class ChannelHistory:
    """What the engine remembers about one channel between epochs."""

    byte_fraction_ewma: Optional[float] = None
    bandwidth_bps: Optional[float] = None
    last_mode: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class PolicyEngine:
    """One decision engine, any number of channels."""

    def __init__(self, policy="crossover", alpha: float = 0.5) -> None:
        self.policy: DecisionTable = resolve_policy(policy)
        #: EWMA smoothing weight of the newest observation.  Seeded at the
        #: first observation (no warm-up bias), so a jump to 100% mutation
        #: still moves the smoothed fraction by ``alpha`` in one epoch.
        self.alpha = alpha
        self.decisions = 0
        self._history: Dict[int, ChannelHistory] = {}

    # ------------------------------------------------------------------

    def history(self, channel_id: int) -> ChannelHistory:
        hist = self._history.get(channel_id)
        if hist is None:
            hist = self._history[channel_id] = ChannelHistory()
        return hist

    def _ewma(self, previous: Optional[float], value: float) -> float:
        if previous is None:
            return value
        return self.alpha * value + (1.0 - self.alpha) * previous

    # ------------------------------------------------------------------

    def plan(self, signals: ChannelSignals,
             capabilities=None) -> SendPlan:
        """Decide one epoch: history in, clamped :class:`SendPlan` out."""
        hist = self.history(signals.channel_id)
        if signals.has_mutation_observation:
            hist.byte_fraction_ewma = self._ewma(
                hist.byte_fraction_ewma, signals.byte_fraction)
        signals.byte_fraction_ewma = hist.byte_fraction_ewma
        signals.bandwidth_bps = hist.bandwidth_bps
        signals.last_mode = hist.last_mode

        with obs.span("policy.decide", policy=self.policy.name,
                      channel=signals.channel_id,
                      destination=signals.destination) as sp:
            plan = self.policy.decide(signals)
            if capabilities is not None:
                plan = plan.clamp(capabilities)
            sp.set(
                mode=plan.label, reason=plan.reason,
                streams=plan.streams, digest=plan.digest,
                dirty_fraction=round(signals.dirty_fraction, 6),
                byte_fraction_ewma=(
                    round(signals.byte_fraction_ewma, 6)
                    if signals.byte_fraction_ewma is not None else None),
                bandwidth_bps=signals.bandwidth_bps,
                clamped=",".join(plan.clamped) or None,
            )
        if plan.reason in _REGIME_REASONS:
            hist.last_mode = plan.mode
        self.decisions += 1
        obs.registry().counter(
            "policy.decisions", policy=self.policy.name,
            mode=plan.label, reason=plan.reason,
        )
        return plan

    def observe_transfer(self, channel_id: int, wire_bytes: int,
                         seconds: float) -> None:
        """Feed back one shipped frame's measured wire performance."""
        hist = self.history(channel_id)
        if wire_bytes > 0 and seconds > 1e-9:
            hist.bandwidth_bps = self._ewma(
                hist.bandwidth_bps, wire_bytes / seconds)

    def snapshot(self) -> Dict[str, object]:
        return {
            "policy": self.policy.name,
            "decisions": self.decisions,
            "channels": {
                cid: hist.as_dict()
                for cid, hist in sorted(self._history.items())
            },
        }


# ---------------------------------------------------------------------------


def resolve_engine(policy=None, default: str = "crossover") -> PolicyEngine:
    """Normalize every ``policy=`` spelling onto one engine: None
    (→ ``default``), a policy name, a
    :class:`~repro.policy.policies.DecisionTable`, or an existing
    :class:`PolicyEngine` (shared, returned as-is)."""
    if isinstance(policy, PolicyEngine):
        return policy
    return PolicyEngine(default if policy is None else policy)
