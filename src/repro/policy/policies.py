"""Send policies: four pure decisions over one guard.

A policy maps one epoch's :class:`ChannelSignals` to a :class:`SendPlan`
and holds no state: each channel folds its own history (byte-fraction
EWMA, the regime the policy last chose) into the signals before it asks,
so one policy instance may serve any number of channels.  Every policy
checks the same guard first — forced resync, delta declined,
heterogeneous layout, first epoch, GC moved the record — so the protocol
invariants hold whatever policy sits below it.

* :class:`AlwaysFull` / :class:`AlwaysDelta` — the static corners, the
  hand-picked baselines the adaptive policy is tested against.
* :class:`CrossoverPolicy` — the mutation-byte crossover (§4.3's
  full-vs-delta argument): FULL once the estimated delta exceeds
  :data:`BYTE_CROSSOVER` of the resident bytes, else DELTA under that
  post-encode budget.
* :class:`AdaptivePolicy` — the closed loop: the EWMA-smoothed byte
  fraction with a hysteresis band (enter full above
  :data:`BYTE_CROSSOVER`, return to delta only below :data:`EXIT_FULL` —
  oscillating workloads don't flap).
"""

from __future__ import annotations

from typing import Optional

from repro.policy.plan import SendPlan
from repro.policy.signals import ChannelSignals

#: The full-vs-delta crossover as a fraction of the resident bytes: the
#: crossover threshold, both policies' delta byte budget, and adaptive's
#: enter-full bound.
BYTE_CROSSOVER = 0.5
#: Adaptive's return-to-delta bound, the bottom of the hysteresis band.
EXIT_FULL = 0.35
#: Weight of the newest observation in a channel's byte-fraction EWMA.
#: Seeded at the first observation (no warm-up bias), so a jump to 100%
#: mutation still moves the smoothed fraction by this much in one epoch.
EWMA_WEIGHT = 0.5
#: Reasons that are the policy's own steady-state choice; only these move
#: a channel's regime (a forced or first-epoch FULL must not push the
#: adaptive policy into its full regime).
REGIME_REASONS = ("delta", "mutation_crossover", "static_full")


class PolicyError(RuntimeError):
    pass


def _guard(signals: ChannelSignals) -> Optional[str]:
    """Why a protocol invariant rules out a delta this epoch, or None.
    Every policy checks this first, in this order."""
    if signals.forced_full:
        return "forced"
    if not signals.delta_capable:
        return "delta_disabled"
    if signals.heterogeneous:
        return "heterogeneous"
    if signals.first_epoch:
        return "first_epoch"
    if signals.gc_moved:
        return "gc_moved"
    return None


def _guarded_full(reason: str, policy: str, digest: bool = False) -> SendPlan:
    """A guard's FULL: no mutation observation backs it, so it carries a
    zero rate/estimate."""
    return SendPlan(mode="full", reason=reason, policy=policy, digest=digest)


def _measured(signals: ChannelSignals, mode: str, reason: str, policy: str,
              byte_budget: Optional[float] = None) -> SendPlan:
    return SendPlan(
        mode=mode, reason=reason, policy=policy, byte_budget=byte_budget,
        mutation_rate=signals.dirty_fraction,
        estimated_bytes=signals.estimated_delta_bytes,
    )


class AlwaysFull:
    """Static corner: every epoch FULL."""

    name = "always_full"

    def decide(self, signals: ChannelSignals) -> SendPlan:
        reason = _guard(signals)
        if reason is not None:
            return _guarded_full(reason, self.name)
        return _measured(signals, "full", "static_full", self.name)


class AlwaysDelta:
    """Static corner: every epoch DELTA, no byte budget (never reverts
    post-encode) — the baseline that shows where deltas stop paying."""

    name = "always_delta"

    def decide(self, signals: ChannelSignals) -> SendPlan:
        reason = _guard(signals)
        if reason is not None:
            return _guarded_full(reason, self.name)
        return _measured(signals, "delta", "delta", self.name)


class CrossoverPolicy:
    """The memoryless mutation-byte crossover."""

    name = "crossover"

    def decide(self, signals: ChannelSignals) -> SendPlan:
        reason = _guard(signals)
        if reason is not None:
            return _guarded_full(reason, self.name)
        budget = BYTE_CROSSOVER * signals.resident_bytes
        if signals.estimated_delta_bytes > budget:
            return _measured(signals, "full", "mutation_crossover", self.name)
        return _measured(signals, "delta", "delta", self.name, budget)


class AdaptivePolicy:
    """The closed loop: EWMA byte fraction + hysteresis.  The first epoch
    asks the receiver for a digest (the bootstrap parity check)."""

    name = "adaptive"

    def decide(self, signals: ChannelSignals) -> SendPlan:
        reason = _guard(signals)
        if reason is not None:
            return _guarded_full(reason, self.name,
                                 digest=reason == "first_epoch")
        fraction = signals.byte_fraction_ewma
        if fraction is None:
            fraction = signals.byte_fraction
        # Already in the full regime: stay until the smoothed fraction
        # drops *below the band* — an oscillating mutation rate straddling
        # one threshold cannot flap the mode.
        bound = EXIT_FULL if signals.last_mode == "full" else BYTE_CROSSOVER
        if fraction > bound:
            return _measured(signals, "full", "mutation_crossover", self.name)
        return _measured(signals, "delta", "delta", self.name,
                         BYTE_CROSSOVER * signals.resident_bytes)


_POLICIES = {cls.name: cls for cls in (
    CrossoverPolicy, AdaptivePolicy, AlwaysFull, AlwaysDelta)}


def resolve_policy(policy=None, default: str = "crossover"):
    """Normalize every ``policy=`` spelling onto one policy: None (→
    ``default``), a policy name, or a policy instance (returned as-is —
    a policy holds no state, so channels may share one)."""
    if policy is None:
        policy = default
    if isinstance(policy, tuple(_POLICIES.values())):
        return policy
    if isinstance(policy, str):
        cls = _POLICIES.get(policy)
        if cls is None:
            raise PolicyError(
                f"unknown policy {policy!r} "
                f"(known: {', '.join(sorted(_POLICIES))})"
            )
        return cls()
    raise PolicyError(
        f"cannot resolve a send policy from {type(policy).__name__}"
    )
