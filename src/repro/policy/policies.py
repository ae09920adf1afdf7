"""Send policies as declarative decision tables.

A policy is a :class:`DecisionTable`: an ordered list of
``Rule(reason, when, make)`` rows walked top to bottom; the first row
whose predicate matches the epoch's :class:`ChannelSignals` emits the
:class:`SendPlan` (stamped with the rule's reason and the table's name).
Every table shares the same guard prefix — forced resync, delta declined,
heterogeneous layout, first epoch, GC moved the record — so the protocol
invariants hold whatever policy sits below them.

Four policies behind the one protocol:

* :class:`AlwaysFull` / :class:`AlwaysDelta` — the static corners, the
  hand-picked baselines the adaptive engine is tested against.
* :class:`CrossoverPolicy` — the mutation-byte crossover (§4.3's
  full-vs-delta argument) as one table row, with the post-encode budget
  and the negative-crossover degenerate case (``byte_crossover < 0``
  forces full every epoch).
* :class:`AdaptivePolicy` — the closed loop: EWMA-smoothed byte fraction
  with a hysteresis band (enter full above ``enter_full``, return to
  delta only below ``exit_full`` — oscillating workloads don't flap).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

from repro.policy.plan import SendPlan
from repro.policy.signals import ChannelSignals


class PolicyError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class Rule:
    """One table row: first matching predicate wins."""

    reason: str
    when: Callable[[ChannelSignals], bool]
    make: Callable[[ChannelSignals], SendPlan]


class DecisionTable:
    """An ordered rule list behind the one ``decide(signals)`` protocol."""

    name = "table"

    def __init__(self, name: str, rules: Sequence[Rule]) -> None:
        self.name = name
        self.rules = list(rules)

    def decide(self, signals: ChannelSignals) -> SendPlan:
        for rule in self.rules:
            if rule.when(signals):
                plan = rule.make(signals)
                return dataclasses.replace(
                    plan, reason=rule.reason, policy=self.name
                )
        raise PolicyError(
            f"decision table {self.name!r} has no matching rule "
            f"(epoch {signals.epoch} to {signals.destination!r})"
        )

    def rule_reasons(self) -> List[str]:
        return [rule.reason for rule in self.rules]


# ---------------------------------------------------------------------------
# plan constructors
# ---------------------------------------------------------------------------

def _bare_full(_signals: ChannelSignals) -> SendPlan:
    """A guard-rule full: no mutation observation backs it, so it carries
    a zero rate/estimate."""
    return SendPlan(mode="full")


def _measured_full(signals: ChannelSignals) -> SendPlan:
    return SendPlan(
        mode="full",
        mutation_rate=signals.dirty_fraction,
        estimated_bytes=signals.estimated_delta_bytes,
    )


def _delta(signals: ChannelSignals,
           byte_budget: Optional[float] = None) -> SendPlan:
    return SendPlan(
        mode="delta", byte_budget=byte_budget,
        mutation_rate=signals.dirty_fraction,
        estimated_bytes=signals.estimated_delta_bytes,
    )


def guard_rules(first_epoch_digest: bool = False) -> List[Rule]:
    """The shared guard prefix every policy table starts with."""
    def first_full(signals: ChannelSignals) -> SendPlan:
        return SendPlan(mode="full", digest=first_epoch_digest)

    return [
        Rule("forced", lambda s: s.forced_full, _bare_full),
        Rule("delta_disabled", lambda s: not s.delta_capable, _bare_full),
        Rule("heterogeneous", lambda s: s.heterogeneous, _bare_full),
        Rule("first_epoch", lambda s: s.first_epoch, first_full),
        Rule("gc_moved", lambda s: s.gc_moved, _bare_full),
    ]


# ---------------------------------------------------------------------------
# the policies
# ---------------------------------------------------------------------------

class AlwaysFull(DecisionTable):
    """Static corner: every epoch FULL."""

    def __init__(self) -> None:
        super().__init__("always_full", guard_rules() + [
            Rule("static_full", lambda s: True, _measured_full),
        ])


class AlwaysDelta(DecisionTable):
    """Static corner: every epoch DELTA, no byte budget (never reverts
    post-encode) — the baseline that shows where deltas stop paying."""

    def __init__(self) -> None:
        super().__init__("always_delta", guard_rules() + [
            Rule("delta", lambda s: True, _delta),
        ])


class CrossoverPolicy(DecisionTable):
    """The mutation-byte crossover as one table row."""

    def __init__(self, byte_crossover: float = 0.5) -> None:
        self.byte_crossover = byte_crossover
        super().__init__("crossover", guard_rules() + [
            Rule("mutation_crossover",
                 lambda s: (s.estimated_delta_bytes
                            > byte_crossover * s.resident_bytes),
                 _measured_full),
            Rule("delta", lambda s: True,
                 lambda s: _delta(
                     s, byte_budget=byte_crossover * s.resident_bytes)),
        ])


class AdaptivePolicy(DecisionTable):
    """The closed loop: EWMA byte fraction + hysteresis."""

    def __init__(
        self,
        enter_full: float = 0.5,
        exit_full: float = 0.35,
        digest_bootstrap: bool = True,
    ) -> None:
        if exit_full > enter_full:
            raise PolicyError(
                f"hysteresis band inverted: exit_full {exit_full} > "
                f"enter_full {enter_full}"
            )
        self.enter_full = enter_full
        self.exit_full = exit_full
        super().__init__(
            "adaptive",
            guard_rules(first_epoch_digest=digest_bootstrap) + [
                Rule("mutation_crossover", self._in_full_regime,
                     _measured_full),
                Rule("delta", lambda s: True,
                     lambda s: _delta(
                         s, byte_budget=self.enter_full * s.resident_bytes)),
            ])

    def _fraction(self, signals: ChannelSignals) -> float:
        if signals.byte_fraction_ewma is not None:
            return signals.byte_fraction_ewma
        return signals.byte_fraction

    def _in_full_regime(self, signals: ChannelSignals) -> bool:
        fraction = self._fraction(signals)
        if signals.last_mode == "full":
            # Already in the full regime: stay until the smoothed
            # fraction drops *below the band* — an oscillating mutation
            # rate straddling one threshold cannot flap the mode.
            return fraction > self.exit_full
        return fraction > self.enter_full


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------

_FACTORIES = {
    "crossover": CrossoverPolicy,
    "adaptive": AdaptivePolicy,
    "full": AlwaysFull,
    "always_full": AlwaysFull,
    "delta": AlwaysDelta,
    "always_delta": AlwaysDelta,
}


def resolve_policy(policy) -> DecisionTable:
    """A :class:`DecisionTable` from a name or an instance."""
    if isinstance(policy, DecisionTable):
        return policy
    if isinstance(policy, str):
        factory = _FACTORIES.get(policy)
        if factory is None:
            raise PolicyError(
                f"unknown policy {policy!r} "
                f"(known: {', '.join(sorted(_FACTORIES))})"
            )
        return factory()
    raise PolicyError(
        f"cannot resolve a send policy from {type(policy).__name__}"
    )
