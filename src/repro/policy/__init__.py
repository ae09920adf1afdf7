"""repro.policy — the adaptive send-policy plane.

One decision engine for every transfer-mode choice in the repo: full vs
delta (§4.3's crossover), compiled-kernel vs interpreted traversal,
single vs parallel streams (§4.2), the digest knob.  Per channel per
epoch, a :class:`PolicyEngine` turns live
:class:`ChannelSignals` (card-table dirty fraction, measured wire
bandwidth, chunk-queue wait, channel history) into a :class:`SendPlan`
via a declarative :class:`DecisionTable`; capability negotiation clamps
the plan, channels execute it, and the decision lands in the
:class:`~repro.exchange.channel.SendReceipt` and the trace
(``policy.decide`` spans + ``policy.decisions`` counters).

Import discipline: this package imports :mod:`repro.obs` and stdlib only,
so every layer — ``repro.delta``, ``repro.exchange``, ``repro.spark``,
``repro.cluster`` — can consume plans without cycles.
"""

from repro.policy.engine import ChannelHistory, PolicyEngine, resolve_engine
from repro.policy.plan import NON_FALLBACK_REASONS, SendPlan
from repro.policy.policies import (
    AdaptivePolicy,
    AlwaysDelta,
    AlwaysFull,
    CrossoverPolicy,
    DecisionTable,
    PolicyError,
    Rule,
    guard_rules,
    resolve_policy,
)
from repro.policy.signals import ChannelSignals

__all__ = [
    "AdaptivePolicy",
    "AlwaysDelta",
    "AlwaysFull",
    "ChannelHistory",
    "ChannelSignals",
    "CrossoverPolicy",
    "DecisionTable",
    "NON_FALLBACK_REASONS",
    "PolicyEngine",
    "PolicyError",
    "Rule",
    "SendPlan",
    "guard_rules",
    "resolve_engine",
    "resolve_policy",
]
