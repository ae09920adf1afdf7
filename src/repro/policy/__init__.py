"""repro.policy — the adaptive send-policy plane.

One decision engine for every transfer-mode choice in the repo: full vs
delta (§4.3's crossover), the digest knob and the post-encode byte
budget.  Per channel per epoch, a :class:`PolicyEngine` turns live
:class:`ChannelSignals` (card-table dirty fraction, resident size, GC
and protocol flags, channel history) into a :class:`SendPlan` via a
declarative :class:`DecisionTable`; capability negotiation clamps the
plan, the channel's one send body executes it, and the decision lands in
the :class:`~repro.exchange.channel.SendReceipt` and the trace
(``policy.decide`` spans + ``policy.decisions`` counters).  How an epoch
is traversed (compiled kernels or the interpreted spec) is the channel's
negotiated configuration, not a per-epoch choice.

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
