"""repro.policy — the adaptive send-policy plane.

One decision point for every transfer-mode choice in the repo: full vs
delta (§4.3's crossover), the digest knob and the post-encode byte
budget.  Per channel per epoch, the channel folds its own history
(byte-fraction EWMA, last regime) into live :class:`ChannelSignals`
(card-table dirty fraction, resident size, GC and protocol flags) and a
stateless policy's ``decide(signals)`` returns a :class:`SendPlan`;
the channel's one send body executes it, and the decision lands in the
:class:`~repro.exchange.channel.SendReceipt` and the trace
(``policy.decide`` spans + ``policy.decisions`` counters).  How an epoch
is traversed (compiled kernels or the interpreted spec) is the channel's
configuration, not a per-epoch choice.

Import discipline: this package imports only the stdlib, so every layer
— ``repro.delta``, ``repro.exchange``, ``repro.spark``, ``repro.cluster``
— can consume plans without cycles.
"""

from repro.policy.plan import NON_FALLBACK_REASONS, SendPlan
from repro.policy.policies import (
    BYTE_CROSSOVER,
    EWMA_WEIGHT,
    EXIT_FULL,
    REGIME_REASONS,
    AdaptivePolicy,
    AlwaysDelta,
    AlwaysFull,
    CrossoverPolicy,
    PolicyError,
    resolve_policy,
)
from repro.policy.signals import ChannelSignals

__all__ = [
    "AdaptivePolicy",
    "AlwaysDelta",
    "AlwaysFull",
    "BYTE_CROSSOVER",
    "ChannelSignals",
    "CrossoverPolicy",
    "EWMA_WEIGHT",
    "EXIT_FULL",
    "NON_FALLBACK_REASONS",
    "PolicyError",
    "REGIME_REASONS",
    "SendPlan",
    "resolve_policy",
]
