"""The :class:`SendPlan`: one decision, every knob, clamped by negotiation.

A plan is what a policy *wants* for the next epoch — mode, stream count,
digest, the post-encode byte budget — and what every decision site
consumes.  Nothing below the policy plane chooses a mode anymore:
channels execute plans, and :meth:`SendPlan.clamp` is where
capability negotiation bounds what the engine may choose.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

#: Reasons that are a policy's steady-state choice, not a reversion worth
#: counting against it in ``ChannelStats.fallbacks``.
NON_FALLBACK_REASONS = ("delta", "first_epoch", "delta_disabled",
                        "static_full")


@dataclasses.dataclass(frozen=True)
class SendPlan:
    """What one epoch should do, as decided by a policy.

    ``mode`` is the frame kind ("full" | "delta"); :attr:`label` folds the
    execution variant in ("kernel-full", "parallel-4").  ``kernel=None``
    inherits the channel's configured clone engine.  ``byte_budget`` is
    the post-encode gate: a delta frame larger than it is discarded and
    the epoch reverts to FULL (reason ``encoded_overrun``).
    """

    mode: str  # "full" | "delta"
    reason: str = "?"
    policy: str = "?"
    kernel: Optional[bool] = None
    streams: int = 1
    digest: bool = False
    byte_budget: Optional[float] = None
    mutation_rate: float = 0.0
    estimated_bytes: int = 0
    #: Capability names the clamp had to bound ("delta", "streams", ...).
    clamped: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        """The human-facing mode: full / delta / kernel-full / parallel-N."""
        if self.mode == "full":
            if self.streams > 1:
                return f"parallel-{self.streams}"
            if self.kernel:
                return "kernel-full"
        return self.mode

    def clamp(self, caps) -> "SendPlan":
        """Bound this plan by a negotiated capability set (anything with
        ``kernel`` / ``delta`` / ``parallel_streams`` attributes).
        Negotiation *bounds* what the engine chose; it never upgrades a
        plan."""
        clamped = []
        mode, reason, budget = self.mode, self.reason, self.byte_budget
        if mode == "delta" and not caps.delta:
            mode, reason, budget = "full", "delta_disabled", None
            clamped.append("delta")
        kernel = self.kernel
        if not caps.kernel:
            if kernel is None or kernel:
                clamped.append("kernel")
            kernel = False
        elif kernel is None:
            # The offer allows kernels; resolve "inherit" to the
            # negotiated value so the label is honest.
            kernel = True
        streams = self.streams
        limit = max(1, caps.parallel_streams) if mode == "full" else 1
        if streams > limit:
            streams = limit
            clamped.append("streams")
        if not clamped and kernel == self.kernel:
            return self
        return dataclasses.replace(
            self, mode=mode, reason=reason, kernel=kernel,
            streams=streams, byte_budget=budget,
            clamped=self.clamped + tuple(clamped),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "label": self.label,
            "reason": self.reason,
            "policy": self.policy,
            "kernel": self.kernel,
            "streams": self.streams,
            "digest": self.digest,
            "byte_budget": self.byte_budget,
            "mutation_rate": self.mutation_rate,
            "estimated_bytes": self.estimated_bytes,
            "clamped": list(self.clamped),
        }
