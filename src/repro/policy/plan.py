"""The :class:`SendPlan`: one decision, optionally clamped by capabilities.

A plan is what a policy *wants* for the next epoch — full or delta, the
digest knob, the post-encode byte budget — and what every decision site
consumes.  Nothing below the policy plane chooses a mode: channels
execute plans, and :meth:`SendPlan.clamp` is where a channel's
capabilities, when it was given any, bound what the policy may choose.
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

    ``mode`` is the frame kind ("full" | "delta").  ``byte_budget`` is
    the post-encode gate: a delta frame larger than it is discarded and
    the epoch reverts to FULL (reason ``encoded_overrun``).
    """

    mode: str  # "full" | "delta"
    reason: str = "?"
    policy: str = "?"
    digest: bool = False
    byte_budget: Optional[float] = None
    mutation_rate: float = 0.0
    estimated_bytes: int = 0
    #: Capability names the clamp had to bound (only "delta" today).
    clamped: Tuple[str, ...] = ()

    def clamp(self, caps) -> "SendPlan":
        """Bound this plan by a capability set (anything with a
        ``delta`` attribute): a delta plan on a delta-incapable channel
        goes full.  A clamp *bounds* what the policy chose; it never
        upgrades a plan."""
        if self.mode != "delta" or caps.delta:
            return self
        return dataclasses.replace(
            self, mode="full", reason="delta_disabled", byte_budget=None,
            clamped=self.clamped + ("delta",),
        )

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self) | {"clamped": list(self.clamped)}
