"""Channel capability negotiation.

A :class:`~repro.exchange.channel.GraphChannel` is opened with a
*requested* capability set; the substrate answers with its *offer*, and the
channel runs at the intersection — the same shape as a protocol feature
handshake, but resolved locally (the substrates' offers are static facts
about their implementations, not remote state).

Capabilities:

``kernel``
    Use the compiled per-class clone kernels as the traversal engine.
    Both substrates offer it (it changes Python work, not bytes); a
    channel requesting ``kernel=False`` pins the interpreted executable
    spec — the heterogeneous-layout fallback does this implicitly.
``delta``
    Epoch-based incremental transfer: the channel keeps an epoch record
    and a dirty card table, and frames DELTA epochs when the policy says
    they pay.  Offered by both substrates (the socket worker routes delta
    frames by channel id).
``parallel_streams``
    Upper bound on concurrent streams a ``parallel-N`` plan (or a direct
    ``Exchange.parallel_send``) may use toward this destination.

Negotiation answers *what the channel could do*; the policy plane's
:class:`~repro.policy.engine.PolicyEngine` decides *what each epoch does*
within those bounds.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass(frozen=True)
class ChannelCapabilities:
    """One side's capability set; ``intersect`` resolves a negotiation."""

    kernel: bool = True
    delta: bool = False
    parallel_streams: int = 1

    def intersect(self, other: "ChannelCapabilities") -> "ChannelCapabilities":
        return ChannelCapabilities(
            kernel=self.kernel and other.kernel,
            delta=self.delta and other.delta,
            parallel_streams=max(
                1, min(self.parallel_streams, other.parallel_streams)
            ),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "delta": self.delta,
            "parallel_streams": self.parallel_streams,
        }


#: What the in-process substrate can do.
LOOPBACK_OFFER = ChannelCapabilities(
    kernel=True, delta=True, parallel_streams=64,
)

#: What the socket substrate can do.
SOCKET_OFFER = ChannelCapabilities(
    kernel=True, delta=True, parallel_streams=16,
)

#: The default request: every fast path on, sized for one stream.
DEFAULT_REQUEST = ChannelCapabilities(
    kernel=True, delta=True, parallel_streams=1,
)
