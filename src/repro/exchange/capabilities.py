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

Negotiation answers *what the channel could do*: ``kernel`` fixes the
channel's clone engine once, and the policy plane (:mod:`repro.policy`)
decides *what each epoch does* (full or delta) within the ``delta`` bound.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass(frozen=True)
class ChannelCapabilities:
    """One side's capability set; ``intersect`` resolves a negotiation."""

    kernel: bool = True
    delta: bool = False

    def intersect(self, other: "ChannelCapabilities") -> "ChannelCapabilities":
        return ChannelCapabilities(
            kernel=self.kernel and other.kernel,
            delta=self.delta and other.delta,
        )

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


#: What the in-process substrate can do.
LOOPBACK_OFFER = ChannelCapabilities(kernel=True, delta=True)

#: What the socket substrate can do.
SOCKET_OFFER = ChannelCapabilities(kernel=True, delta=True)

#: The default request: every fast path on.
DEFAULT_REQUEST = ChannelCapabilities(kernel=True, delta=True)
