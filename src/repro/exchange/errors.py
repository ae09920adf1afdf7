"""The exchange layer's error taxonomy.

:class:`ExchangeError` is the base; :class:`ExchangeProtocolError` wraps
every malformed-epoch failure (truncated or bit-flipped FULL/DELTA frames,
unparseable embedded streams) so callers of
:meth:`~repro.exchange.loopback.Loopback.deliver_epoch` catch one type.
:class:`~repro.delta.channel.DeltaStaleError` is re-exported, not wrapped:
staleness is the epoch protocol's NACK — control flow the channel answers
with a forced FULL, not corruption.
"""

from __future__ import annotations

from repro.delta.channel import DeltaStaleError  # re-exported


class ExchangeError(RuntimeError):
    """Base of everything the exchange layer raises itself."""


class ExchangeConfigError(ExchangeError):
    """The exchange was asked for something its configuration lacks
    (unknown worker, no Skyway runtime, unsupported substrate)."""


class ExchangeProtocolError(ExchangeError):
    """A received epoch frame could not be decoded or applied."""
