"""Receiver-side dispatch: epoch bytes in, heap roots out, one entry point.

:func:`receive_epoch` applies one epoch frame (FULL/DELTA, ``0x10``/``0x11``
leading byte — stateful, routed by channel id through the runtime's
:class:`~repro.delta.channel.DeltaReceiveEndpoint`, which retains the
buffer across epochs).  Plain Skyway stream frames are not this module's:
:class:`~repro.core.adapter.SkywaySerializer` reads those itself, and an
epoch frame handed to it is a typed ``SkywayStreamError``.

Failure taxonomy: anything malformed (truncated frame, bit-flipped record,
unparseable embedded stream) surfaces as
:class:`~repro.exchange.errors.ExchangeProtocolError`;
:class:`~repro.delta.channel.DeltaStaleError` passes through untouched —
it is the epoch protocol's NACK, and senders react to it rather than
report it.
"""

from __future__ import annotations

from typing import List

from repro.core.runtime import SkywayRuntime
from repro.delta.channel import DeltaReceiveEndpoint, DeltaStaleError
from repro.exchange.errors import ExchangeProtocolError


def receive_epoch(runtime: SkywayRuntime, data: bytes) -> List[int]:
    """Apply one FULL/DELTA epoch frame on ``runtime``; returns the
    epoch's root addresses.  Staleness propagates; damage is wrapped."""
    endpoint = DeltaReceiveEndpoint.for_runtime(runtime)
    try:
        return endpoint.receive(data)
    except DeltaStaleError:
        raise
    except ExchangeProtocolError:
        raise
    except Exception as exc:
        raise ExchangeProtocolError(
            f"cannot apply epoch frame ({type(exc).__name__}: {exc})"
        ) from exc
