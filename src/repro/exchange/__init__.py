"""repro.exchange — one graph channel over every substrate.

The stack::

    applications (PageRank, TPC-H, benchmarks)
        └── engines (repro.spark, repro.flink, repro.cluster)
              └── exchange (GraphChannel + Exchange)     <- this package
                    └── a substrate's deliver_epoch
                          ├── Loopback (in-process, simulated wire)
                          └── WorkerClient (worker processes, real TCP)
                                └── managed heaps (repro.core / repro.heap)

A :class:`GraphChannel` ships every epoch through one send body around
:meth:`~repro.delta.channel.DeltaSendChannel.ship` (plan, frame, NACK
recovery); a substrate is only its ``deliver_epoch`` method.  An
:class:`Exchange` answers, for one cluster, the substrate for a node name,
blob transfers and channels from the driver.  Each channel's
:meth:`~GraphChannel.metrics` — the simulated breakdown, the delta ledger
and the wire counters — is its obs registry source.
"""

from repro.exchange.channel import (
    SOCKET_OFFER,
    ChannelCapabilities,
    GraphChannel,
    SendReceipt,
)
from repro.exchange.errors import (
    DeltaStaleError,
    ExchangeConfigError,
    ExchangeError,
    ExchangeProtocolError,
)
from repro.exchange.loopback import Loopback
from repro.exchange.service import Exchange

#: The name ``benchmarks/ledger`` imports the channel under.
SocketGraphChannel = GraphChannel

__all__ = [
    "ChannelCapabilities",
    "DeltaStaleError",
    "Exchange",
    "ExchangeConfigError",
    "ExchangeError",
    "ExchangeProtocolError",
    "GraphChannel",
    "Loopback",
    "SOCKET_OFFER",
    "SendReceipt",
    "SocketGraphChannel",
]
