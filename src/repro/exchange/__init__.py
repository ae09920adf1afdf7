"""repro.exchange — one layer for every send mode over every substrate.

Before this package, three ad-hoc forks decided how an object graph moved:
the serializer sniffed delta frames, ``SparkContext`` forked on
``transport=``, and the socket worker only placed full streams.  Now the
stack is::

    applications (PageRank, TPC-H, benchmarks)
        └── engines (repro.spark, repro.flink)
              └── exchange (GraphChannel + Exchange)     <- this package
                    ├── loopback substrate (in-process, simulated wire)
                    └── socket substrate (worker processes, real TCP)
                          └── managed heaps (repro.core / repro.heap)

A :class:`GraphChannel` negotiates capabilities (kernel fast path, delta
epochs, parallel streams) against its substrate's offer and ships epochs
through one send body — a substrate is only how a frame is delivered, and
NACK recovery is :meth:`~repro.delta.channel.DeltaSendChannel.ship`'s on
both; an :class:`Exchange` hands out channels, blob transfers
and parallel sends for one cluster; :class:`ExchangeMetrics` merges the
simulated breakdown, the delta ledger, and the measured transport counters
into one JSON-exportable snapshot per channel.
"""

from repro.exchange.capabilities import (
    ChannelCapabilities,
    DEFAULT_REQUEST,
    LOOPBACK_OFFER,
    SOCKET_OFFER,
)
from repro.exchange.channel import GraphChannel, SendReceipt
from repro.exchange.dispatch import receive_epoch
from repro.exchange.errors import (
    DeltaStaleError,
    ExchangeConfigError,
    ExchangeError,
    ExchangeProtocolError,
)
from repro.exchange.loopback import LoopbackGraphChannel
from repro.exchange.metrics import ExchangeMetrics
from repro.exchange.service import Exchange
from repro.exchange.socket import SocketGraphChannel

__all__ = [
    "ChannelCapabilities",
    "DEFAULT_REQUEST",
    "DeltaStaleError",
    "Exchange",
    "ExchangeConfigError",
    "ExchangeError",
    "ExchangeMetrics",
    "ExchangeProtocolError",
    "GraphChannel",
    "LOOPBACK_OFFER",
    "LoopbackGraphChannel",
    "SOCKET_OFFER",
    "SendReceipt",
    "SocketGraphChannel",
    "receive_epoch",
]
