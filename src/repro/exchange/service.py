"""The :class:`Exchange`: one object answering "how do bytes move here?".

Engines (Spark, Flink, benchmarks) never pick a transport branch — they
hold an ``Exchange`` and ask it for what they need:

* :meth:`~Exchange.substrate_for` — what delivers epochs to a node: its
  connected :class:`~repro.transport.client.WorkerClient`, or an in-process
  :class:`~repro.exchange.loopback.Loopback` over the simulated wire;
* :meth:`~Exchange.transfer_blob` — opaque bytes to a node (the broadcast
  path);
* :meth:`~Exchange.channel_to` — a
  :class:`~repro.exchange.channel.GraphChannel` from the driver to a node.

(§4.2's sending threads live in :mod:`repro.core`: one output buffer per
(destination, thread), the baddr thread field and the per-stream shared
table, which ``SparkConfig.shuffle_threads`` drives; no plan routes to
them.)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.exchange.channel import GraphChannel
from repro.exchange.errors import ExchangeConfigError
from repro.exchange.loopback import Loopback
from repro.net.cluster import Cluster, Node


def _runtime_of_node(node: Node, role: str):
    runtime = node.jvm.skyway
    if runtime is None:
        raise ExchangeConfigError(
            f"{role} node {node.name!r} has no Skyway runtime attached "
            f"(repro.core.attach_skyway)"
        )
    return runtime


class Exchange:
    """One cluster's data movement.  ``clients`` maps cluster worker names
    to connected worker clients (the socket substrate); without it, bytes
    move in-process over the simulated cluster wire."""

    def __init__(
        self,
        cluster: Cluster,
        clients: Optional[Dict[str, object]] = None,
    ) -> None:
        self.cluster = cluster
        self.clients = dict(clients) if clients is not None else None
        self._channels: List[GraphChannel] = []

    def substrate_for(self, name: str):
        """What delivers epochs from the driver to the named node."""
        if self.clients is None:
            dst = self.cluster.node(name)
            return Loopback(_runtime_of_node(dst, "receiving"),
                            self.cluster, self.cluster.driver, dst)
        client = self.clients.get(name)
        if client is None:
            raise ExchangeConfigError(
                f"no socket worker registered for cluster node {name!r}"
            )
        return client

    def transfer_blob(self, src: Node, dst: Node, data: bytes) -> None:
        """Move opaque bytes to ``dst`` and account them on its fetch
        counters — the broadcast path, substrate-independent."""
        if self.clients is None:
            self.cluster.transfer(src, dst, len(data))
            return
        self.substrate_for(dst.name).send_blob(data)
        dst.account_fetch(len(data), remote=src is not dst)

    def channel_to(self, destination: str, policy=None,
                   channel_id: Optional[int] = None) -> GraphChannel:
        """Open a graph channel from the driver to the named node."""
        runtime = _runtime_of_node(self.cluster.driver, "sending")
        channel = GraphChannel(
            runtime, self.substrate_for(destination), policy=policy,
            channel_id=channel_id, destination=destination,
        )
        # Forget what callers already closed: a long-lived exchange hands
        # out channels per send and must not pin every one it ever opened.
        self._channels = [c for c in self._channels if not c.closed]
        self._channels.append(channel)
        return channel

    def close(self) -> None:
        """Close every channel this exchange opened (releasing card
        tables) and, on the socket substrate, every worker connection."""
        for channel in self._channels:
            channel.close()
        self._channels = []
        if self.clients is not None:
            for client in self.clients.values():
                client.close()
