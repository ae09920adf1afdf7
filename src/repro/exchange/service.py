"""The :class:`Exchange`: one object answering "how do bytes move here?".

Engines (Spark, Flink, benchmarks) never pick a transport branch again —
they hold an ``Exchange`` and ask it for what they need:

* :meth:`transfer_blob` — opaque bytes to a node (the broadcast path);
* :meth:`channel_to` — a :class:`~repro.exchange.channel.GraphChannel` to
  a node (full/delta epochs, kernel fast path, unified metrics);
* :meth:`parallel_send` — one root set as N interleaved streams (§4.2).

Two constructors, two substrates: :meth:`Exchange.loopback` moves bytes by
function call against the simulated cluster wire, :meth:`Exchange.socket`
moves them through spawned worker processes over TCP.  Every call above
works identically on both — that symmetry is the layer's contract, and
``tests/test_exchange_socket.py``'s parity test holds it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.exchange.capabilities import ChannelCapabilities, DEFAULT_REQUEST
from repro.exchange.channel import GraphChannel
from repro.exchange.errors import ExchangeConfigError
from repro.exchange.loopback import LoopbackGraphChannel
from repro.exchange.socket import SocketGraphChannel
from repro.net.cluster import Cluster, Node
from repro.simtime import Category


def _runtime_of_node(node: Node, role: str):
    runtime = node.jvm.skyway
    if runtime is None:
        raise ExchangeConfigError(
            f"{role} node {node.name!r} has no Skyway runtime attached "
            f"(repro.core.attach_skyway)"
        )
    return runtime


class Exchange:
    """One cluster's data-movement service, bound to one substrate."""

    def __init__(
        self,
        cluster: Cluster,
        clients: Optional[Dict[str, object]] = None,
    ) -> None:
        self.cluster = cluster
        #: {cluster node name -> connected WorkerClient}; None = loopback.
        self.clients = dict(clients) if clients is not None else None
        self._channels: List[GraphChannel] = []

    # -- constructors ------------------------------------------------------

    @classmethod
    def loopback(cls, cluster: Cluster) -> "Exchange":
        """In-process substrate: simulated wire, function-call delivery."""
        return cls(cluster, clients=None)

    @classmethod
    def socket(cls, cluster: Cluster, clients: Dict[str, object]) -> "Exchange":
        """Socket substrate: ``clients`` maps cluster worker names to
        connected :class:`~repro.transport.client.WorkerClient` objects."""
        return cls(cluster, clients=dict(clients))

    @property
    def substrate(self) -> str:
        return "loopback" if self.clients is None else "socket"

    def client_for(self, name: str):
        if self.clients is None:
            raise ExchangeConfigError(
                f"no socket worker registered for cluster node {name!r} "
                f"(this exchange runs the loopback substrate)"
            )
        client = self.clients.get(name)
        if client is None:
            raise ExchangeConfigError(
                f"no socket worker registered for cluster node {name!r}"
            )
        return client

    # -- blobs -------------------------------------------------------------

    def transfer_blob(self, src: Node, dst: Node, data: bytes) -> None:
        """Move opaque bytes to ``dst`` and account them on its fetch
        counters — the broadcast path, substrate-independent."""
        if self.clients is None:
            self.cluster.transfer(src, dst, len(data))
            return
        self.client_for(dst.name).send_blob(data)
        dst.account_fetch(len(data), remote=src is not dst)

    # -- graph channels ----------------------------------------------------

    def channel_to(
        self,
        destination: str,
        requested: ChannelCapabilities = DEFAULT_REQUEST,
        policy=None,
        channel_id: Optional[int] = None,
        src: Optional[Node] = None,
    ) -> GraphChannel:
        """Open a graph channel from ``src`` (default: the driver) to the
        named cluster node, on this exchange's substrate."""
        sender = src if src is not None else self.cluster.driver
        runtime = _runtime_of_node(sender, "sending")
        if self.clients is None:
            dst = self.cluster.node(destination)
            channel: GraphChannel = LoopbackGraphChannel(
                runtime,
                destination=destination,
                requested=requested,
                receiver_runtime=_runtime_of_node(dst, "receiving"),
                cluster=self.cluster,
                src=sender,
                dst=dst,
                policy=policy,
                channel_id=channel_id,
            )
        else:
            channel = SocketGraphChannel(
                runtime,
                client=self.client_for(destination),
                requested=requested,
                policy=policy,
                channel_id=channel_id,
                destination=destination,
            )
        # Forget what callers already closed: a long-lived exchange hands
        # out channels per send and must not pin every one it ever opened.
        self._channels = [c for c in self._channels if not c.closed]
        self._channels.append(channel)
        return channel

    # -- parallel send -----------------------------------------------------

    def parallel_send(
        self,
        worker_name: str,
        roots: Sequence[int],
        streams: int = 1,
        retain: bool = False,
        **knobs,
    ):
        """Ship ``roots`` to one worker as ``streams`` interleaved Skyway
        streams (per-thread output buffers, paper §4.2); returns a
        :class:`~repro.transport.parallel.ParallelSendReport` on either
        substrate."""
        n = max(1, int(streams))
        if self.clients is None:
            return self._parallel_loopback(worker_name, roots, n, retain)
        return self._parallel_socket(worker_name, roots, n, retain, knobs)

    def _parallel_socket(self, worker_name, roots, n, retain, knobs):
        from repro.transport.client import WorkerClient
        from repro.transport.metrics import TransportMetrics
        from repro.transport.parallel import ParallelGraphSender

        base = self.client_for(worker_name)
        extras: List[WorkerClient] = []
        try:
            for _ in range(n - 1):
                # A fresh ledger per extra stream keeps per-stream counters
                # meaningful; the sender merges them deterministically.
                extras.append(
                    WorkerClient(
                        base.runtime, base.host, base.port,
                        node_name=base.node_name,
                        metrics=TransportMetrics(),
                    ).connect()
                )
            sender = ParallelGraphSender([base] + extras)
            return sender.send(roots, retain=retain, **knobs)
        finally:
            for client in extras:
                client.close()

    def _parallel_loopback(self, worker_name, roots, n, retain):
        from repro.core.streams import (
            SkywayObjectInputStream,
            SkywayObjectOutputStream,
        )
        from repro.transport.digest import graph_digest
        from repro.transport.parallel import (
            ParallelSendReport,
            StreamReport,
            shard_roots,
        )

        driver = self.cluster.driver
        dst = self.cluster.node(worker_name)
        src_runtime = _runtime_of_node(driver, "sending")
        dst_runtime = _runtime_of_node(dst, "receiving")
        started = time.perf_counter()
        # One shuffling phase shared by every stream, as on the socket
        # substrate: baddrs from stream A must read as "this phase, another
        # thread" to stream B.
        src_runtime.shuffle_start()
        shards = shard_roots(roots, n)
        outs = [
            SkywayObjectOutputStream(
                src_runtime, destination=f"node:{dst.name}", thread_id=tid,
            )
            for tid in range(n)
        ]
        with driver.clock.phase(Category.SERIALIZATION):
            rounds = max((len(s) for s in shards), default=0)
            for step in range(rounds):
                for out, shard in zip(outs, shards):
                    if step < len(shard):
                        out.write_object(shard[step])
        reports = []
        for tid, (out, shard) in enumerate(zip(outs, shards)):
            with driver.clock.phase(Category.SERIALIZATION):
                data = out.close()
            self.cluster.transfer(driver, dst, len(data))
            inp = SkywayObjectInputStream(dst_runtime)
            with dst.clock.phase(Category.DESERIALIZATION):
                inp.accept(data)
            receiver = inp.receiver
            result = {
                "op": "recv_graph",
                "roots": inp.root_count,
                "objects": receiver.objects_received,
                "logical_bytes": receiver.buffer.logical_size,
                "stream_bytes": len(data),
                "digest": graph_digest(dst_runtime.jvm, receiver),
                "retained": bool(retain),
            }
            if not retain:
                inp.close()
            reports.append(StreamReport(
                thread_id=tid, roots=len(shard), result=result, data=data,
            ))
        return ParallelSendReport(
            streams=reports,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every channel this exchange opened (releasing card
        tables) and, on the socket substrate, every worker connection."""
        for channel in self._channels:
            channel.close()
        self._channels = []
        if self.clients is not None:
            for client in self.clients.values():
                client.close()
