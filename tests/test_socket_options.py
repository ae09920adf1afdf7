"""Transport socket options: every path that opens a TCP socket —
frame connections (client, worker, coordinator, and peer sides all go
through ``FrameConnection``) and the async loop's accepted sockets — must
set ``TCP_NODELAY``.  Delta epochs are small frames on the latency path;
Nagle batching them behind an unacked segment would put a 40 ms floor
under exactly the p99 the ledger's ``mux_fanin`` workload measures."""

import socket

from repro.transport import (
    FrameConnection,
    LocalAsyncWorker,
    WorkerClient,
    WorkerSpec,
    connect_with_retry,
)
from repro.transport.testing import SAMPLE_FACTORY


def _nodelay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_every_transport_socket_sets_nodelay(transport_driver):
    spec = WorkerSpec(name="nodelay-worker",
                      classpath_factory=SAMPLE_FACTORY)
    with LocalAsyncWorker(spec) as local:
        # The chokepoint: FrameConnection's constructor — the
        # client, worker serve loop, coordinator RPC, and peer-transfer
        # sockets are all wrapped in one of these.
        conn = FrameConnection(connect_with_retry(local.host, local.port))
        assert _nodelay(conn.raw_socket)
        conn.close()

        # A full WorkerClient rides the same chokepoint.
        client = WorkerClient(
            transport_driver, local.host, local.port).connect()
        assert _nodelay(client._require_conn().raw_socket)

        # The async loop sets it on every *accepted* socket too.
        assert local.loop._conns, "worker accepted no connection"
        assert all(_nodelay(c.sock) for c in local.loop._conns)
        client.close()
