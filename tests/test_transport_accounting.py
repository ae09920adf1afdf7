"""Byte accounting: the real socket transport must land its counters in
the same ``Node.local_bytes_fetched``/``remote_bytes_fetched`` fields the
simulated wire uses, so byte reports (the Figure 3(b) split) read one set
of fields regardless of which transport moved the data."""

import zlib

import pytest

from repro.exchange import Exchange
from repro.jvm.jvm import JVM
from repro.net.cluster import DEFAULT_COST_MODEL, Cluster, Node
from repro.serial.java_serializer import JavaSerializer
from repro.spark.context import SparkContext
from repro.transport import WorkerClient

from tests.conftest import sample_classpath


def make_cluster(workers: int = 1) -> Cluster:
    classpath = sample_classpath()
    return Cluster(lambda name: JVM(name, classpath=classpath),
                   worker_count=workers)


def test_account_fetch_splits_local_and_remote():
    cluster = make_cluster()
    node = cluster.workers[0]
    node.account_fetch(100, remote=False)
    node.account_fetch(7, remote=True)
    node.account_fetch(3, remote=True)
    assert node.local_bytes_fetched == 100
    assert node.remote_bytes_fetched == 10
    with pytest.raises(ValueError):
        node.account_fetch(-1, remote=True)


def test_cluster_transfer_routes_through_account_fetch():
    cluster = make_cluster()
    driver, worker = cluster.driver, cluster.workers[0]
    cluster.transfer(driver, worker, 1000)
    assert worker.remote_bytes_fetched == 1000
    assert worker.local_bytes_fetched == 0
    cluster.transfer(worker, worker, 50)  # self-fetch is a local read
    assert worker.local_bytes_fetched == 50
    assert worker.remote_bytes_fetched == 1000


class _RecordingExchange(Exchange):
    """A SparkContext ``exchange=`` stub: records blob transfers and
    accounts them like the socket substrate would."""

    def __init__(self, cluster: Cluster):
        super().__init__(cluster)
        self.calls = []

    def transfer_blob(self, src: Node, dst: Node, data: bytes) -> None:
        self.calls.append((src.name, dst.name, len(data)))
        dst.account_fetch(len(data), remote=src is not dst)


def test_spark_broadcast_routes_through_exchange():
    cluster = make_cluster(workers=2)
    exchange = _RecordingExchange(cluster)
    sc = SparkContext(cluster, JavaSerializer(), exchange=exchange)
    broadcast = sc.broadcast({"model": [1.0, 2.0, 3.0]})
    assert len(exchange.calls) == 2
    for (src, dst, nbytes), worker in zip(exchange.calls, cluster.workers):
        assert src == cluster.driver.name
        assert dst == worker.name
        assert nbytes == broadcast.wire_bytes
        assert worker.remote_bytes_fetched == nbytes


def test_spark_broadcast_default_path_unchanged():
    cluster = make_cluster(workers=2)
    sc = SparkContext(cluster, JavaSerializer())
    assert sc.exchange.substrate == "loopback"
    broadcast = sc.broadcast([1, 2, 3])
    for worker in cluster.workers:
        assert worker.remote_bytes_fetched == broadcast.wire_bytes


def test_socket_exchange_broadcast_end_to_end(
    spawned_worker, transport_driver
):
    """The real thing: SparkContext broadcast bytes travel over loopback
    TCP to a worker process, and the cluster node's counters agree with
    what the worker acknowledged."""
    cluster = make_cluster(workers=1)
    node = cluster.workers[0]
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    try:
        exchange = Exchange.socket(cluster, {node.name: client})
        sc = SparkContext(cluster, JavaSerializer(), exchange=exchange)
        broadcast = sc.broadcast("a broadcast value" * 100)
        assert node.remote_bytes_fetched == broadcast.wire_bytes

        with pytest.raises(Exception, match="no socket worker"):
            exchange.transfer_blob(cluster.driver, cluster.driver, b"x")
    finally:
        client.close()


def test_send_blob_crc_cross_check(spawned_worker, transport_driver):
    client = WorkerClient(
        transport_driver, spawned_worker.host, spawned_worker.port,
    ).connect()
    try:
        blob = bytes(range(256)) * 100
        result = client.send_blob(blob)
        assert result["crc32"] == zlib.crc32(blob)
    finally:
        client.close()
