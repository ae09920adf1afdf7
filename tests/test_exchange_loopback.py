"""The exchange layer on its in-process substrate: capability negotiation,
full→delta epochs with receiver-value checks, the unified metrics snapshot,
in-process NACK recovery, unbound frames applied with ``receive_epoch``, and
the exchange's closed-channel bookkeeping."""

import json

import pytest

from repro.core.adapter import SkywaySerializer
from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayStreamError
from repro.exchange import (
    ChannelCapabilities,
    Exchange,
    ExchangeConfigError,
    ExchangeError,
    LoopbackGraphChannel,
    SOCKET_OFFER,
    receive_epoch,
)
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.spark.context import SparkContext

from tests.conftest import make_list, read_list, sample_classpath


def make_cluster(workers: int = 1) -> Cluster:
    classpath = sample_classpath()
    cluster = Cluster(lambda name: JVM(name, classpath=classpath),
                      worker_count=workers)
    attach_skyway(cluster.driver.jvm, [w.jvm for w in cluster.workers],
                  cluster=cluster)
    return cluster


class TestCapabilities:
    def test_intersect_ands_booleans_and_clamps_streams(self):
        requested = ChannelCapabilities(kernel=True, delta=True,
                                        parallel_streams=8)
        granted = requested.intersect(SOCKET_OFFER)
        assert granted.kernel and granted.delta
        assert granted.parallel_streams == 8
        assert requested.intersect(
            ChannelCapabilities(parallel_streams=0)
        ).parallel_streams == 1

    def test_declining_delta_forces_full_epochs(self):
        cluster = make_cluster()
        channel = Exchange.loopback(cluster).channel_to(
            cluster.workers[0].name,
            requested=ChannelCapabilities(kernel=True, delta=False),
        )
        head = make_list(cluster.driver.jvm, range(10))
        for _ in range(2):
            receipt = channel.send([head])
            assert receipt.mode == "full"
        assert channel.last_plan.reason == "delta_disabled"
        assert channel.stats.fallbacks == {}  # configured, not a reversion


class TestLoopbackEpochs:
    def test_full_then_delta_with_receiver_values(self):
        cluster = make_cluster()
        driver = cluster.driver.jvm
        worker = cluster.workers[0]
        exchange = Exchange.loopback(cluster)
        channel = exchange.channel_to(worker.name)

        head = make_list(driver, range(20))
        pin = driver.pin(head)
        first = channel.send([head], digest=True)
        assert first.mode == "full" and first.epoch == 1
        assert read_list(worker.jvm, first.roots[0]) == list(range(20))

        driver.set_field(head, "payload", 999)
        second = channel.send([head], digest=True)
        assert second.mode == "delta" and second.epoch == 2
        # Patch-in-place: same receiver root, new value.
        assert second.roots == first.roots
        assert read_list(worker.jvm, second.roots[0])[0] == 999
        assert second.wire_bytes < first.wire_bytes
        assert second.digest != first.digest
        assert second.digest == channel.receiver_digest(second.roots)
        driver.unpin(pin)

    def test_send_after_close_is_typed(self):
        cluster = make_cluster()
        channel = Exchange.loopback(cluster).channel_to(
            cluster.workers[0].name)
        channel.close()
        with pytest.raises(ExchangeError, match="closed"):
            channel.send([1])

    def test_empty_roots_rejected(self):
        cluster = make_cluster()
        channel = Exchange.loopback(cluster).channel_to(
            cluster.workers[0].name)
        with pytest.raises(ExchangeError, match="at least one root"):
            channel.send([])

    def test_unbound_channel_has_no_receiver_digest(self):
        cluster = make_cluster()
        runtime = cluster.driver.jvm.skyway
        channel = LoopbackGraphChannel(runtime, destination="nowhere")
        head = make_list(cluster.driver.jvm, range(3))
        receipt = channel.send([head])
        assert receipt.roots == ()  # frames only; nothing delivered
        with pytest.raises(ExchangeConfigError, match="no receiver"):
            channel.receiver_digest([head])

    def test_unbound_frames_read_through_the_serializer(self):
        """An unbound channel only frames epochs; whoever moves the bytes
        applies them with ``receive_epoch``, which routes them to the
        runtime's delta endpoint: the DELTA patches in place.  The plain
        serializer is not an epoch reader — it refuses one, typed."""
        cluster = make_cluster()
        driver, worker = cluster.driver.jvm, cluster.workers[0].jvm
        channel = LoopbackGraphChannel(driver.skyway, destination="nowhere")
        head = make_list(driver, range(50))
        first = channel.send([head])
        [remote] = receive_epoch(worker.skyway, first.frame)
        assert read_list(worker, remote) == list(range(50))
        driver.set_field(head, "payload", 99)
        second = channel.send([head])
        assert second.mode == "delta"
        assert second.wire_bytes < first.wire_bytes / 5
        assert receive_epoch(worker.skyway, second.frame) == [remote]
        assert read_list(worker, remote)[0] == 99
        for frame in (first.frame, second.frame):
            with pytest.raises(SkywayStreamError, match="codec id"):
                SkywaySerializer().deserialize(worker, frame)
        channel.close()


class TestNackRecovery:
    def test_receiver_full_gc_recovers_inside_one_send(self):
        cluster = make_cluster()
        driver = cluster.driver.jvm
        worker = cluster.workers[0]
        channel = Exchange.loopback(cluster).channel_to(worker.name)

        head = make_list(driver, range(15))
        pin = driver.pin(head)
        channel.send([head])
        driver.set_field(head, "payload", 111)
        channel.send([head])  # a delta epoch, to prove deltas worked

        # Compaction voids the retained chunk addresses: the next delta
        # draws the in-process NACK and must converge via a forced FULL.
        driver.set_field(head, "payload", 222)
        worker.jvm.gc.full()
        receipt = channel.send([head], digest=True)
        assert receipt.nack_recovered
        assert receipt.mode == "full"
        assert channel.nack_recoveries == 1
        assert read_list(worker.jvm, receipt.roots[0])[0] == 222

        # And the channel is healthy again: the next epoch is a delta.
        driver.set_field(head, "payload", 333)
        after = channel.send([head])
        assert after.mode == "delta" and not after.nack_recovered
        assert read_list(worker.jvm, after.roots[0])[0] == 333
        driver.unpin(pin)


class TestExchangeMetrics:
    def test_snapshot_merges_all_three_ledgers(self):
        cluster = make_cluster()
        driver = cluster.driver.jvm
        channel = Exchange.loopback(cluster).channel_to(
            cluster.workers[0].name)
        head = make_list(driver, range(12))
        pin = driver.pin(head)
        channel.send([head])
        driver.set_field(head, "payload", 5)
        channel.send([head])
        driver.unpin(pin)

        snap = channel.metrics()
        d = snap.as_dict()
        assert d["substrate"] == "loopback"
        assert d["sends"] == 2
        assert d["wire_bytes"] == channel.wire_bytes
        assert d["capabilities"]["delta"] is True
        assert d["delta"]["full_sends"] == 1
        assert d["delta"]["delta_sends"] == 1
        assert d["transport"] is None  # no wire on this substrate
        assert d["breakdown"]["serialization"] > 0
        assert json.loads(snap.to_json()) == d

    def test_exchange_forgets_closed_channels(self):
        """Five ``sc.send(...).push(); .close()`` rounds on two workers
        used to leave ten closed channels pinned in the exchange: closed
        channels are dropped when the next one is opened."""
        cluster = make_cluster(workers=2)
        sc = SparkContext(cluster, SkywaySerializer())
        head = make_list(cluster.driver.jvm, range(8))
        for _ in range(5):
            send = sc.send(head)
            send.push()
            assert [c.closed for c in sc.exchange._channels] == [False] * 2
            send.close()
        assert len(sc.exchange._channels) == 2

    def test_exchange_transfer_blob_rides_the_simulated_wire(self):
        cluster = make_cluster()
        exchange = Exchange.loopback(cluster)
        worker = cluster.workers[0]
        exchange.transfer_blob(cluster.driver, worker, b"x" * 123)
        assert worker.remote_bytes_fetched == 123
        with pytest.raises(ExchangeConfigError, match="no socket worker"):
            exchange.client_for(worker.name)
