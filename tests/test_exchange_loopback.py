"""The exchange layer on its in-process substrate: channel capabilities,
full→delta epochs with receiver-value checks, the channel's obs-source
dict, in-process NACK recovery, frames applied with the loopback
substrate's ``deliver_epoch``, the exchange's closed-channel
bookkeeping, and a channel to a baseline-layout heap."""

import json
import re

import pytest

from repro.core.adapter import SkywaySerializer
from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayStreamError
from repro.delta.channel import DeltaSendChannel
from repro.exchange import (
    ChannelCapabilities,
    DeltaStaleError,
    Exchange,
    ExchangeError,
    GraphChannel,
    Loopback,
    SOCKET_OFFER,
)
from repro.heap.layout import BASELINE_LAYOUT
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.spark.context import SparkContext
from repro.transport.digest import semantic_graph_digest

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
        requested = ChannelCapabilities(kernel=True, delta=True)
        granted = requested.intersect(SOCKET_OFFER)
        assert granted.kernel and granted.delta
        assert requested.intersect(
            ChannelCapabilities(kernel=False, delta=True)
        ) == ChannelCapabilities(kernel=False, delta=True)
        assert requested.intersect(
            ChannelCapabilities(kernel=True, delta=False)
        ) == ChannelCapabilities(kernel=True, delta=False)

    def test_declining_delta_forces_full_epochs(self):
        cluster = make_cluster()
        worker = cluster.workers[0].jvm
        channel = GraphChannel(
            cluster.driver.jvm.skyway, Loopback(worker.skyway),
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
        exchange = Exchange(cluster)
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
        assert second.digest == semantic_graph_digest(worker.jvm,
                                                      second.roots)
        driver.unpin(pin)

    def test_send_after_close_is_typed(self):
        cluster = make_cluster()
        channel = Exchange(cluster).channel_to(
            cluster.workers[0].name)
        channel.close()
        with pytest.raises(ExchangeError, match="closed"):
            channel.send([1])

    def test_empty_roots_rejected(self):
        cluster = make_cluster()
        channel = Exchange(cluster).channel_to(
            cluster.workers[0].name)
        with pytest.raises(ExchangeError, match="at least one root"):
            channel.send([])

    def test_unbound_frames_read_through_the_serializer(self):
        """Frames made by a bare ``DeltaSendChannel`` (no substrate bound)
        are applied by whoever moves the bytes, here the loopback
        substrate's ``deliver_epoch``, which routes them to the runtime's
        delta endpoint: the DELTA patches in place.  The plain serializer
        is not an epoch reader — it refuses one, typed."""
        cluster = make_cluster()
        driver, worker = cluster.driver.jvm, cluster.workers[0].jvm
        channel = DeltaSendChannel(driver.skyway, "nowhere")
        loopback = Loopback(worker.skyway)
        head = make_list(driver, range(50))
        first = channel.send([head])
        [remote] = loopback.deliver_epoch(
            first, channel.channel_id, channel.epoch)["root_addresses"]
        assert read_list(worker, remote) == list(range(50))
        driver.set_field(head, "payload", 99)
        second = channel.send([head])
        assert channel.last_plan.mode == "delta"
        assert len(second) < len(first) / 5
        result = loopback.deliver_epoch(second, channel.channel_id,
                                        channel.epoch, digest=False)
        assert result == {"root_addresses": [remote], "digest": None}
        assert read_list(worker, remote)[0] == 99
        for frame in (first, second):
            with pytest.raises(SkywayStreamError, match="codec id"):
                SkywaySerializer().deserialize(worker, frame)
        channel.close()

    def test_delta_to_a_fresh_loopback_is_the_nack(self):
        """A DELTA for a channel the receiver holds nothing of raises
        ``DeltaStaleError`` out of ``deliver_epoch``, as
        ``WorkerClient.deliver_epoch`` does for a worker's NACK."""
        cluster = make_cluster(workers=2)
        driver = cluster.driver.jvm
        first, fresh = (w.jvm.skyway for w in cluster.workers)
        channel = DeltaSendChannel(driver.skyway, "nowhere")
        head = make_list(driver, range(10))
        Loopback(first).deliver_epoch(channel.send([head]),
                                      channel.channel_id, channel.epoch)
        driver.set_field(head, "payload", 7)
        delta = channel.send([head])
        assert channel.last_plan.mode == "delta"
        with pytest.raises(DeltaStaleError):
            Loopback(fresh).deliver_epoch(delta, channel.channel_id,
                                          channel.epoch)
        channel.close()


class TestBaselineDestination:
    """A loopback to a heap without the baddr word: every epoch is FULL,
    cloned in the receiver's layout."""

    @staticmethod
    def pair():
        classpath = sample_classpath()
        src = JVM("hl-src", classpath=classpath)
        dst = JVM("hl-dst", classpath=classpath, layout=BASELINE_LAYOUT)
        attach_skyway(src, [dst])
        return src, dst

    def test_epochs_ship_full_in_the_receivers_layout(self):
        src, dst = self.pair()
        channel = GraphChannel(src.skyway, Loopback(dst.skyway))
        pin = src.pin(make_list(src, range(5)))
        for value in (10, 20, 30):
            src.set_field(pin.address, "payload", value)
            receipt = channel.send([pin.address])
            assert (receipt.mode, receipt.reason) == ("full", "heterogeneous")
            assert read_list(dst, receipt.roots[0]) == [value, 1, 2, 3, 4]

    def test_digest_send_returns_the_receivers_digest(self):
        src, dst = self.pair()
        channel = GraphChannel(src.skyway, Loopback(dst.skyway))
        pin = src.pin(make_list(src, range(5)))
        receipt = channel.send([pin.address], digest=True)
        assert re.fullmatch("[0-9a-f]{64}", receipt.digest)
        assert receipt.digest == semantic_graph_digest(dst, receipt.roots)

    def test_digest_of_a_graph_built_on_a_baseline_heap(self):
        # Same shape and values on either side of a converting send.
        src, dst = self.pair()
        built = dst.pin(make_list(dst, range(5))).address
        channel = GraphChannel(src.skyway, Loopback(dst.skyway))
        receipt = channel.send([src.pin(make_list(src, range(5))).address])
        assert semantic_graph_digest(dst, [built]) == \
            semantic_graph_digest(dst, receipt.roots)


class TestNackRecovery:
    def test_receiver_full_gc_recovers_inside_one_send(self):
        cluster = make_cluster()
        driver = cluster.driver.jvm
        worker = cluster.workers[0]
        channel = Exchange(cluster).channel_to(worker.name)

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
        channel = Exchange(cluster).channel_to(
            cluster.workers[0].name)
        head = make_list(driver, range(12))
        pin = driver.pin(head)
        channel.send([head])
        driver.set_field(head, "payload", 5)
        channel.send([head])
        driver.unpin(pin)

        d = channel.metrics()
        assert d["substrate"] == "loopback"
        assert d["sends"] == 2
        assert d["wire_bytes"] == channel.wire_bytes
        assert d["delta"]["full_sends"] == 1
        assert d["delta"]["delta_sends"] == 1
        assert d["transport"] is None  # no wire on this substrate
        assert d["breakdown"]["serialization"] > 0
        assert d["last_plan"]["mode"] == "delta"
        assert json.loads(json.dumps(d)) == d

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
        exchange = Exchange(cluster)
        worker = cluster.workers[0]
        exchange.transfer_blob(cluster.driver, worker, b"x" * 123)
        assert worker.remote_bytes_fetched == 123
        substrate = exchange.substrate_for(worker.name)
        assert isinstance(substrate, Loopback)
        assert substrate.receiver is worker.jvm.skyway
