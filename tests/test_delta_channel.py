"""Tests for delta channel orchestration: epochs, fallbacks, staleness."""

import random

import pytest

from repro.apps.incremental import (
    build_vertex_graph,
    install_incremental_classes,
)
from repro.core.runtime import attach_skyway
from repro.delta import (
    ChannelStats,
    DeltaReceiveEndpoint,
    DeltaSendChannel,
    DeltaStaleError,
)
from repro.delta.wire import REC_PATCH, DeltaFrame, FullFrame, parse_frame
from repro.heap.layout import HeapLayout
from repro.jvm.jvm import JVM
from repro.transport.digest import semantic_graph_digest

from tests.conftest import make_list, read_list


@pytest.fixture
def pair(classpath):
    src = JVM("chan-src", classpath=classpath)
    dst = JVM("chan-dst", classpath=classpath,
              young_bytes=64 * 1024, old_bytes=4 * 1024 * 1024)
    attach_skyway(src, [dst])
    return src, dst


def fresh_session(src, dst, n=50):
    channel = DeltaSendChannel(src.skyway, "dst")
    endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
    head = src.pin(make_list(src, list(range(n))))
    roots = endpoint.receive(channel.send([head.address]))
    return channel, endpoint, head, roots


class TestEpochFlow:
    def test_full_then_delta_then_delta(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        assert channel.last_plan.reason == "first_epoch"
        for value in (10, 20):
            src.set_field(head.address, "payload", value)
            roots = endpoint.receive(channel.send([head.address]))
            assert channel.last_plan.mode == "delta"
            assert read_list(dst, roots[0])[0] == value
        assert channel.stats.full_sends == 1
        assert channel.stats.delta_sends == 2
        assert channel.stats.bytes_delta < channel.stats.bytes_full

    def test_mutation_crossover_falls_back_to_full(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        node = head.address
        while node:  # rewrite every node
            src.set_field(node, "payload", 1)
            node = src.get_field(node, "next")
        frame = channel.send([head.address])
        assert isinstance(parse_frame(frame), FullFrame)
        assert channel.last_plan.reason == "mutation_crossover"
        assert channel.stats.fallbacks["mutation_crossover"] == 1
        roots = endpoint.receive(frame)
        assert read_list(dst, roots[0]) == [1] * 50

    def test_encoded_overrun_reverts_to_full(self, pair):
        """The post-encode gate: one dirty node passes the estimate, but
        it now reaches a long new chain, so the frame blows the plan's
        byte budget and the epoch ships FULL instead."""
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst, n=10)
        tail = src.pin(make_list(src, list(range(100, 200))))
        src.set_field(head.address, "next", tail.address)
        frame = channel.send([head.address])
        assert isinstance(parse_frame(frame), FullFrame)
        assert channel.last_plan.reason == "encoded_overrun"
        assert channel.stats.wasted_encode_bytes > 0
        assert channel.stats.fallbacks == {"encoded_overrun": 1}
        roots = endpoint.receive(frame)
        assert read_list(dst, roots[0]) == [0] + list(range(100, 200))

    def test_full_resend_frees_previous_buffer(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        assert dst.skyway.retained_input_buffers == 1
        channel.force_full_next()
        endpoint.receive(channel.send([head.address]))
        assert channel.last_plan.reason == "forced"
        assert dst.skyway.retained_input_buffers == 1  # old freed, new kept

    def test_sender_gc_invalidates_cache(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        src.gc.minor()
        frame = channel.send([head.address])
        assert channel.last_plan.reason == "gc_moved"
        roots = endpoint.receive(frame)
        assert read_list(dst, roots[0]) == list(range(50))

    def test_heterogeneous_destination_never_deltas(self, pair, classpath):
        src, dst = pair
        other = HeapLayout(has_baddr=False)  # unmodified-JVM 16B headers
        channel = DeltaSendChannel(src.skyway, "dst", target_layout=other)
        head = src.pin(make_list(src, range(50)))
        channel.send([head.address])
        channel.send([head.address])
        assert channel.last_plan.reason == "heterogeneous"
        assert channel.stats.delta_sends == 0

    def test_channel_close_releases_table(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        tracker = channel.tracker
        count = tracker.table_count
        channel.close()
        assert tracker.table_count == count - 1


class TestStaleness:
    def test_delta_for_unknown_channel_raises(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        src.set_field(head.address, "payload", 3)
        frame = channel.send([head.address])
        fresh_endpoint = DeltaReceiveEndpoint(dst.skyway)
        with pytest.raises(DeltaStaleError):
            fresh_endpoint.receive(frame)

    def test_skipped_epoch_raises(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        src.set_field(head.address, "payload", 3)
        channel.send([head.address])  # epoch 2: encoded but never delivered
        src.set_field(head.address, "payload", 4)
        frame = channel.send([head.address])  # epoch 3
        with pytest.raises(DeltaStaleError):
            endpoint.receive(frame)

    def test_receiver_full_gc_raises_then_forced_full_recovers(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        dst.gc.full()  # compaction: retained chunk addresses move
        src.set_field(head.address, "payload", 3)
        frame = channel.send([head.address])
        with pytest.raises(DeltaStaleError):
            endpoint.receive(frame)
        # The NACK protocol: force full and resend.
        channel.force_full_next()
        roots = endpoint.receive(channel.send([head.address]))
        assert read_list(dst, roots[0]) == [3] + list(range(1, 50))
        # And the channel deltas again afterwards.
        src.set_field(head.address, "payload", 4)
        roots = endpoint.receive(channel.send([head.address]))
        assert channel.last_plan.mode == "delta"
        assert read_list(dst, roots[0])[0] == 4

    def test_stale_state_is_dropped(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        dst.gc.full()
        src.set_field(head.address, "payload", 3)
        with pytest.raises(DeltaStaleError):
            endpoint.receive(channel.send([head.address]))
        assert endpoint.state_of(channel.channel_id) is None


class TestShip:
    """``ship`` is the NACK protocol: frame, deliver, and on a
    ``DeltaStaleError`` one forced-FULL reframe and redelivery."""

    @staticmethod
    def scripted(endpoint, failures):
        """A ``deliver`` that raises ``failures`` in order before applying
        for real, and the frames it was handed."""
        failures = list(failures)
        seen = []

        def deliver(frame):
            seen.append(frame)
            if failures:
                raise failures.pop(0)
            return endpoint.receive(frame)

        return deliver, seen

    def test_one_nack_reframes_forced_full(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        src.set_field(head.address, "payload", 3)
        deliver, seen = self.scripted(endpoint, [DeltaStaleError("stale")])
        delivered, frames = channel.ship([head.address], deliver)
        assert frames == seen and len(frames) == 2
        assert isinstance(parse_frame(frames[0]), DeltaFrame)
        assert isinstance(parse_frame(frames[1]), FullFrame)
        assert channel.last_plan.reason == "forced"
        assert read_list(dst, delivered[0])[0] == 3
        # The latch was consumed: the channel deltas again.
        src.set_field(head.address, "payload", 4)
        delivered, frames = channel.ship([head.address], deliver)
        assert len(frames) == 1 and channel.last_plan.mode == "delta"
        assert read_list(dst, delivered[0])[0] == 4

    def test_second_nack_propagates(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        src.set_field(head.address, "payload", 3)
        deliver, seen = self.scripted(
            endpoint, [DeltaStaleError("first"), DeltaStaleError("second")])
        with pytest.raises(DeltaStaleError, match="second"):
            channel.ship([head.address], deliver)
        assert len(seen) == 2  # one retry, no loop

    def test_other_failures_propagate_untouched(self, pair):
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst)
        src.set_field(head.address, "payload", 3)
        deliver, seen = self.scripted(
            endpoint, [ConnectionError("wire died")])
        with pytest.raises(ConnectionError, match="wire died"):
            channel.ship([head.address], deliver)
        assert len(seen) == 1
        assert not channel._force_full  # the latch is a NACK's, only


class TestMultiChannel:
    def test_two_channels_one_heap_independent_epochs(self, pair):
        src, dst = pair
        a = DeltaSendChannel(src.skyway, "dst-a")
        b = DeltaSendChannel(src.skyway, "dst-b")
        endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
        head = src.pin(make_list(src, list(range(50))))
        roots_a = endpoint.receive(a.send([head.address]))
        src.set_field(head.address, "payload", 7)
        roots_b = endpoint.receive(b.send([head.address]))  # full (epoch 1)
        assert b.last_plan.reason == "first_epoch"
        # Channel a still sees the mutation even though b sent in between
        # (per-channel card tables: b's bootstrap cleared only b's table).
        roots_a2 = endpoint.receive(a.send([head.address]))
        assert a.last_plan.mode == "delta"
        assert read_list(dst, roots_a2[0])[0] == 7
        assert read_list(dst, roots_b[0])[0] == 7
        assert roots_a2[0] != roots_b[0]  # distinct retained buffers


class TestExactDirt:
    """Word-exact delta cards over per-channel spans: an epoch patches
    exactly the objects written, and a channel's table sees only the
    writes into its own epoch record."""

    def test_patches_exactly_the_reranked_vertices(self, classpath):
        install_incremental_classes(classpath)
        src = JVM("exact-src", classpath=classpath)
        dst = JVM("exact-dst", classpath=classpath)
        attach_skyway(src, [dst])
        n = 500
        ring = [(v, (v + 1) % n) for v in range(n)]
        chords = [(v, (v * 7 + 3) % n) for v in range(0, n, 5)]
        graph = src.pin(build_vertex_graph(src, ring + chords))
        channel = DeltaSendChannel(src.skyway, "dst")
        endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
        endpoint.receive(channel.send([graph.address]))
        rng = random.Random(28)
        for epoch in range(5):
            vertices = src.get_field(graph.address, "vertices")
            picks = rng.sample(range(n), n // 100)
            for v in picks:
                src.set_field(src.heap.read_element(vertices, v), "rank",
                              10.0 + epoch + rng.random())
            before = channel.stats.objects_patched
            roots = endpoint.receive(channel.send([graph.address]))
            assert channel.last_plan.mode == "delta"
            assert channel.stats.objects_patched - before == len(picks)
            assert semantic_graph_digest(dst, roots) == (
                semantic_graph_digest(src, [graph.address]))

    def test_each_channel_table_sees_only_its_own_chain(self, pair):
        src, dst = pair
        endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
        heads = [src.pin(make_list(src, range(8))) for _ in range(64)]
        channels = [DeltaSendChannel(src.skyway, "dst") for _ in heads]
        for channel, head in zip(channels, heads):
            endpoint.receive(channel.send([head.address]))
        for value in (100, 200):
            for head in heads:
                src.set_field(src.get_field(head.address, "next"),
                              "payload", value)
            assert [c.table.dirty_count for c in channels] == [1] * 64
            for channel, head in zip(channels, heads):
                before = channel.stats.objects_patched
                roots = endpoint.receive(channel.send([head.address]))
                assert channel.last_plan.mode == "delta"
                assert channel.stats.objects_patched - before == 1
                assert read_list(dst, roots[0])[1] == value

    def test_object_shipped_new_is_patched_when_written(self, pair):
        """The table re-spans after a DELTA adds NEW members: a write into
        an object first shipped NEW must dirty the channel's table."""
        src, dst = pair
        channel, endpoint, head, roots = fresh_session(src, dst, n=20)
        tail = head.address
        while src.get_field(tail, "next"):
            tail = src.get_field(tail, "next")
        appended = src.pin(make_list(src, [500, 501]))
        src.set_field(tail, "next", appended.address)
        endpoint.receive(channel.send([head.address]))
        assert channel.last_plan.mode == "delta"
        assert appended.address in channel.record

        src.set_field(appended.address, "payload", 999)
        frame = channel.send([head.address])
        roots = endpoint.receive(frame)
        patched = [r.offset for r in parse_frame(frame).records
                   if r.tag == REC_PATCH]
        assert patched == [channel.record.offset_of(appended.address)]
        assert read_list(dst, roots[0]) == list(range(20)) + [999, 501]
        assert semantic_graph_digest(dst, roots) == (
            semantic_graph_digest(src, [head.address]))


class TestChannelStats:
    def test_totals_and_fallback_accounting(self):
        stats = ChannelStats()
        stats.bytes_full += 1000
        stats.bytes_delta += 50
        assert stats.bytes_total == 1050
        stats.note_fallback("mutation_crossover")
        stats.note_fallback("mutation_crossover")
        stats.note_fallback("gc_moved")
        assert stats.fallbacks == {"mutation_crossover": 2, "gc_moved": 1}
