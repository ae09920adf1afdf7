"""Tests for delta channel orchestration: epochs, fallbacks, staleness."""

import pytest

from repro.core.runtime import attach_skyway
from repro.delta import (
    ChannelStats,
    DeltaReceiveEndpoint,
    DeltaSendChannel,
    DeltaStaleError,
)
from repro.delta.wire import DeltaFrame, FullFrame, parse_frame
from repro.heap.layout import HeapLayout
from repro.jvm.jvm import JVM

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
