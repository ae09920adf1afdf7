"""Tests for receiver-side delta apply (patch-in-place + GC re-marking)."""

import pytest

from repro.core.runtime import attach_skyway
from repro.delta import DeltaReceiveEndpoint, DeltaSendChannel
from repro.delta.apply import DeltaApplyError
from repro.delta.wire import DeltaFrame, parse_frame
from repro.heap.layout import KLASS_OFFSET
from repro.heap.verify import verify_heap
from repro.jvm.jvm import JVM
from repro.transport.digest import semantic_graph_digest

from tests.conftest import make_list, read_list


@pytest.fixture
def pair(classpath):
    src = JVM("apply-src", classpath=classpath)
    dst = JVM("apply-dst", classpath=classpath,
              young_bytes=64 * 1024, old_bytes=4 * 1024 * 1024)
    attach_skyway(src, [dst])
    return src, dst


@pytest.fixture
def session(pair):
    """A channel with one full epoch already applied on the receiver."""
    src, dst = pair
    channel = DeltaSendChannel(src.skyway, "dst")
    endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
    head = src.pin(make_list(src, list(range(50))))
    roots = endpoint.receive(channel.send([head.address]))
    return src, dst, channel, endpoint, head, roots


class TestPatchInPlace:
    def test_patched_values_visible(self, session):
        src, dst, channel, endpoint, head, roots = session
        src.set_field(head.address, "payload", 777)
        new_roots = endpoint.receive(channel.send([head.address]))
        assert read_list(dst, new_roots[0]) == [777] + list(range(1, 50))

    def test_patch_preserves_receiver_address(self, session):
        src, dst, channel, endpoint, head, roots = session
        src.set_field(head.address, "payload", 1)
        new_roots = endpoint.receive(channel.send([head.address]))
        assert new_roots[0] == roots[0]

    def test_new_objects_append_to_retained_buffer(self, session):
        src, dst, channel, endpoint, head, roots = session
        retained = dst.skyway.retained_input_bytes()
        fresh = src.new_instance("ListNode")
        src.set_field(fresh, "payload", -1)
        src.set_field(fresh, "next", head.address)
        new_roots = endpoint.receive(channel.send([fresh]))
        assert read_list(dst, new_roots[0]) == [-1] + list(range(50))
        assert dst.skyway.retained_input_buffers == 1
        assert dst.skyway.retained_input_bytes() > retained

    def test_apply_result_accounting(self, session):
        src, dst, channel, endpoint, head, roots = session
        src.set_field(head.address, "payload", 5)
        endpoint.receive(channel.send([head.address]))
        result = endpoint.state_of(channel.channel_id).last_apply
        assert result.patched_objects >= 1
        assert result.new_objects == 0
        assert result.cards_marked_bytes > 0


class TestGCIntegration:
    def test_apply_remarks_gc_card_table(self, session):
        """Paper §4.3 per epoch: every patched/appended span is re-marked
        in the receiver's old-generation card table."""
        src, dst, channel, endpoint, head, roots = session
        dst.heap.card_table.clear()
        src.set_field(head.address, "payload", 123)
        new_roots = endpoint.receive(channel.send([head.address]))
        assert dst.heap.card_table.is_dirty(new_roots[0])

    def test_scavenge_after_delta_apply_heap_verifies(self, session):
        """The acceptance test: a minor collection right after a delta
        apply must leave a verifiable heap and intact data."""
        src, dst, channel, endpoint, head, roots = session
        src.set_field(head.address, "payload", 31337)
        fresh = src.new_instance("ListNode")
        src.set_field(fresh, "payload", -7)
        src.set_field(fresh, "next", head.address)
        new_roots = endpoint.receive(channel.send([fresh]))

        # Allocate young garbage, then scavenge.
        for i in range(50):
            make_list(dst, range(5))
        dst.gc.minor()

        verify_heap(dst.heap)
        assert read_list(dst, new_roots[0]) == [-7, 31337] + list(range(1, 50))

    def test_full_gc_after_apply_keeps_retained_graph(self, session):
        src, dst, channel, endpoint, head, roots = session
        src.set_field(head.address, "payload", 9)
        new_roots = endpoint.receive(channel.send([head.address]))
        dst.gc.full()
        verify_heap(dst.heap)
        assert read_list(dst, new_roots[0])[0] == 9


class TestApplyErrors:
    def _delta_frame(self, session) -> DeltaFrame:
        src, dst, channel, endpoint, head, roots = session
        src.set_field(head.address, "payload", 4)
        frame = parse_frame(channel.send([head.address]))
        assert isinstance(frame, DeltaFrame)
        return frame

    def test_wrong_base_logical_end_rejected(self, session):
        src, dst, channel, endpoint, head, roots = session
        frame = self._delta_frame(session)
        frame.base_logical_end += 8
        applier = endpoint.state_of(channel.channel_id).applier
        with pytest.raises(DeltaApplyError):
            applier.apply(frame)

    def test_new_record_offset_gap_rejected(self, session):
        src, dst, channel, endpoint, head, roots = session
        fresh = src.new_instance("ListNode")
        src.set_field(fresh, "next", head.address)
        frame = parse_frame(channel.send([fresh]))
        new_records = [r for r in frame.records if r.tag == 2]
        assert new_records
        new_records[0].offset += 8  # tear a hole in the append sequence
        applier = endpoint.state_of(channel.channel_id).applier
        with pytest.raises(DeltaApplyError):
            applier.apply(frame)

    def test_bad_patch_offset_rejected(self, session):
        src, dst, channel, endpoint, head, roots = session
        frame = self._delta_frame(session)
        patches = [r for r in frame.records if r.tag == 1]
        patches[0].offset = frame.base_logical_end + 104_729  # out of buffer
        applier = endpoint.state_of(channel.channel_id).applier
        with pytest.raises(DeltaApplyError):
            applier.apply(frame)

    def _untouched(self, session, frame):
        """``frame`` must be refused with the receiver heap as it was."""
        src, dst, channel, endpoint, head, roots = session
        before = semantic_graph_digest(dst, roots)
        applier = endpoint.state_of(channel.channel_id).applier
        with pytest.raises(DeltaApplyError):
            applier.apply(frame)
        verify_heap(dst.heap)
        assert semantic_graph_digest(dst, roots) == before
        assert read_list(dst, roots[0]) == list(range(50))

    def test_patch_of_another_class_of_the_same_size_rejected(
        self, session, classpath
    ):
        """A PATCH whose tID names a different 40-byte class used to be
        applied silently, retyping the resident ListNode."""
        src, dst, channel, endpoint, head, roots = session
        classpath.define("TwoLongs", [("a", "J"), ("b", "J")])
        impostor = src.loader.load("TwoLongs")
        assert impostor.object_size() == src.loader.load("ListNode").object_size()
        frame = self._delta_frame(session)
        patch = next(r for r in frame.records if r.tag == 1)
        forged = bytearray(patch.payload)
        forged[KLASS_OFFSET : KLASS_OFFSET + 8] = impostor.tid.to_bytes(8, "little")
        patch.payload = bytes(forged)
        self._untouched(session, frame)
        assert dst.klass_of(roots[0]).name == "ListNode"

    def test_bad_record_after_a_good_one_writes_nothing(self, session):
        """Every record is checked before the first byte lands: a frame
        whose *second* PATCH is truncated must not apply its first."""
        src, dst, channel, endpoint, head, roots = session
        src.set_field(src.get_field(head.address, "next"), "payload", 5)
        frame = self._delta_frame(session)
        patches = [r for r in frame.records if r.tag == 1]
        assert len(patches) >= 2
        patches[-1].payload = patches[-1].payload[:-8]
        self._untouched(session, frame)
