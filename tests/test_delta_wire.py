"""Tests for the delta wire format (framing, records, encoder output)."""

import zlib

import pytest

from repro.core.runtime import attach_skyway
from repro.delta import (
    DeltaReceiveEndpoint,
    DeltaSendChannel,
    FRAME_DELTA,
    FRAME_FULL,
)
from repro.delta.wire import (
    REC_NEW,
    REC_PATCH,
    REC_SAMEREF,
    DeltaFrame,
    DeltaWireError,
    FullFrame,
    frame_full,
    parse_frame,
)
from repro.jvm.jvm import JVM
from repro.transport.digest import semantic_graph_digest

from tests.conftest import make_list


@pytest.fixture
def pair(classpath):
    src = JVM("wire-src", classpath=classpath)
    dst = JVM("wire-dst", classpath=classpath)
    attach_skyway(src, [dst])
    return src, dst


class TestFraming:
    def test_full_frame_roundtrip(self):
        frame = frame_full(7, 3, b"embedded-bytes")
        parsed = parse_frame(frame)
        assert isinstance(parsed, FullFrame)
        assert (parsed.channel_id, parsed.epoch) == (7, 3)
        assert parsed.embedded == b"embedded-bytes"

    def test_parse_rejects_foreign_bytes(self):
        with pytest.raises(DeltaWireError):
            parse_frame(bytes([0x42, 1, 2, 3]))


class TestEncodedEpochs:
    """Drive a channel and inspect the frames it emits."""

    def test_first_epoch_is_full(self, pair):
        src, dst = pair
        channel = DeltaSendChannel(src.skyway, "dst")
        head = src.pin(make_list(src, range(40)))
        parsed = parse_frame(channel.send([head.address]))
        assert isinstance(parsed, FullFrame)
        assert parsed.channel_id == channel.channel_id
        assert parsed.epoch == 1

    def test_patch_records_sorted_by_offset(self, pair):
        src, dst = pair
        channel = DeltaSendChannel(src.skyway, "dst")
        head = src.pin(make_list(src, range(60)))
        channel.send([head.address])
        # Mutate several nodes spread across the chain.
        node, index = head.address, 0
        while node:
            if index % 13 == 0:
                src.set_field(node, "payload", 1000 + index)
            node = src.get_field(node, "next")
            index += 1
        parsed = parse_frame(channel.send([head.address]))
        assert isinstance(parsed, DeltaFrame)
        assert parsed.epoch == 2
        patches = [r for r in parsed.records if r.tag == REC_PATCH]
        assert patches
        offsets = [r.offset for r in patches]
        assert offsets == sorted(offsets)
        for record in patches:
            assert len(record.payload) > 0

    def test_unchanged_cached_root_emits_sameref(self, pair):
        src, dst = pair
        channel = DeltaSendChannel(src.skyway, "dst")
        head = src.pin(make_list(src, range(60)))
        channel.send([head.address])
        # Dirty the tail only; the head root is cached and untouched.
        node = head.address
        for _ in range(59):
            node = src.get_field(node, "next")
        src.set_field(node, "payload", -5)
        parsed = parse_frame(channel.send([head.address]))
        assert isinstance(parsed, DeltaFrame)
        samerefs = [r for r in parsed.records if r.tag == REC_SAMEREF]
        assert len(samerefs) == 1
        assert parsed.roots == [samerefs[0].offset]

    def test_new_object_record_and_logical_growth(self, pair):
        src, dst = pair
        channel = DeltaSendChannel(src.skyway, "dst")
        head = src.pin(make_list(src, range(60)))
        channel.send([head.address])
        fresh = src.new_instance("ListNode")
        src.set_field(fresh, "payload", 99)
        src.set_field(fresh, "next", head.address)
        parsed = parse_frame(channel.send([fresh]))
        assert isinstance(parsed, DeltaFrame)
        news = [r for r in parsed.records if r.tag == REC_NEW]
        assert len(news) == 1
        # NEW offsets start exactly at the previous epoch's logical end.
        assert news[0].offset == parsed.base_logical_end
        assert parsed.new_logical_end > parsed.base_logical_end
        assert parsed.roots == [news[0].offset]

    def test_quiescent_epoch_ships_no_payload(self, pair):
        src, dst = pair
        channel = DeltaSendChannel(src.skyway, "dst")
        head = src.pin(make_list(src, range(60)))
        full = channel.send([head.address])
        quiet = channel.send([head.address])
        parsed = parse_frame(quiet)
        assert isinstance(parsed, DeltaFrame)
        assert [r.tag for r in parsed.records] == [REC_SAMEREF]
        assert parsed.new_logical_end == parsed.base_logical_end
        assert len(quiet) < len(full) / 20


class TestEncodeApplyParity:
    """One fixed script over every record shape, pinned byte for byte and
    charge for charge, so a rewrite of either side has to reproduce the
    frames, the simulated clocks and the sender's graph.  The constants
    were first recorded with the interpreted encode/apply; they were
    re-pinned once, when delta cards became one word: each epoch's records
    are the earlier ones minus the PATCHes of objects no write touched
    (epoch 2 loses list node 1, epoch 3 the three nodes before the
    written tail), with the same receiver digests."""

    #: (crc32 of the DELTA frame, sender clock.total(), receiver
    #: clock.total()) after each of epochs 2..5.
    PINNED = [
        (1719178768, 2.9694400000000014e-06, 8.8544e-07),
        (885723908, 3.3370400000000007e-06, 1.26304e-06),
        (156854385, 3.5274400000000006e-06, 1.3574400000000002e-06),
        (3780786979, 3.6374400000000004e-06, 1.3574400000000002e-06),
    ]

    def _script(self, src):
        """Yields each epoch's roots after building / mutating the graph."""
        head = src.pin(make_list(src, range(30)))
        refs = src.pin(src.new_array("LListNode;", 6))
        longs = src.pin(src.new_array("J", 10))
        node = head.address
        for slot in (0, 2, 5):  # slots 1, 3, 4 stay null
            src.heap.write_element(refs.address, slot, node)
            node = src.get_field(node, "next")
        for i in range(10):
            src.heap.write_element(longs.address, i, i * i)
        roots = [head.address, refs.address, longs.address]
        yield roots  # epoch 1: FULL

        # Epoch 2: PATCH a plain object, a reference array (null and
        # non-null slots) and a primitive array.
        src.set_field(head.address, "payload", 1234)
        src.heap.write_element(refs.address, 1, head.address)
        src.heap.write_element(refs.address, 5, 0)
        src.heap.write_element(longs.address, 7, -99)
        yield roots

        # Epoch 3: a NEW chain reached from a PATCH (the old tail's next).
        tail = head.address
        while src.get_field(tail, "next"):
            tail = src.get_field(tail, "next")
        tail_pin = src.pin(tail)
        chain = make_list(src, [500, 501, 502])
        src.set_field(tail_pin.address, "next", chain)
        yield roots

        # Epoch 4: a NEW root (in front of the cached head) beside the
        # unchanged cached roots.
        fresh = src.pin(src.new_instance("ListNode"))
        src.set_field(fresh.address, "payload", -1)
        src.set_field(fresh.address, "next", head.address)
        roots = [fresh.address] + roots
        yield roots

        yield roots  # epoch 5: quiescent

    def test_fixed_script_frames_clocks_and_digests(self, pair):
        src, dst = pair
        channel = DeltaSendChannel(src.skyway, "dst", channel_id=7)
        endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
        observed = []
        for epoch, roots in enumerate(self._script(src), start=1):
            frame = channel.send(roots)
            received = endpoint.receive(frame)
            assert semantic_graph_digest(dst, received) == (
                semantic_graph_digest(src, roots)
            ), f"epoch {epoch}"
            if epoch == 1:
                assert frame[0] == FRAME_FULL
                continue
            assert frame[0] == FRAME_DELTA, f"epoch {epoch}"
            observed.append(
                (zlib.crc32(frame), src.clock.total(), dst.clock.total())
            )

        quiescent = parse_frame(frame)
        assert [r.tag for r in quiescent.records] == [REC_SAMEREF] * 4
        assert [crc for crc, _, _ in observed] == [c for c, _, _ in self.PINNED]
        for (_, src_clock, dst_clock), (_, want_src, want_dst) in zip(
            observed, self.PINNED
        ):
            assert src_clock == pytest.approx(want_src, rel=1e-9)
            assert dst_clock == pytest.approx(want_dst, rel=1e-9)
