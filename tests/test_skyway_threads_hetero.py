"""Tests for Skyway's multi-thread sending and heterogeneous-cluster paths."""

import hashlib

import pytest

from repro.core.runtime import attach_skyway
from repro.core.sender import (
    _REL_BITS,
    ObjectGraphSender,
    baddr_relative,
    baddr_sid,
    baddr_thread,
    compose_baddr,
)
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.heap.layout import BASELINE_LAYOUT, SKYWAY_LAYOUT
from repro.jvm.jvm import JVM
from repro.jvm.marshal import from_heap, to_heap

from tests.conftest import make_date, make_list, read_date, read_list


class TestBaddrEncoding:
    def test_roundtrip(self):
        word = compose_baddr(sid=300, thread_id=7, relative=0x12345)
        assert baddr_sid(word) == 300
        assert baddr_thread(word) == 7
        assert baddr_relative(word) == 0x12345

    def test_field_isolation(self):
        word = compose_baddr(sid=0xFFFF, thread_id=0xFF, relative=(1 << 40) - 8)
        assert baddr_sid(word) == 0xFFFF
        assert baddr_thread(word) == 0xFF
        assert baddr_relative(word) == (1 << 40) - 8

    def test_relative_overflow_rejected(self):
        with pytest.raises(ValueError):
            compose_baddr(1, 1, 1 << 40)


class TestMultiThreadSending:
    """Paper §4.2 'Support for Threads': per-thread buffers, baddr ownership
    by stream, hash-table fallback, and duplicate clones for shared data."""

    @pytest.fixture
    def setup(self, classpath):
        src = JVM("s", classpath=classpath)
        dst = JVM("r", classpath=classpath)
        attach_skyway(src, [dst])
        return src, dst

    def _send(self, src, dst, root, thread_id):
        src_stream = SkywayObjectOutputStream(
            src.skyway, destination=f"t{thread_id}", thread_id=thread_id
        )
        src_stream.write_object(root)
        data = src_stream.close()
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(data)
        return inp.read_object()

    def test_two_threads_same_object_same_phase(self, setup):
        src, dst = setup
        date = make_date(src, 2018, 1, 1)
        src.skyway.shuffle_start()
        r1 = self._send(src, dst, date, thread_id=1)
        r2 = self._send(src, dst, date, thread_id=2)
        assert read_date(dst, r1) == (2018, 1, 1)
        assert read_date(dst, r2) == (2018, 1, 1)
        assert r1 != r2  # separate copies, matching existing serializers

    def test_second_thread_uses_hash_table(self, setup):
        src, dst = setup
        head = make_list(src, [1, 2, 3])
        src.skyway.shuffle_start()
        s1 = src.skyway.new_sender("a", thread_id=1)
        s1.write_object(head)
        s2 = src.skyway.new_sender("b", thread_id=2)
        s2.write_object(head)
        # Thread 2 found baddrs owned by thread 1 and fell back.
        assert len(s2._shared_table) == 3

    def test_thread_shared_subobject(self, setup):
        """Two roots on different threads sharing a leaf: each stream gets
        its own clone of the leaf."""
        src, dst = setup
        shared = src.new_instance("Day2D")
        src.set_field(shared, "day", 4)
        d1, d2 = src.new_instance("Date"), src.new_instance("Date")
        src.set_field(d1, "day", shared)
        src.set_field(d2, "day", shared)
        src.skyway.shuffle_start()
        r1 = self._send(src, dst, d1, thread_id=1)
        r2 = self._send(src, dst, d2, thread_id=2)
        leaf1, leaf2 = dst.get_field(r1, "day"), dst.get_field(r2, "day")
        assert leaf1 != leaf2
        assert dst.get_field(leaf1, "day") == dst.get_field(leaf2, "day") == 4

    def test_same_thread_reuses_baddr_across_streams_in_phase(self, setup):
        """Within one phase, a destination's buffer sees each object once."""
        src, dst = setup
        date = make_date(src, 3, 3, 3)
        src.skyway.shuffle_start()
        sender = src.skyway.new_sender("a", thread_id=1)
        first = sender.write_object(date)
        again = sender.write_object(date)
        assert first == again
        assert sender.objects_sent == 4  # Date + 3 leaves, no re-copy


class TestTwoStreamCrossover:
    @pytest.fixture
    def setup(self, classpath):
        src = JVM("ms-src", classpath=classpath)
        dst = JVM("ms-dst", classpath=classpath)
        attach_skyway(src, [dst])
        return src, dst

    def test_shared_subgraph_cloned_once_per_stream(self, setup):
        """Roots on two streams share a chain: stream 2 sees stream 1's
        baddrs (foreign thread, same sID), routes every shared node through
        its hash table, and ships its own complete copy."""
        src, _ = setup
        shared = make_list(src, range(20))
        r1 = src.new_instance("ListNode")
        src.set_field(r1, "payload", 101)
        src.set_field(r1, "next", shared)
        r2 = src.new_instance("ListNode")
        src.set_field(r2, "payload", 202)
        src.set_field(r2, "next", shared)

        src.skyway.shuffle_start()
        s1 = src.skyway.new_sender("a", thread_id=1)
        s1.write_object(r1)
        s2 = src.skyway.new_sender("b", thread_id=2)
        s2.write_object(r2)

        # Both streams carry root + all 20 shared nodes: one clone each.
        assert s1.objects_sent == 21
        assert s2.objects_sent == 21
        # Stream 1 owns every baddr; stream 2 fell back for the 20 shared
        # nodes (its own root was unclaimed and stamped normally).
        assert len(s1._shared_table) == 0
        assert len(s2._shared_table) == 20

    def test_foreign_baddr_not_mistaken_for_backref(self, setup):
        """A root already claimed by stream 1 still serializes fully on
        stream 2 — the thread field of the baddr word keeps the streams'
        backward references apart."""
        src, _ = setup
        head = make_list(src, [7, 8, 9])
        src.skyway.shuffle_start()
        s1 = src.skyway.new_sender("a", thread_id=1)
        s1.write_object(head)
        word = src.heap.read_baddr(head)
        assert baddr_thread(word) == 1 and baddr_sid(word) == src.skyway.sid
        s2 = src.skyway.new_sender("b", thread_id=2)
        s2.write_object(head)
        assert s2.objects_sent == 3
        # Second visit on stream 2 is now a shared-table hit, not a clone.
        again = s2.write_object(head)
        assert again == s2._shared_table[head]
        assert s2.objects_sent == 3


class TestComposeBaddrOverflow:
    def test_roundtrip_across_the_range(self):
        # Probe the whole 40-bit range including both edges: every field
        # must survive composition unscathed.
        for rel in (0, 1, 0xFF, 0x10000, (1 << 39), (1 << _REL_BITS) - 1):
            for thread in (0, 1, 0xFF):
                for sid in (1, 0x7FFF, 0xFFFF):
                    word = compose_baddr(sid, thread, rel)
                    assert baddr_sid(word) == sid
                    assert baddr_thread(word) == thread
                    assert baddr_relative(word) == rel

    def test_five_byte_overflow_rejected(self):
        for excess in (1 << _REL_BITS, (1 << _REL_BITS) + 8, 1 << 63):
            with pytest.raises(ValueError, match="5 bytes"):
                compose_baddr(1, 1, excess)


class TestHeterogeneousTransfer:
    """Paper §3.1: different object formats across the cluster; the sender
    adjusts formats while cloning, the receiver pays nothing extra."""

    def _make_pair(self, classpath, src_layout, dst_layout):
        src = JVM("s", classpath=classpath, layout=src_layout)
        dst = JVM("r", classpath=classpath, layout=dst_layout)
        attach_skyway(src, [dst])
        return src, dst

    def test_skyway_to_baseline_layout(self, classpath):
        src, dst = self._make_pair(classpath, SKYWAY_LAYOUT, BASELINE_LAYOUT)
        date = make_date(src, 2018, 3, 24)
        out = SkywayObjectOutputStream(
            src.skyway, destination="p", target_layout=BASELINE_LAYOUT
        )
        out.write_object(date)
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(out.close())
        received = inp.read_object()
        assert read_date(dst, received) == (2018, 3, 24)

    def test_skyway_target_arrays_and_strings(self, classpath):
        # A baseline-layout sender cannot hold baddr words, so only the
        # receiver's layout varies; naming the sender's own layout as the
        # target is a homogeneous send.
        src, dst = self._make_pair(classpath, SKYWAY_LAYOUT, SKYWAY_LAYOUT)
        value = ["text", (1, 2.5), b"\x09"]
        addr = to_heap(src, value)
        out = SkywayObjectOutputStream(
            src.skyway, destination="p", target_layout=SKYWAY_LAYOUT
        )
        out.write_object(addr)
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(out.close())
        assert from_heap(dst, inp.read_object()) == value

    def test_hetero_arrays_and_strings(self, classpath):
        src, dst = self._make_pair(classpath, SKYWAY_LAYOUT, BASELINE_LAYOUT)
        value = {"k": [1, 2, 3], "s": "héllo"}
        addr = to_heap(src, value)
        out = SkywayObjectOutputStream(
            src.skyway, destination="p", target_layout=BASELINE_LAYOUT
        )
        out.write_object(addr)
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(out.close())
        assert from_heap(dst, inp.read_object()) == value

    def test_hetero_objects_smaller_on_baseline_receiver(self, classpath):
        """Re-formatted clones drop the baddr word: 8 bytes per object."""
        src, dst = self._make_pair(classpath, SKYWAY_LAYOUT, BASELINE_LAYOUT)
        date = make_date(src, 1, 1, 1)
        out = SkywayObjectOutputStream(
            src.skyway, destination="p", target_layout=BASELINE_LAYOUT
        )
        out.write_object(date)
        hetero_bytes = out.sender.bytes_sent
        src2 = JVM("s2", classpath=classpath)
        dst2 = JVM("r2", classpath=classpath)
        attach_skyway(src2, [dst2])
        date2 = make_date(src2, 1, 1, 1)
        out2 = SkywayObjectOutputStream(src2.skyway, destination="p")
        out2.write_object(date2)
        homo_bytes = out2.sender.bytes_sent
        assert homo_bytes - hetero_bytes == 4 * 8  # 4 objects x 1 word

    def test_hetero_costs_charged_to_sender_only(self, classpath):
        src, dst = self._make_pair(classpath, SKYWAY_LAYOUT, BASELINE_LAYOUT)
        date = make_date(src, 1, 1, 1)
        dst_before = dst.clock.total()
        out = SkywayObjectOutputStream(
            src.skyway, destination="p", target_layout=BASELINE_LAYOUT
        )
        out.write_object(date)
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(out.close())
        # The receiver's charge is the same linear scan it always pays;
        # compare with a homogeneous receive of the same graph.
        hetero_receiver_cost = dst.clock.total() - dst_before
        src2 = JVM("s2", classpath=classpath)
        dst2 = JVM("r2", classpath=classpath, layout=SKYWAY_LAYOUT)
        attach_skyway(src2, [dst2])
        date2 = make_date(src2, 1, 1, 1)
        out2 = SkywayObjectOutputStream(src2.skyway, destination="p")
        out2.write_object(date2)
        d2_before = dst2.clock.total()
        inp2 = SkywayObjectInputStream(dst2.skyway)
        inp2.accept(out2.close())
        homo_receiver_cost = dst2.clock.total() - d2_before
        assert hetero_receiver_cost <= homo_receiver_cost + 1e-12


#: Every array element kind, one array of each in the golden graph.
_ELEMENT_KINDS = ("Z", "B", "C", "S", "I", "F", "J", "D", "Ljava.lang.Object;")


def test_golden_send_to_a_baseline_heap(classpath):
    """A converting send pinned to the stream the interpreted converter
    produced: several roots, a shared Date, a repeated root, a null root,
    every array element kind, and a chain another thread claimed first
    (the shared-table path).  The golden values were recorded from the
    interpreted converter, before the kernel loop took over this send."""
    src = JVM("g-src", classpath=classpath)
    dst = JVM("g-dst", classpath=classpath, layout=BASELINE_LAYOUT)
    attach_skyway(src, [dst])
    shared = src.pin(make_date(src, 2018, 3, 24)).address
    chain = src.pin(make_list(src, range(7))).address
    holder = src.pin(
        src.new_array("Ljava.lang.Object;", len(_ELEMENT_KINDS) + 3)).address
    for i, desc in enumerate(_ELEMENT_KINDS):
        src.heap.write_element(holder, i, src.new_array(desc, 2 * i + 1))
    src.heap.write_element(holder, len(_ELEMENT_KINDS), shared)
    src.heap.write_element(holder, len(_ELEMENT_KINDS) + 1, chain)
    mixed = src.pin(src.new_instance("Mixed")).address
    for field, value in (("b", 7), ("z", 1), ("c", 65), ("s", -2),
                         ("i", 12345), ("f", 2.5), ("j", 2**50),
                         ("d", -0.125)):
        src.set_field(mixed, field, value)
    src.set_field(mixed, "ref", shared)

    src.skyway.shuffle_start()
    other = src.skyway.new_sender("other", thread_id=1,
                                  target_layout=BASELINE_LAYOUT,
                                  fresh_buffer=True)
    other.write_object(chain)
    before = src.clock.total()
    out = SkywayObjectOutputStream(src.skyway, destination="golden",
                                   target_layout=BASELINE_LAYOUT)
    roots = (holder, mixed, shared, chain, holder, 0)
    for root in roots:
        out.write_object(root)
    data = out.close()
    seconds = src.clock.total() - before

    sender = out.sender
    assert hashlib.sha256(data).hexdigest() == (
        "63efff22189a74ddcae0be84cddf5e3f4139d64317db1f02a00245e6f11324ca")
    assert (sender.objects_sent, sender.bytes_sent) == (22, 1184)
    assert (sender.header_bytes, sender.pointer_bytes, sender.data_bytes,
            sender.padding_bytes) == (392, 320, 430, 42)
    assert seconds == pytest.approx(1.50408e-06, rel=1e-9)
    assert len(sender._shared_table) == 7  # the chain, claimed by thread 1

    inp = SkywayObjectInputStream(dst.skyway)
    inp.accept(data)
    received = [inp.read_object() for _ in roots]
    assert read_list(dst, received[3]) == list(range(7))
    assert read_date(dst, received[2]) == (2018, 3, 24)
    assert dst.get_field(received[1], "j") == 2**50
    assert received[0] == received[4] and received[5] == 0
