"""Tests for the delta write barrier and per-channel card tables."""

import pytest

from repro.delta.dirty import DELTA_CARD_SIZE, DeltaTracker

from tests.conftest import make_list


@pytest.fixture
def tracker(jvm):
    return DeltaTracker.attach(jvm.heap)


def heap_table(tracker, jvm):
    """A registered table re-spanned over the whole heap (a channel spans
    only its epoch record; these tests exercise the barrier itself)."""
    table = tracker.new_table()
    table.respan(jvm.heap.base, jvm.heap.old.end)
    return table


def slot(jvm, address, name):
    """The heap address of field ``name`` of the object at ``address``."""
    return address + jvm.klass_of(address).field(name).offset


class TestAttach:
    def test_attach_is_idempotent(self, jvm):
        first = DeltaTracker.attach(jvm.heap)
        assert DeltaTracker.attach(jvm.heap) is first
        assert jvm.heap.delta_tracker is first

    def test_barrier_registered_once(self, jvm):
        DeltaTracker.attach(jvm.heap)
        DeltaTracker.attach(jvm.heap)
        assert len(jvm.heap.mutation_listeners) == 1


class TestBarrier:
    def test_reference_write_marks_table(self, jvm, tracker):
        table = heap_table(tracker, jvm)
        a = jvm.new_instance("ListNode")
        b = jvm.new_instance("ListNode")
        table.clear()
        jvm.set_field(a, "next", b)
        assert table.is_dirty(slot(jvm, a, "next"))
        assert table.dirty_count == 1

    def test_primitive_write_marks_table(self, jvm, tracker):
        """Unlike the GC barrier, delta tracks *all* writes: a mutated
        primitive field must reship the object."""
        table = heap_table(tracker, jvm)
        node = jvm.new_instance("ListNode")
        table.clear()
        jvm.set_field(node, "payload", 7)
        assert table.is_dirty(slot(jvm, node, "payload"))
        assert table.dirty_count == 1

    def test_array_element_write_marks_table(self, jvm, tracker):
        table = heap_table(tracker, jvm)
        arr = jvm.new_array("J", 64)
        table.clear()
        jvm.heap.write_element(arr, 63, 5)
        # The write landed at the element's slot, not the array start.
        offset = jvm.heap.element_offset(jvm.klass_of(arr), 63)
        assert table.is_dirty(arr + offset)

    def test_raw_word_write_bypasses_barrier(self, jvm, tracker):
        """GC relocation and receiver placement use raw writes; they must
        not pollute the delta dirty set."""
        table = heap_table(tracker, jvm)
        node = jvm.new_instance("ListNode")
        table.clear()
        seen = tracker.writes_seen
        jvm.heap.write_word(node, 0)
        assert tracker.writes_seen == seen
        assert table.dirty_count == 0

    def test_writes_seen_counts_all_writes(self, jvm, tracker):
        before = tracker.writes_seen
        make_list(jvm, range(10))  # 2 field writes per node
        assert tracker.writes_seen >= before + 20


class TestPerChannelTables:
    def test_each_table_sees_every_write(self, jvm, tracker):
        t1, t2 = heap_table(tracker, jvm), heap_table(tracker, jvm)
        node = jvm.new_instance("ListNode")
        t1.clear()
        t2.clear()
        jvm.set_field(node, "payload", 1)
        written = slot(jvm, node, "payload")
        assert t1.is_dirty(written) and t2.is_dirty(written)

    def test_clearing_one_table_keeps_anothers_dirt(self, jvm, tracker):
        t1, t2 = heap_table(tracker, jvm), heap_table(tracker, jvm)
        node = jvm.new_instance("ListNode")
        jvm.set_field(node, "payload", 1)
        written = slot(jvm, node, "payload")
        t1.clear()
        assert not t1.is_dirty(written)
        assert t2.is_dirty(written)

    def test_release_table_stops_marking(self, jvm, tracker):
        table = heap_table(tracker, jvm)
        count = tracker.table_count
        tracker.release_table(table)
        assert tracker.table_count == count - 1
        node = jvm.new_instance("ListNode")
        table.clear()
        jvm.set_field(node, "payload", 1)
        assert table.dirty_count == 0

    def test_new_table_is_empty_until_respanned(self, jvm, tracker):
        table = tracker.new_table()
        node = jvm.new_instance("ListNode")
        jvm.set_field(node, "payload", 1)
        assert table.dirty_count == 0

    def test_table_marks_only_writes_inside_its_span(self, jvm, tracker):
        inside = jvm.new_instance("ListNode")
        outside = jvm.new_instance("ListNode")
        table = tracker.new_table()
        table.respan(inside, outside)
        jvm.set_field(outside, "payload", 1)
        assert table.dirty_count == 0
        jvm.set_field(inside, "payload", 1)
        assert list(table.dirty_ranges()) == [
            (slot(jvm, inside, "payload"), slot(jvm, inside, "payload") + 8)]

    def test_object_span_write_marks_every_word_clamped(self, jvm, tracker):
        """A delta apply's PATCH reports the whole object to the barrier;
        a span straddling the table's edge is clamped to it."""
        node = jvm.new_instance("ListNode")
        size = jvm.heap.object_size(node)
        table = tracker.new_table()
        table.respan(node, node + size)
        for listener in jvm.heap.mutation_listeners:
            listener(node - 8, size + 16)
        assert list(table.dirty_ranges()) == [(node, node + size)]
        assert table.dirty_count == size // DELTA_CARD_SIZE

    def test_delta_cards_finer_than_gc_cards(self, jvm, tracker):
        table = tracker.new_table()
        assert table.card_size == DELTA_CARD_SIZE
        assert table.card_size < jvm.heap.card_table.card_size
