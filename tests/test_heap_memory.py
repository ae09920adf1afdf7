"""Tests for the managed heap: allocation, field access, regions, barriers."""

import ctypes
import mmap
import sys

import pytest

from repro.heap.heap import (
    MB,
    NULL,
    ManagedHeap,
    OutOfMemoryError,
    SegfaultError,
)
from repro.heap.layout import SKYWAY_LAYOUT, WORD
from repro.jvm.jvm import JVM

from tests.conftest import make_date, make_list, read_date, read_list


class TestAllocation:
    def test_instance_allocation_zeroed(self, jvm):
        addr = jvm.new_instance("Mixed")
        for field in jvm.klass_of(addr).all_fields():
            assert jvm.heap.read_field(addr, field) in (0, 0.0)

    def test_distinct_addresses(self, jvm):
        a = jvm.new_instance("Date")
        b = jvm.new_instance("Date")
        assert a != b

    def test_array_allocation_and_length(self, jvm):
        arr = jvm.new_array("I", 10)
        assert jvm.heap.array_length(arr) == 10
        assert jvm.klass_of(arr).is_array

    def test_addresses_are_aligned(self, jvm):
        for _ in range(5):
            assert jvm.new_instance("Date") % 8 == 0

    def test_heap_address_spaces_disjoint(self, classpath):
        a = JVM("a", classpath=classpath)
        b = JVM("b", classpath=classpath)
        addr = a.new_instance("Date")
        with pytest.raises(SegfaultError):
            b.heap.read_word(addr)

    def test_old_gen_allocation(self, jvm):
        addr = jvm.heap.allocate(jvm.loader.load("Date"), old_gen=True)
        assert jvm.heap.old.contains(addr)

    def test_eden_fills_then_raises_at_heap_level(self, classpath):
        jvm = JVM("tiny", classpath=classpath, young_bytes=32 * 1024)
        klass = jvm.loader.load("Date")
        with pytest.raises(OutOfMemoryError):
            for _ in range(10_000):
                jvm.heap.allocate(klass)


class TestFieldAccess:
    def test_primitive_roundtrip_all_kinds(self, jvm):
        addr = jvm.new_instance("Mixed")
        values = {
            "b": -12, "z": True, "c": 0xBEEF, "s": -3000,
            "i": -123456, "f": 1.5, "j": -(1 << 40), "d": 3.141592653589793,
        }
        for name, value in values.items():
            jvm.set_field(addr, name, value)
        for name, value in values.items():
            got = jvm.get_field(addr, name)
            if name == "z":
                assert got == 1
            else:
                assert got == value

    def test_reference_field_roundtrip(self, jvm):
        date = make_date(jvm, 2018, 3, 24)
        assert read_date(jvm, date) == (2018, 3, 24)

    def test_null_reference(self, jvm):
        node = jvm.new_instance("ListNode")
        assert jvm.get_field(node, "next") == NULL

    def test_unknown_field_raises(self, jvm):
        addr = jvm.new_instance("Date")
        with pytest.raises(KeyError):
            jvm.get_field(addr, "nope")

    def test_array_element_roundtrip(self, jvm):
        arr = jvm.new_array("J", 4)
        for i in range(4):
            jvm.heap.write_element(arr, i, (i + 1) * -(10**12))
        assert [jvm.heap.read_element(arr, i) for i in range(4)] == [
            -(10**12), -2 * 10**12, -3 * 10**12, -4 * 10**12
        ]

    def test_array_bounds_checked(self, jvm):
        arr = jvm.new_array("I", 2)
        with pytest.raises(IndexError):
            jvm.heap.read_element(arr, 2)
        with pytest.raises(IndexError):
            jvm.heap.write_element(arr, -1, 0)

    def test_reference_offsets_for_instance(self, jvm):
        date = jvm.new_instance("Date")
        offs = jvm.heap.reference_offsets(date)
        assert len(offs) == 3

    def test_reference_offsets_for_ref_array(self, jvm):
        arr = jvm.new_array("Ljava.lang.Object;", 3)
        assert len(jvm.heap.reference_offsets(arr)) == 3

    def test_reference_offsets_for_prim_array(self, jvm):
        arr = jvm.new_array("I", 3)
        assert jvm.heap.reference_offsets(arr) == []


class TestWriteBarrier:
    def test_store_into_old_dirties_card(self, jvm):
        old_obj = jvm.heap.allocate(jvm.loader.load("ListNode"), old_gen=True)
        young = jvm.new_instance("ListNode")
        jvm.set_field(old_obj, "next", young)
        field = jvm.klass_of(old_obj).field("next")
        assert jvm.heap.card_table.is_dirty(old_obj + field.offset)

    def test_store_into_young_leaves_cards_clean(self, jvm):
        a = jvm.new_instance("ListNode")
        b = jvm.new_instance("ListNode")
        jvm.set_field(a, "next", b)
        assert jvm.heap.card_table.dirty_count == 0


class TestObjectSizeAndIdentity:
    def test_object_size_instance(self, jvm):
        date = jvm.new_instance("Date")
        assert jvm.heap.object_size(date) == jvm.klass_of(date).instance_size

    def test_object_size_array(self, jvm):
        arr = jvm.new_array("I", 7)
        assert jvm.heap.object_size(arr) == SKYWAY_LAYOUT.array_size("I", 7)

    def test_identity_hash_stable(self, jvm):
        addr = jvm.new_instance("Date")
        h1 = jvm.identity_hash(addr)
        h2 = jvm.identity_hash(addr)
        assert h1 == h2
        assert h1 != 0

    def test_identity_hash_cached_in_mark(self, jvm):
        from repro.heap import markword
        addr = jvm.new_instance("Date")
        h = jvm.identity_hash(addr)
        assert markword.get_hash(jvm.heap.read_mark(addr)) == h

    def test_string_roundtrip(self, jvm):
        s = jvm.new_string("skyway: héllo ☂")
        assert jvm.read_string(s) == "skyway: héllo ☂"

    def test_empty_string(self, jvm):
        assert jvm.read_string(jvm.new_string("")) == ""


class TestLinkedStructures:
    def test_linked_list_roundtrip(self, jvm):
        head = make_list(jvm, [1, 2, 3, 4, 5])
        assert read_list(jvm, head) == [1, 2, 3, 4, 5]

    def test_raw_old_reservation_and_registration(self, jvm):
        addr = jvm.heap.reserve_raw_old(1024)
        assert jvm.heap.old.contains(addr)
        jvm.heap.register_object(addr)
        with pytest.raises(Exception):
            jvm.heap.register_object(addr)  # must be ascending


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * mmap.PAGESIZE


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc/self")


class TestBackingMapping:
    """A heap's capacity is reserved, not paid for: its store is a private
    anonymous mapping whose pages cost nothing until they are touched."""

    @linux_only
    def test_untouched_capacity_is_not_resident(self):
        before = _resident_bytes()
        heap = ManagedHeap(SKYWAY_LAYOUT, old_bytes=256 * MB)
        grown = _resident_bytes() - before
        assert heap.old.capacity == 256 * MB
        assert grown < 16 * MB

    def test_fresh_memory_reads_as_zero(self):
        heap = ManagedHeap(SKYWAY_LAYOUT, old_bytes=256 * MB)
        for address in (heap.old.start + 128 * MB, heap.old.end - WORD):
            assert heap.read_word(address) == 0
        chunk = heap.reserve_raw_old(64 * 1024)
        assert heap.read_bytes(chunk, 64 * 1024) == bytes(64 * 1024)

    @linux_only
    def test_backing_store_is_a_private_mapping(self):
        heap = ManagedHeap(SKYWAY_LAYOUT, old_bytes=8 * MB)
        address = ctypes.addressof(ctypes.c_char.from_buffer(heap.memory_view))
        assert address % mmap.PAGESIZE == 0  # a mapping of its own
        with open("/proc/self/maps") as maps:
            for line in maps:
                span, perms = line.split()[:2]
                lo, hi = (int(end, 16) for end in span.split("-"))
                if lo <= address < hi:
                    break
            else:
                pytest.fail(f"no mapping holds {address:#x}")
        assert address + len(heap.memory_view) <= hi
        assert perms == "rw-p"

    def test_copy_bytes_moves_within_bounds(self):
        heap = ManagedHeap(SKYWAY_LAYOUT, old_bytes=1 * MB)
        source, dest = heap.old.start, heap.old.start + 4096
        heap.write_bytes(source, b"skyway!!")
        heap.copy_bytes(dest, source, 8)
        assert heap.read_bytes(dest, 8) == b"skyway!!"
        with pytest.raises(SegfaultError):
            heap.copy_bytes(heap.old.end - 4, source, 8)
        with pytest.raises(SegfaultError):
            heap.copy_bytes(dest, heap.old.end - 4, 8)
