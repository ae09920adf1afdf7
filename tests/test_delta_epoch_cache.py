"""Tests for the send-epoch record (repro/delta/epoch_cache.py)."""

import pytest

from repro.core.output_buffer import LOGICAL_BASE
from repro.delta.epoch_cache import EpochRecord
from repro.heap.layout import OBJECT_ALIGNMENT


def make_record(members, destination="dst", epoch=1):
    """members: list of (address, offset, aligned_size)."""
    return EpochRecord(
        destination=destination,
        epoch=epoch,
        addr_to_offset={a: o for a, o, _ in members},
        sizes={a: s for a, _, s in members},
        logical_end=max((o + s for _, o, s in members), default=LOGICAL_BASE),
        total_bytes=sum(s for _, _, s in members),
        minor_gcs=0,
        full_gcs=0,
    )


class TestRecordFullSend:
    def test_builds_mapping_from_cloned_triples(self):
        cloned = [(0x1000, 8, 24), (0x1040, 32, 30), (0x10A0, 64, 48)]
        record = EpochRecord.from_full_send("dst", cloned, 2, 1)
        assert record.offset_of(0x1000) == 8
        assert record.offset_of(0x1040) == 32
        # Sizes are stored receiver-aligned.
        assert record.sizes[0x1040] == 32
        assert record.sizes[0x1040] % OBJECT_ALIGNMENT == 0
        assert (record.minor_gcs, record.full_gcs) == (2, 1)

    def test_logical_end_past_last_clone(self):
        record = EpochRecord.from_full_send("dst", [(0x1000, 8, 24)], 0, 0)
        assert record.logical_end == 8 + 24
        assert record.total_bytes == 24

    def test_empty_send_ends_at_logical_base(self):
        record = EpochRecord.from_full_send("dst", [], 0, 0)
        assert record.logical_end == LOGICAL_BASE
        assert len(record) == 0


class TestMembersOverlapping:
    def test_exact_span(self):
        record = make_record([(0x1000, 8, 32), (0x1020, 40, 32)])
        assert list(record.members_overlapping([(0x1000, 0x1020)])) == [0x1000]

    def test_range_starting_inside_an_object(self):
        # A dirty range can begin mid-object (card granularity); the
        # object covering its start must still be yielded.
        record = make_record([(0x1000, 8, 64), (0x1040, 72, 32)])
        assert list(record.members_overlapping([(0x1010, 0x1040)])) == [0x1000]

    def test_range_just_past_object_end_excluded(self):
        record = make_record([(0x1000, 8, 32)])
        assert list(record.members_overlapping([(0x1020, 0x1040)])) == []

    def test_multiple_ranges_no_double_yield(self):
        record = make_record([(0x1000, 8, 0x100)])
        ranges = [(0x1000, 0x1010), (0x1080, 0x1090)]
        assert list(record.members_overlapping(ranges)) == [0x1000]

    def test_non_members_between_members_skipped(self):
        record = make_record([(0x1000, 8, 16), (0x1100, 24, 16)])
        hits = list(record.members_overlapping([(0x1000, 0x1200)]))
        assert hits == [0x1000, 0x1100]

    def test_empty_ranges(self):
        record = make_record([(0x1000, 8, 16)])
        assert list(record.members_overlapping([])) == []


class TestMergeEpoch:
    def test_new_members_fold_in(self):
        record = make_record([(0x1000, 8, 32)])
        record.merge_epoch({0x2000: 40}, {0x2000: 48}, 88, 1, 0)
        assert record.epoch == 2
        assert record.offset_of(0x2000) == 40
        assert record.total_bytes == 32 + 48
        assert record.logical_end == 88
        assert (record.minor_gcs, record.full_gcs) == (1, 0)
        # The dirty-intersection index sees the new member.
        assert list(record.members_overlapping([(0x2000, 0x2001)])) == [0x2000]

    def test_merge_without_new_members_updates_counters_only(self):
        record = make_record([(0x1000, 8, 32)])
        record.merge_epoch({}, {}, record.logical_end, 0, 0)
        assert record.epoch == 2
        assert len(record) == 1

    @pytest.mark.parametrize("per_gap", [1, 40], ids=["few", "many"])
    def test_index_after_merge_matches_a_brute_force_scan(self, per_gap):
        """NEW members below, between and above the resident ones: the
        merged index must answer exactly what a scan over every member
        answers."""
        resident = [(0x4000 + i * 0x100, 8 + i * 32, 32) for i in range(100)]
        record = make_record(resident)
        gaps = [0x1000, 0x4020, 0x5F40, 0xB000]  # below, between x2, above
        fresh = [
            gap + j * 0x10 for gap in gaps for j in range(per_gap)
            if not any(a <= gap + j * 0x10 < a + s for a, _, s in resident)
        ]
        assert min(fresh) < resident[0][0] < max(fresh) > resident[-1][0]
        end = record.logical_end
        record.merge_epoch(
            {a: end + i * 16 for i, a in enumerate(fresh)},
            {a: 16 for a in fresh},
            end + 16 * len(fresh), 0, 0,
        )
        assert record._sorted_addrs == sorted(record.addr_to_offset)
        assert len(record) == len(resident) + len(fresh)

        def brute(start, stop):
            return sorted(
                a for a, size in record.sizes.items()
                if a < stop and a + size > start
            )

        for start, stop in [
            (0, 0x1000), (0x1000, 0x1001), (0x0FF8, 0x1008), (0x4010, 0x4030),
            (0x4020, 0x4100), (0x5F00, 0x6100), (0xA2F0, 0xB008),
            (0xB000 + 16 * per_gap, 0xFFFF), (0, 0xFFFF),
        ]:
            assert list(record.members_overlapping([(start, stop)])) == (
                brute(start, stop)
            ), (hex(start), hex(stop))
