"""Tests for the Skyway output buffer: logical addresses and streaming."""

import pytest

from repro.core.output_buffer import LOGICAL_BASE, OutputBuffer


class TestReserve:
    def test_starts_past_null_word(self):
        buf = OutputBuffer("d")
        assert buf.reserve(24) == LOGICAL_BASE

    def test_addresses_monotonic_and_aligned(self):
        buf = OutputBuffer("d")
        a = buf.reserve(17)
        b = buf.reserve(8)
        assert b == a + 24  # 17 aligned up to 24
        assert a % 8 == 0 and b % 8 == 0

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            OutputBuffer("d", capacity=16)


class TestWriteAndFlush:
    def test_sequential_writes_accumulate(self):
        buf = OutputBuffer("d", capacity=1024)
        a = buf.reserve(32)
        buf.write_object(a, b"\x01" * 32)
        b = buf.reserve(32)
        buf.write_object(b, b"\x02" * 32)
        assert buf.resident_bytes == 64

    def test_flush_on_overflow(self):
        collected = []
        buf = OutputBuffer("d", capacity=64, sink=collected.append)
        a = buf.reserve(48)
        buf.write_object(a, b"a" * 48)
        b = buf.reserve(48)
        buf.write_object(b, b"b" * 48)
        assert buf.flush_count >= 1
        assert b"".join(collected).startswith(b"a" * 48)

    def test_oversized_object_streams_through(self):
        collected = []
        buf = OutputBuffer("d", capacity=64, sink=collected.append)
        a = buf.reserve(256)
        buf.write_object(a, b"x" * 256)
        buf.flush()
        assert b"".join(collected) == b"x" * 256

    def test_flushed_bytes_tracks_logical_progress(self):
        buf = OutputBuffer("d", capacity=64, sink=lambda s: None)
        a = buf.reserve(48)
        buf.write_object(a, b"a" * 48)
        buf.flush()
        assert buf.flushed_bytes == LOGICAL_BASE + 48
        b = buf.reserve(24)
        buf.write_object(b, b"b" * 24)  # lands at physical offset 0
        assert buf.resident_bytes == 24

    def test_write_into_flushed_region_rejected(self):
        buf = OutputBuffer("d", capacity=64, sink=lambda s: None)
        a = buf.reserve(48)
        buf.write_object(a, b"a" * 48)
        buf.flush()
        with pytest.raises(ValueError):
            buf.write_object(a, b"too late")

    def test_drain_segments_without_sink(self):
        buf = OutputBuffer("d", capacity=64)
        a = buf.reserve(48)
        buf.write_object(a, b"a" * 48)
        buf.flush()
        assert buf.drain_segments() == [b"a" * 48]
        assert buf.drain_segments() == []

    def test_set_sink_flushes_pending(self):
        buf = OutputBuffer("d", capacity=64)
        a = buf.reserve(48)
        buf.write_object(a, b"a" * 48)
        buf.flush()
        got = []
        buf.set_sink(got.append)
        assert got == [b"a" * 48]

    def test_clear_resets_everything(self):
        buf = OutputBuffer("d")
        buf.reserve(32)
        buf.clear()
        assert buf.reserve(8) == LOGICAL_BASE
        assert buf.logical_size == 8

    def test_clone_below_fill_mark_rejected(self):
        """An address inside the resident segment's filled bytes can only
        come from a sender bug: it must not overwrite an earlier clone."""
        buf = OutputBuffer("d", capacity=1024)
        a = buf.reserve(32)
        buf.write_object(a, b"a" * 32)
        b = buf.reserve(32)
        buf.write_object(b, b"b" * 32)
        with pytest.raises(ValueError, match="below the fill mark"):
            buf.begin_clone(a, 32)
        assert buf.resident_bytes == 64
        buf.flush()
        assert buf.drain_segments() == [b"a" * 32 + b"b" * 32]
