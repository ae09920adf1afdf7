"""Error-path tests for the Skyway receive side."""

import pytest

from repro.core.receiver import ObjectGraphReceiver, ReceiveError
from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.core.input_buffer import InputBuffer, InputBufferError
from repro.core.output_buffer import LOGICAL_BASE
from repro.jvm.jvm import JVM

from tests.conftest import make_date, sent_segments


@pytest.fixture
def pair(classpath):
    src = JVM("err-src", classpath=classpath)
    dst = JVM("err-dst", classpath=classpath)
    attach_skyway(src, [dst])
    return src, dst


class TestReceiverErrors:
    def test_truncated_header(self, pair):
        src, dst = pair
        segments, _ = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        with pytest.raises(ReceiveError, match="truncated"):
            receiver.feed(b"".join(segments)[:10])

    def test_object_overruns_segment(self, pair):
        src, dst = pair
        segments, _ = sent_segments(src, [make_date(src, 1, 1, 1)])
        data = b"".join(segments)
        receiver = dst.skyway.new_receiver()
        with pytest.raises(ReceiveError, match="overruns"):
            receiver.feed(data[:-16])

    def test_unknown_tid_rejected(self, pair):
        src, dst = pair
        segments, marks = sent_segments(src, [make_date(src, 1, 1, 1)])
        data = bytearray(b"".join(segments))
        data[8:16] = (10**6).to_bytes(8, "little")  # garbage tID
        receiver = dst.skyway.new_receiver()
        with pytest.raises(Exception):
            receiver.feed(bytes(data))

    def test_feed_after_finish(self, pair):
        src, dst = pair
        segments, marks = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        for seg in segments:
            receiver.feed(seg)
        receiver.finish(marks)
        with pytest.raises(ReceiveError):
            receiver.feed(segments[0])

    def test_double_finish(self, pair):
        src, dst = pair
        segments, marks = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        for seg in segments:
            receiver.feed(seg)
        receiver.finish(marks)
        with pytest.raises(ReceiveError):
            receiver.finish(marks)

    def test_bad_top_mark(self, pair):
        src, dst = pair
        segments, _ = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        for seg in segments:
            receiver.feed(seg)
        with pytest.raises(ReceiveError, match="top-mark"):
            receiver.finish([999_999])


class TestInputBufferErrors:
    def test_translate_before_freeze(self, jvm):
        buffer = InputBuffer(jvm.heap)
        with pytest.raises(InputBufferError, match="streamed"):
            buffer.translate(LOGICAL_BASE)

    def test_translate_out_of_range(self, jvm):
        buffer = InputBuffer(jvm.heap)
        buffer.freeze()
        with pytest.raises(InputBufferError, match="outside"):
            buffer.translate(LOGICAL_BASE + 4096)

    def test_place_after_freeze(self, jvm):
        buffer = InputBuffer(jvm.heap)
        buffer.freeze()
        with pytest.raises(InputBufferError, match="frozen"):
            buffer.place(b"\x00" * 32)

    def test_tiny_chunk_size_rejected(self, jvm):
        with pytest.raises(ValueError):
            InputBuffer(jvm.heap, chunk_size=16)


class TestDriverRestart:
    def test_fresh_registry_after_restart_is_consistent(self, classpath):
        """Fault tolerance is the application's job (paper §4.1): after a
        crash the whole system restarts, including the Skyway driver; the
        fresh registry renumbers classes consistently cluster-wide."""
        src1 = JVM("s1", classpath=classpath)
        dst1 = JVM("d1", classpath=classpath)
        attach_skyway(src1, [dst1])
        tid_before = src1.loader.load("Date").tid

        # "Restart": new JVMs, new driver registry.
        src2 = JVM("s2", classpath=classpath)
        dst2 = JVM("d2", classpath=classpath)
        attach_skyway(src2, [dst2])
        out = SkywayObjectOutputStream(src2.skyway, destination="p")
        out.write_object(make_date(src2, 7, 8, 9))
        inp = SkywayObjectInputStream(dst2.skyway)
        inp.accept(out.close())
        received = inp.read_object()
        assert dst2.klass_of(received).name == "Date"
        # tIDs within the new session are consistent sender/receiver.
        assert src2.loader.load("Date").tid == dst2.loader.load("Date").tid
        assert tid_before is not None
