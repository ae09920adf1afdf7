"""Run placement: a segment's objects land in the input buffer as one run.

``InputBuffer.place_run`` must be indistinguishable from placing the same
objects one by one with ``place()``, and ``ObjectGraphReceiver.feed`` must
keep its error contract when the bad object sits in the middle of a
segment (nothing of that segment is placed before the parse completes).
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.input_buffer import InputBuffer, InputBufferError
from repro.core.output_buffer import LOGICAL_BASE
from repro.core.receiver import ReceiveError
from repro.core.runtime import attach_skyway
from repro.heap.layout import KLASS_OFFSET, OBJECT_ALIGNMENT
from repro.heap.verify import verify_heap
from repro.jvm.jvm import JVM
from repro.types.corelib import standard_classpath

from tests.conftest import make_date, make_list, read_list, sent_segments

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def long_array_image(jvm, length):
    """The wire image of a ``long[length]`` (klass word = local klass id, so
    the heap stays parsable without an absolutization pass)."""
    klass = jvm.loader.load("[J")
    image = bytearray(klass.object_size(length))
    image[KLASS_OFFSET:KLASS_OFFSET + 8] = klass.klass_id.to_bytes(8, "little")
    lo = jvm.layout.array_length_offset
    image[lo:lo + 4] = length.to_bytes(4, "little")
    for i in range(length):  # distinguishable payloads
        at = jvm.layout.array_payload_offset("J") + 8 * i
        image[at:at + 8] = (length * 1000 + i).to_bytes(8, "little")
    return bytes(image)


def buffer_state(jvm, buffer):
    """Everything placement decides, in heap-relative coordinates."""
    base = jvm.heap.base
    return {
        "placed": [a - base for a in buffer.placed_objects],
        "chunks": [(c.physical_start - base, c.capacity, c.logical_start,
                    c.filled) for c in buffer.chunks],
        "logical_size": buffer.logical_size,
        "total_bytes": buffer.total_bytes,
        "index": [a - base for a in jvm.heap.old.object_starts],
        "bytes": [jvm.heap.read_bytes(c.physical_start, c.filled)
                  for c in buffer.chunks],
    }


class TestRunPlacementMatchesPerObjectPlacement:
    @_SETTINGS
    @given(
        # 0..60 longs is 24..504 bytes; the occasional 200..700 is oversized
        # for most chunk sizes drawn below.
        lengths=st.lists(
            st.one_of(st.integers(0, 60), st.integers(200, 700)),
            min_size=1, max_size=40),
        chunk_size=st.integers(min_value=256, max_value=2048),
        cuts=st.sets(st.integers(min_value=1, max_value=39), max_size=6),
    )
    def test_same_addresses_chunks_cursor_and_translation(
        self, lengths, chunk_size, cuts
    ):
        one_by_one = JVM("place-each", classpath=standard_classpath(),
                         old_bytes=8 * 1024 * 1024)
        in_runs = JVM("place-run", classpath=standard_classpath(),
                      old_bytes=8 * 1024 * 1024)
        # Klass ids are per JVM: the images parse in the run-placed heap.
        images = [long_array_image(in_runs, n) for n in lengths]

        each = InputBuffer(one_by_one.heap, chunk_size=chunk_size)
        each_addresses = [each.place(image) for image in images]

        runs = InputBuffer(in_runs.heap, chunk_size=chunk_size)
        run_addresses = []
        bounds = [0] + sorted(c for c in cuts if c < len(images)) + [len(images)]
        for lo, hi in zip(bounds, bounds[1:]):
            run_addresses += runs.place_run(
                b"".join(images[lo:hi]), [len(i) for i in images[lo:hi]]
            )

        assert ([a - in_runs.heap.base for a in run_addresses]
                == [a - one_by_one.heap.base for a in each_addresses])
        assert buffer_state(in_runs, runs) == buffer_state(one_by_one, each)

        each.freeze()
        runs.freeze()
        starts = itertools.accumulate([LOGICAL_BASE] + [len(i) for i in images])
        for logical, address in zip(starts, run_addresses):
            assert runs.translate(logical) == address
            assert (runs.translate(logical) - in_runs.heap.base
                    == each.translate(logical) - one_by_one.heap.base)
        assert verify_heap(in_runs.heap) == len(images)

    def test_empty_run_places_nothing(self, jvm):
        buffer = InputBuffer(jvm.heap)
        assert buffer.place_run(b"", []) == []
        assert buffer.chunks == [] and len(buffer) == 0

    def test_frozen_buffer_rejects_run_placement(self, jvm):
        buffer = InputBuffer(jvm.heap)
        buffer.freeze()
        with pytest.raises(InputBufferError, match="frozen"):
            buffer.place_run(b"\x00" * 32, [32])

    def test_sizes_must_tile_the_run(self, jvm):
        buffer = InputBuffer(jvm.heap)
        with pytest.raises(InputBufferError, match="sum to 48"):
            buffer.place_run(b"\x00" * 64, [24, 24])
        assert len(buffer) == 0

    def test_unaligned_sizes_are_rejected(self, jvm):
        buffer = InputBuffer(jvm.heap)
        assert 28 % OBJECT_ALIGNMENT
        with pytest.raises(InputBufferError, match="aligned"):
            buffer.place_run(b"\x00" * 56, [28, 28])
        assert len(buffer) == 0


# ---------------------------------------------------------------------------
# the receiver on top of run placement
# ---------------------------------------------------------------------------

@pytest.fixture
def pair(classpath):
    src = JVM("run-src", classpath=classpath)
    dst = JVM("run-dst", classpath=classpath)
    # 512-byte segments into 768-byte chunks: segment and chunk boundaries
    # never line up, so runs get split across chunks.
    attach_skyway(src, [dst], output_buffer_capacity=512, input_chunk_size=768)
    return src, dst


class TestInterleavedReceivers:
    def test_two_streams_interleaving_segments_in_one_heap(self, pair):
        """The parallel-stream case: stream A's later runs fill the tail
        of a chunk that lies *below* stream B's objects, so the parse index
        cannot simply be extended."""
        src, dst = pair
        segments_a, marks_a = sent_segments(src, [make_list(src, range(60))])
        segments_b, marks_b = sent_segments(src, [make_list(src, range(100, 160))])
        assert len(segments_a) > 2 and len(segments_b) > 2

        a, b = dst.skyway.new_receiver(), dst.skyway.new_receiver()
        for seg_a, seg_b in itertools.zip_longest(segments_a, segments_b):
            if seg_a is not None:
                a.feed(seg_a)
            if seg_b is not None:
                b.feed(seg_b)
        # Chunks of the two buffers alternate in the old generation.
        assert (a.buffer.chunks[0].physical_start
                < b.buffer.chunks[0].physical_start
                < a.buffer.chunks[1].physical_start)

        roots_a, roots_b = a.finish(marks_a), b.finish(marks_b)
        starts = dst.heap.old.object_starts
        assert starts == sorted(set(starts))
        assert set(a.buffer.placed_objects) | set(b.buffer.placed_objects) \
            <= set(starts)
        verify_heap(dst.heap)
        assert read_list(dst, roots_a[0].address) == list(range(60))
        assert read_list(dst, roots_b[0].address) == list(range(100, 160))


class TestErrorsMidSegment:
    """The three parse errors, raised for an object that is neither first
    nor last in its segment; messages are pinned verbatim."""

    @pytest.fixture
    def stream(self, classpath):
        src = JVM("mid-src", classpath=classpath)
        dst = JVM("mid-dst", classpath=classpath)
        attach_skyway(src, [dst])
        segments, _ = sent_segments(
            src, [make_date(src, i, 1, 1) for i in range(3)]
        )
        data = b"".join(segments)
        # Three Date graphs, breadth first: Date, Year4D, Month2D, Day2D.
        sizes = [src.loader.load(name).object_size()
                 for name in ("Date", "Year4D", "Month2D", "Day2D")] * 3
        assert sum(sizes) == len(data)
        starts = [0] + list(itertools.accumulate(sizes))
        return dst, data, sizes, starts

    def test_truncated_header(self, stream):
        dst, data, sizes, starts = stream
        receiver = dst.skyway.new_receiver()
        with pytest.raises(ReceiveError) as err:
            receiver.feed(data[: starts[5] + 10])
        assert str(err.value) == (
            f"truncated object header at segment offset {starts[5]}"
        )
        assert receiver.objects_received == 0 and len(receiver.buffer) == 0

    def test_null_tid_names_the_stream_ordinal(self, stream):
        dst, data, sizes, starts = stream
        receiver = dst.skyway.new_receiver()
        receiver.feed(data[: starts[4]])  # one whole graph, a segment of its own
        bad = bytearray(data[starts[4]:])
        at = starts[6] - starts[4] + KLASS_OFFSET
        bad[at:at + 8] = bytes(8)
        with pytest.raises(ReceiveError) as err:
            receiver.feed(bytes(bad))
        assert str(err.value) == (
            f"null tID at segment offset {starts[6] - starts[4]} "
            f"(object #6 of the stream)"
        )
        assert receiver.objects_received == 4

    def test_object_overruns_segment(self, stream):
        dst, data, sizes, starts = stream
        receiver = dst.skyway.new_receiver()
        with pytest.raises(ReceiveError) as err:
            receiver.feed(data[: starts[6] - 8])
        assert str(err.value) == (
            f"object of {sizes[5]} bytes overruns segment at {starts[5]}"
        )
