"""The receive pass against the end-of-stream absolutization scan.

While a stream's input-buffer chunks abut, ``ObjectGraphReceiver.feed``
places, absolutizes and hashes each segment as it lands, and
``graph_digest`` returns the hash that pass recorded.  The contract: for
every stream the pass leaves the heap exactly as the scan does — same
placement, restored klass words, pointer words, card marks, registered
object starts and simulated charges — and every digest, recorded or
recomputed, is the hex ``tests/digest_oracle.py`` computes from the heap.
The scan is still the path of a stream whose chunks stop abutting.
"""

import random
import sys

import pytest

from repro.apps.incremental import build_vertex_graph, install_incremental_classes
from repro.core.input_buffer import InputBufferError
from repro.core.output_buffer import LOGICAL_BASE
from repro.core.receiver import ReceiveError
from repro.core.runtime import attach_skyway
from repro.core.streams import (
    SkywayObjectInputStream,
    SkywayObjectOutputStream,
    SkywayStreamError,
)
from repro.delta import DeltaReceiveEndpoint, DeltaSendChannel
from repro.heap.verify import verify_heap
from repro.jvm.jvm import JVM
from repro.transport.digest import graph_digest
from repro.types.classdef import ClassPath
from repro.types.corelib import install_core_classes

from tests.conftest import make_date, make_list, read_list, sent_segments
from tests.digest_oracle import reference_graph_digest
from tests.test_kernels import random_graph


def make_trio(classpath, **runtime_kwargs):
    """A sender and two identical receivers: one keeps the pass, one is
    taken off it before its first segment (today's scan at finish)."""
    src = JVM("rp-src", classpath=classpath)
    on_pass = JVM("rp-pass", classpath=classpath)
    on_scan = JVM("rp-scan", classpath=classpath)
    attach_skyway(src, [on_pass, on_scan], **runtime_kwargs)
    return src, on_pass, on_scan


def framed(src, roots, compress=False):
    src.skyway.shuffle_start()
    out = SkywayObjectOutputStream(src.skyway, destination="receive-pass",
                                   compress_headers=compress)
    for root in roots:
        out.write_object(root)
    return out.close()


def receive(dst, data, scan):
    """Accept ``data`` into ``dst``; returns (input stream, clock charge)."""
    inp = SkywayObjectInputStream(dst.skyway)
    if scan:
        inp.receiver._leave_pass(0)
    before = dst.clock.total()
    inp.accept(data)
    return inp, dst.clock.total() - before


def heap_state(jvm, receiver):
    """Everything a receive decides, in heap-relative coordinates: each
    placed object's address, class and image with pointer words made
    heap-relative, the chunks, the card marks and the parse index."""
    heap = jvm.heap
    base = heap.base
    objects = []
    for address in receiver.buffer.placed_objects:
        klass = heap.klass_of(address)  # a restored klass word resolves
        image = bytearray(heap.read_bytes(address, heap.object_size(address)))
        image[8:16] = bytes(8)  # klass ids are per JVM; the name is kept
        for offset in heap.reference_offsets(address):
            pointer = int.from_bytes(image[offset:offset + 8], "little")
            relative = pointer - base if pointer else 0
            image[offset:offset + 8] = relative.to_bytes(8, "little")
        objects.append((address - base, klass.name, bytes(image)))
    return {
        "objects": objects,
        "chunks": [(c.physical_start - base, c.capacity, c.logical_start,
                    c.filled) for c in receiver.buffer.chunks],
        "cards": heap.card_table.snapshot(),
        "starts": [a - base for a in heap.old.object_starts],
    }


def assert_pass_matches_scan(src, on_pass, on_scan, roots, compress=False):
    data = framed(src, roots, compress)
    passed, pass_charge = receive(on_pass, data, scan=False)
    scanned, scan_charge = receive(on_scan, data, scan=True)
    assert passed.receiver.pass_digest is not None  # the pass held
    assert scanned.receiver.pass_digest is None
    assert heap_state(on_pass, passed.receiver) == heap_state(
        on_scan, scanned.receiver)
    assert pass_charge == pytest.approx(scan_charge, rel=1e-9)
    verify_heap(on_pass.heap)
    verify_heap(on_scan.heap)
    digest = graph_digest(on_pass, passed.receiver)
    assert digest == passed.receiver.pass_digest[0]
    assert digest == reference_graph_digest(on_pass, passed.receiver)
    assert digest == graph_digest(on_scan, scanned.receiver)
    return passed


# ---------------------------------------------------------------------------
# parity with the scan
# ---------------------------------------------------------------------------

class TestPassMatchesScan:
    def test_reference_array_with_nulls(self, classpath):
        src, on_pass, on_scan = make_trio(classpath)
        arr = src.pin(src.new_array("Ljava.lang.Object;", 9))
        for i in (0, 2, 3, 7):  # the other slots stay null
            src.heap.write_element(arr.address, i, make_date(src, i, 1, 1))
        src.heap.write_element(
            arr.address, 8, src.heap.read_element(arr.address, 2))
        assert_pass_matches_scan(src, on_pass, on_scan, [arr.address])

    def test_primitive_arrays(self, classpath):
        src, on_pass, on_scan = make_trio(classpath)
        roots = []
        for desc, values in (("J", [1, -1, 2**40]), ("I", [3, -4]),
                             ("B", [7] * 13), ("D", [0.5, -2.25]), ("C", [])):
            arr = src.pin(src.new_array(desc, len(values)))
            for i, v in enumerate(values):
                src.heap.write_element(arr.address, i, v)
            roots.append(arr.address)
        assert_pass_matches_scan(src, on_pass, on_scan, roots)

    def test_oversized_object_in_its_own_chunk(self, classpath):
        src, on_pass, on_scan = make_trio(classpath, input_chunk_size=1024)
        big = src.pin(src.new_array("J", 600))  # 4.8 KB > chunk size
        for i in range(600):
            src.heap.write_element(big.address, i, i * i)
        holder = src.pin(src.new_array("Ljava.lang.Object;", 3))
        src.heap.write_element(holder.address, 0, make_list(src, range(5)))
        src.heap.write_element(holder.address, 1, big.address)
        src.heap.write_element(holder.address, 2, make_list(src, range(5)))
        passed = assert_pass_matches_scan(src, on_pass, on_scan,
                                          [holder.address])
        assert any(c.capacity > 1024 for c in passed.receiver.buffer.chunks)

    def test_multi_root_stream(self, classpath):
        src, on_pass, on_scan = make_trio(classpath)
        date = src.pin(make_date(src, 1, 2, 3))
        head = src.pin(make_list(src, range(30)))
        passed = assert_pass_matches_scan(
            src, on_pass, on_scan, [date.address, 0, head.address, date.address])
        roots = [passed.read_object() for _ in range(4)]
        assert roots[1] == 0 and roots[0] == roots[3]
        assert read_list(on_pass, roots[2]) == list(range(30))

    def test_many_abutting_chunks(self, classpath):
        src, on_pass, on_scan = make_trio(
            classpath, input_chunk_size=256, output_buffer_capacity=512)
        head = src.pin(make_list(src, range(200)))
        passed = assert_pass_matches_scan(src, on_pass, on_scan, [head.address])
        chunks = passed.receiver.buffer.chunks
        assert len(chunks) > 10
        # Each chunk starts where the one before it ends.
        for before, after in zip(chunks, chunks[1:]):
            assert before.physical_start + before.filled == after.physical_start

    def test_compact_codec_stream(self, classpath):
        src, on_pass, on_scan = make_trio(classpath, output_buffer_capacity=512)
        head = src.pin(make_list(src, range(40)))
        assert_pass_matches_scan(src, on_pass, on_scan, [head.address],
                                 compress=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, classpath, seed):
        rng = random.Random(seed)
        capacity = rng.choice((256, 512, 1000, 4096))
        src, on_pass, on_scan = make_trio(
            classpath, output_buffer_capacity=capacity,
            input_chunk_size=rng.choice((256, 768, 4096, 64 * 1024)))
        objs = random_graph(src, rng, capacity)
        roots = rng.sample(objs, 4) + [0, objs[-1], objs[0]]
        assert_pass_matches_scan(src, on_pass, on_scan, roots)


class TestInterleavedStreamsLeaveThePass:
    def test_interleaved_receivers_finish_through_the_scan(self, classpath):
        src, dst, _ = make_trio(classpath, output_buffer_capacity=512,
                                input_chunk_size=768)
        segments_a, marks_a = sent_segments(src, [make_list(src, range(60))])
        segments_b, marks_b = sent_segments(src, [make_list(src, range(9, 69))])
        assert len(segments_a) == len(segments_b) > 2
        a, b = dst.skyway.new_receiver(), dst.skyway.new_receiver()
        for seg_a, seg_b in zip(segments_a, segments_b):
            a.feed(seg_a)
            b.feed(seg_b)
        roots_a, roots_b = a.finish(marks_a), b.finish(marks_b)
        assert a.pass_digest is None and b.pass_digest is None
        verify_heap(dst.heap)
        assert read_list(dst, roots_a[0].address) == list(range(60))
        assert read_list(dst, roots_b[0].address) == list(range(9, 69))
        for receiver in (a, b):
            assert graph_digest(dst, receiver) == reference_graph_digest(
                dst, receiver)


# ---------------------------------------------------------------------------
# the recorded digest is returned only for the bytes it hashed
# ---------------------------------------------------------------------------

def received(classpath, **runtime_kwargs):
    src = JVM("neg-src", classpath=classpath)
    dst = JVM("neg-dst", classpath=classpath)
    attach_skyway(src, [dst], **runtime_kwargs)
    return src, dst


class TestDigestNegativeControls:
    def assert_recomputed(self, dst, receiver, recorded):
        digest = graph_digest(dst, receiver)
        assert digest == reference_graph_digest(dst, receiver)
        assert digest != recorded

    def test_flipped_pointer(self, classpath):
        src, dst = received(classpath)
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(framed(src, [make_list(src, range(6))]))
        recorded = inp.receiver.pass_digest[0]
        head = inp.read_object()
        field = dst.loader.load("ListNode").field("next").offset
        third = dst.heap.read_word(dst.heap.read_word(head + field) + field)
        dst.heap.write_word(head + field, third)  # still inside the buffer
        self.assert_recomputed(dst, inp.receiver, recorded)

    def test_flipped_primitive_byte(self, classpath):
        src, dst = received(classpath)
        arr = src.new_array("J", 5)
        src.heap.write_element(arr, 3, 0x0102030405)
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(framed(src, [arr]))
        recorded = inp.receiver.pass_digest[0]
        at = inp.read_object() + dst.layout.array_payload_offset("J") + 3 * 8
        dst.heap.write_bytes(at, bytes([dst.heap.read_bytes(at, 1)[0] ^ 1]))
        self.assert_recomputed(dst, inp.receiver, recorded)

    def test_register_update_hook(self, classpath):
        src, dst = received(classpath)
        dst.skyway.register_update("ListNode", "payload", lambda jvm, a: 7)
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(framed(src, [make_list(src, range(6))]))
        assert read_list(dst, inp.read_object()) == [7] * 6
        # The hook wrote after the pass hashed: the record is stale.
        self.assert_recomputed(dst, inp.receiver, inp.receiver.pass_digest[0])

    def test_delta_append(self, classpath):
        src, dst = received(classpath)
        channel = DeltaSendChannel(src.skyway, "dst")
        endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
        head = src.pin(make_list(src, range(50)))
        endpoint.receive(channel.send([head.address]))
        receiver = endpoint.state_of(channel.channel_id).stream.receiver
        recorded = receiver.pass_digest[0]
        assert graph_digest(dst, receiver) == recorded

        fresh = src.pin(src.new_instance("ListNode"))
        src.set_field(fresh.address, "next", head.address)
        endpoint.receive(channel.send([fresh.address]))
        self.assert_recomputed(dst, receiver, recorded)

    @pytest.mark.parametrize("chunk_size", [64 * 1024, 768])
    def test_wrong_pass_offset_never_digests_clean(self, classpath, chunk_size):
        """A pass that absolutizes with a wrong offset, consistently with
        the buffer's own record of it, hashes a self-consistent image.  The
        finish re-check against the chunks (one chunk), or the scan the
        stream falls back to when its next chunk disagrees (many), must
        make that a typed error or a digest the clean receive never has."""
        src, dst = received(classpath, output_buffer_capacity=256,
                            input_chunk_size=chunk_size)
        segments, marks = sent_segments(src, [make_list(src, range(40))])
        assert len(segments) > 2
        clean = dst.skyway.new_receiver()
        for segment in segments:
            clean.feed(segment)
        clean.finish(marks)
        clean_digest = graph_digest(dst, clean)

        skewed = dst.skyway.new_receiver()
        skewed.feed(segments[0])
        skewed.buffer.offset += 8  # the pass takes its offset from here
        for segment in segments[1:]:
            skewed.feed(segment)
        if len(skewed.buffer.chunks) == 1:
            with pytest.raises(ReceiveError, match="disagrees with the chunk"):
                skewed.finish(marks)
            return
        try:
            skewed.finish(marks)
            digest = graph_digest(dst, skewed)
        except (ReceiveError, InputBufferError, ValueError):
            return
        assert digest != clean_digest


# ---------------------------------------------------------------------------
# errors keep their type, place and text
# ---------------------------------------------------------------------------

class TestErrorsUnchanged:
    def finish_error(self, classpath, value_at):
        """Stream a two-node list whose head's ``next`` holds
        ``value_at(logical_end)``; returns (the stream error's text, the
        value, the logical end)."""
        src, dst = received(classpath)
        head = src.pin(make_list(src, range(2))).address
        (segment,), _ = sent_segments(src, [head])
        data = bytearray(framed(src, [head]))
        end = LOGICAL_BASE + len(segment)
        value = value_at(end)
        at = data.index(segment) + dst.loader.load("ListNode").field("next").offset
        data[at:at + 8] = value.to_bytes(8, "little")
        with pytest.raises(SkywayStreamError) as err:
            SkywayObjectInputStream(dst.skyway).accept(bytes(data))
        return str(err.value), value, end

    @pytest.mark.parametrize("value_at", [
        lambda end: 3,
        lambda end: LOGICAL_BASE - 1,
        lambda end: end,
        lambda end: end + 8,
        lambda end: 1 << 40,
        lambda end: (1 << 64) - 1,
    ], ids=["3", "below-base", "end", "past-end", "2**40", "2**64-1"])
    def test_bad_reference_fails_at_finish_with_todays_text(
        self, classpath, value_at
    ):
        message, value, end = self.finish_error(classpath, value_at)
        assert message == (
            f"absolutization failed: InputBufferError: relative address "
            f"{value:#x} outside buffer [{LOGICAL_BASE:#x}, {end:#x})"
        )

    def test_failed_parse_places_and_reserves_nothing(self, classpath):
        src, dst = received(classpath)
        segments, _ = sent_segments(src, [make_list(src, range(8))])
        data = b"".join(segments)
        receiver = dst.skyway.new_receiver()
        top = dst.heap.old.top
        with pytest.raises(ReceiveError, match="overruns segment"):
            receiver.feed(data[:-8])
        assert receiver.objects_received == 0 and len(receiver.buffer) == 0
        assert receiver.buffer.chunks == [] and dst.heap.old.top == top


# ---------------------------------------------------------------------------
# a speed gate
# ---------------------------------------------------------------------------

def test_receive_and_digest_make_no_call_per_object():
    """Receive plus ``graph_digest`` on a 2,000-vertex ring-plus-chords
    graph, counted with ``sys.setprofile``: the parse appends each
    object's size and kernel, and nothing else is paid per object (2.07
    calls per object).  One more call per object — a ``translate`` per
    reference, a hash update or an image copy per object — fails it."""
    classpath = install_incremental_classes(install_core_classes(ClassPath()))
    src = JVM("calls-src", classpath=classpath)
    dst = JVM("calls-dst", classpath=classpath)
    attach_skyway(src, [dst])
    rng = random.Random(2018)
    n = 2000
    edges = [(v, (v + 1) % n) for v in range(n)]
    edges += [(v, rng.randrange(n)) for v in range(n)]
    root = src.pin(build_vertex_graph(src, edges)).address
    data = framed(src, [root])
    SkywayObjectInputStream(dst.skyway).accept(data)  # load the classes

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    inp = SkywayObjectInputStream(dst.skyway)
    sys.setprofile(count)
    try:
        inp.accept(data)
        digest = graph_digest(dst, inp.receiver)
    finally:
        sys.setprofile(None)
    objects = inp.receiver.objects_received
    assert objects == 2 * n + 2
    assert digest == reference_graph_digest(dst, inp.receiver)
    assert calls / objects <= 3, f"{calls / objects:.2f} calls per object"
