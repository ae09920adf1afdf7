"""Tests for the compiled clone-kernel fast path.

The contract: for every homogeneous send the kernel path must produce the
*exact* framed bytes the interpreted per-field traversal produces — same
clones, same relativized references, same charges on the simulated clock.
Kernels may only change how fast the Python gets there.  A send to a
baseline heap runs the same loop with converting kernels, whose geometry
is the Skyway class's shifted down by the baddr word.
"""

import random
import sys

import pytest

from repro.apps.incremental import build_vertex_graph, install_incremental_classes
from repro.core.kernels import kernel_for
from repro.core.output_buffer import OutputBuffer
from repro.core.receiver import ReceiveError
from repro.core.runtime import attach_skyway
from repro.core.sender import ObjectGraphSender, SendError
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.delta.epoch_cache import EpochRecord
from repro.delta.wire import DeltaEncoder, DeltaWireError
from repro.exchange import GraphChannel, Loopback
from repro.heap.layout import BASELINE_LAYOUT, SKYWAY_LAYOUT, HeapLayout
from repro.jvm.jvm import JVM
from repro.simtime.costmodel import CostModel
from repro.transport.digest import graph_digest, semantic_graph_digest
from repro.transport.testing import sample_worker_classpath
from repro.types.classdef import ClassPath
from repro.types.corelib import install_core_classes, standard_classpath
from repro.types.descriptors import PRIMITIVE_DESCRIPTORS
from repro.types.loader import ClassLoader

from tests.conftest import (
    make_date, make_list, read_date, read_list, sample_classpath,
)


@pytest.fixture
def pair(classpath):
    src = JVM("k-src", classpath=classpath)
    dst = JVM("k-dst", classpath=classpath)
    attach_skyway(src, [dst])
    return src, dst


def framed(src, roots, use_kernels, thread_id=0):
    """One fresh-phase send of ``roots``; returns the framed byte stream."""
    src.skyway.shuffle_start()
    out = SkywayObjectOutputStream(
        src.skyway, destination="kernel-test", thread_id=thread_id,
        use_kernels=use_kernels,
    )
    for root in roots:
        out.write_object(root)
    return out.close()


def roundtrip(dst, data):
    inp = SkywayObjectInputStream(dst.skyway)
    inp.accept(data)
    return inp


# ---------------------------------------------------------------------------
# byte-for-byte parity with the interpreted traversal
# ---------------------------------------------------------------------------

class TestKernelByteParity:
    def assert_parity(self, src, roots):
        assert framed(src, roots, True) == framed(src, roots, False)

    def test_instance_graph(self, pair):
        src, _ = pair
        self.assert_parity(src, [make_date(src, 2018, 3, 24)])

    def test_linked_list(self, pair):
        src, _ = pair
        self.assert_parity(src, [make_list(src, range(100))])

    def test_reference_array(self, pair):
        src, _ = pair
        arr = src.new_array("Ljava.lang.Object;", 5)
        pin = src.pin(arr)
        for i in range(4):  # last slot stays null
            src.heap.write_element(pin.address, i, make_date(src, i, 1, 1))
        self.assert_parity(src, [pin.address])

    def test_primitive_arrays(self, pair):
        src, _ = pair
        roots = []
        for desc, values in (("J", [1, -1, 2**40]), ("I", [3, -4]),
                             ("B", [7] * 13), ("D", [0.5, -2.25])):
            arr = src.new_array(desc, len(values))
            for i, v in enumerate(values):
                src.heap.write_element(arr, i, v)
            roots.append(arr)
        self.assert_parity(src, roots)

    def test_diamond_sharing(self, pair):
        """A leaf reachable twice serializes once + one backward ref."""
        src, _ = pair
        shared = src.new_instance("Day2D")
        src.set_field(shared, "day", 9)
        d1, d2 = src.new_instance("Date"), src.new_instance("Date")
        src.set_field(d1, "day", shared)
        src.set_field(d2, "day", shared)
        holder = src.new_array("Ljava.lang.Object;", 2)
        pin = src.pin(holder)
        src.heap.write_element(pin.address, 0, d1)
        src.heap.write_element(pin.address, 1, d2)
        self.assert_parity(src, [pin.address])

    def test_null_references(self, pair):
        src, _ = pair
        date = src.new_instance("Date")  # all three fields null
        self.assert_parity(src, [date])

    def test_mixed_field_gaps(self, pair):
        """Sub-word fields + alignment gaps: the scattered-unpack kernel
        must relativize exactly the reference slots and nothing else."""
        src, _ = pair
        m = src.new_instance("Mixed")
        for f, v in (("b", 7), ("z", 1), ("c", 65), ("s", -2),
                     ("i", 12345), ("f", 2.5), ("j", 2**50), ("d", -0.125)):
            src.set_field(m, f, v)
        src.set_field(m, "ref", make_date(src, 1, 2, 3))
        self.assert_parity(src, [m])

    def test_roundtrip_and_clock_parity(self, classpath):
        """Same graph shape through two fresh clusters: identical receiver
        values AND identical simulated-time charges either way."""
        times = {}
        for use_kernels in (True, False):
            src = JVM("cp-src", classpath=classpath)
            dst = JVM("cp-dst", classpath=classpath)
            attach_skyway(src, [dst])
            head = make_list(src, range(50))
            before = src.clock.total()
            data = framed(src, [head], use_kernels)
            times[use_kernels] = src.clock.total() - before
            inp = roundtrip(dst, data)
            assert read_list(dst, inp.read_object()) == list(range(50))
        assert times[True] == pytest.approx(times[False], rel=1e-9)


# ---------------------------------------------------------------------------
# seeded parity on the word-indexed loop's edges
# ---------------------------------------------------------------------------

_PRIMITIVES = ("J", "I", "B", "D", "S")


def random_graph(src, rng, capacity):
    """Seeded random objects with random references between them: linked
    nodes, ``Mixed`` instances, Dates, primitive arrays, one primitive
    array larger than ``capacity``, and reference arrays holding nulls
    and repeated targets.  Returns every object's address."""
    objs = [make_date(src, rng.randrange(3000), 1, 2) for _ in range(3)]
    for _ in range(rng.randrange(20, 60)):
        kind = rng.randrange(4)
        if kind == 0:
            obj = src.new_instance("ListNode")
            src.set_field(obj, "payload", rng.getrandbits(63))
        elif kind == 1:
            obj = src.new_instance("Mixed")
            src.set_field(obj, "j", rng.getrandbits(63))
        elif kind == 2:
            desc = rng.choice(_PRIMITIVES)
            obj = src.new_array(desc, rng.randrange(0, 40))
        else:
            obj = src.new_array("Ljava.lang.Object;", rng.randrange(0, 24))
        objs.append(obj)
    objs.append(src.new_array("J", capacity // 8 + rng.randrange(1, 16)))
    nodes = [o for o in objs if src.heap.klass_of(o).name == "ListNode"]
    for obj in objs:
        name = src.heap.klass_of(obj).name
        if name == "ListNode" and rng.random() < 0.8:
            src.set_field(obj, "next", rng.choice(nodes))
        elif name == "Mixed" and rng.random() < 0.8:
            src.set_field(obj, "ref", rng.choice(objs))
        elif name == "[Ljava.lang.Object;":
            pool = rng.sample(objs, 3)  # few targets: slots repeat them
            for i in range(src.heap.array_length(obj)):
                if rng.random() < 0.75:
                    src.heap.write_element(obj, i, rng.choice(pool))
    return objs


def send_record(src, roots, foreign, capacity, use_kernels):
    """One shuffle phase: thread 1 claims ``foreign`` first, then thread 0
    sends ``roots`` into a ``capacity``-byte buffer.  Returns everything
    the two paths must agree on."""
    sid = src.skyway.shuffle_start()
    other = ObjectGraphSender(
        src, OutputBuffer("other", capacity=capacity, sink=lambda s: None),
        sid=sid, thread_id=1, use_kernels=use_kernels,
    )
    for obj in foreign:
        other.write_object(obj)
    segments = []
    buffer = OutputBuffer("parity", capacity=capacity, sink=segments.append)
    sender = ObjectGraphSender(src, buffer, sid=sid, thread_id=0,
                               use_kernels=use_kernels)
    assert sender.use_kernels is use_kernels
    before = src.clock.total()
    for root in roots:
        sender.write_object(root)
    charged = src.clock.total() - before
    buffer.flush()
    return {
        "segments": segments,
        "flushes": buffer.flush_count,
        "composition": (sender.header_bytes, sender.pointer_bytes,
                        sender.data_bytes, sender.padding_bytes),
        "cloned": sender.cloned,
        "top_marks": sender.top_marks,
        "shared": sender._shared_table,
    }, charged


@pytest.mark.parametrize("seed", range(12))
def test_kernel_matches_interpreted_on_random_graphs(pair, seed):
    src, _ = pair
    rng = random.Random(seed)
    capacity = rng.choice((64, 72, 200, 512, 1000, 4096))
    minor_gcs = src.gc.stats.minor_collections
    objs = random_graph(src, rng, capacity)
    big = objs[-1]  # larger than the buffer: a one-off segment
    roots = rng.sample(objs, 4) + [0, big, objs[0]]
    # Another thread owns one root and a few interior objects.
    foreign = [roots[1]] + rng.sample(objs, 3)
    kernel, kernel_clock = send_record(src, roots, foreign, capacity, True)
    interp, interp_clock = send_record(src, roots, foreign, capacity, False)
    assert src.gc.stats.minor_collections == minor_gcs  # addresses held
    assert kernel == interp
    assert kernel_clock == pytest.approx(interp_clock, rel=1e-9)
    assert kernel["flushes"] > 1
    assert kernel["shared"]


def sender_calls_per_object(target_layout):
    """The kernel loop's Python calls per object on a 2,000-vertex
    ring-plus-chords graph, counted with ``sys.setprofile``."""
    classpath = install_incremental_classes(install_core_classes(ClassPath()))
    src = JVM("calls-src", classpath=classpath)
    dst = JVM("calls-dst", classpath=classpath)
    attach_skyway(src, [dst])
    rng = random.Random(2018)
    n = 2000
    edges = [(v, (v + 1) % n) for v in range(n)]
    edges += [(v, rng.randrange(n)) for v in range(n)]
    root = src.pin(build_vertex_graph(src, edges)).address

    def send():
        src.skyway.shuffle_start()
        return SkywayObjectOutputStream(src.skyway, destination="kernel-test",
                                        target_layout=target_layout)

    send().write_object(root)  # compile and cache the kernels
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    out = send()
    sys.setprofile(count)
    try:
        out.write_object(root)
    finally:
        sys.setprofile(None)
    objects = out.sender.objects_sent
    assert objects == 2 * n + 2
    return calls / objects


def test_sender_makes_no_call_per_object():
    """A deterministic speed gate.  The loop appends to its gray list once
    per object; anything above a handful per object means a per-object
    call crept back in."""
    calls = sender_calls_per_object(None)
    assert calls <= 6, f"{calls:.2f} calls per object"


def test_converting_sender_makes_no_call_per_object():
    """The same gate for a send to a baseline heap: conversion lives in
    the kernels, not in per-object calls."""
    calls = sender_calls_per_object(BASELINE_LAYOUT)
    assert calls <= 6, f"{calls:.2f} calls per object"


# ---------------------------------------------------------------------------
# kernel lifecycle
# ---------------------------------------------------------------------------

class TestKernelLifecycle:
    def test_send_compiles_and_caches_kernels(self, pair):
        src, _ = pair
        framed(src, [make_date(src, 1, 1, 1)], True)
        klass = src.loader.load("Date")
        kernel = klass.kernel
        assert kernel is not None and kernel.tid == klass.tid
        framed(src, [make_date(src, 2, 2, 2)], True)
        assert klass.kernel is kernel  # cache hit, no recompile

    def test_tid_reassignment_invalidates_kernel(self, pair):
        src, _ = pair
        framed(src, [make_date(src, 1, 1, 1)], True)
        klass = src.loader.load("Date")
        stale = klass.kernel
        assert stale is not None
        klass.tid = klass.tid + 1000  # e.g. a HELLO merge renumbering
        assert klass.kernel is None
        framed(src, [make_date(src, 3, 3, 3)], True)
        assert klass.kernel is not None
        assert klass.kernel is not stale
        assert klass.kernel.tid == klass.tid

    def test_send_and_both_digests_share_one_kernel(self, pair):
        src, dst = pair
        root = make_date(src, 1, 1, 1)
        data = framed(src, [root], True)
        sent = src.loader.load("Date").kernel
        semantic_graph_digest(src, [root])
        assert src.loader.load("Date").kernel is sent

        inp = SkywayObjectInputStream(dst.skyway)
        inp.receiver._leave_pass(0)  # graph_digest hashes, not recalls
        inp.accept(data)
        received = dst.loader.load("Date").kernel
        assert received is not None
        graph_digest(dst, inp.receiver)
        semantic_graph_digest(dst, [inp.read_object()])
        assert dst.loader.load("Date").kernel is received

    def test_loopback_channel_send_and_digest_share_one_kernel(
            self, classpath):
        src = JVM("lb-src", classpath=classpath)
        dst = JVM("lb-dst", classpath=classpath, layout=HeapLayout())
        attach_skyway(src, [dst])
        pin = src.pin(make_list(src, range(5)))
        GraphChannel(src.skyway, Loopback(dst.skyway)).send([pin.address])
        klass = src.loader.load("ListNode")
        kernel = klass.kernel
        assert kernel is not None
        semantic_graph_digest(src, [pin.address])
        assert klass.kernel is kernel

    def test_equal_target_layout_hits_the_cache(self, pair):
        # Layouts key the cache by value: a sender targeting an equal
        # HeapLayout, not the JVM's own object, shares the digest's kernel.
        src, _ = pair
        root = make_date(src, 1, 1, 1)
        src.skyway.shuffle_start()
        sender = src.skyway.new_sender("eq", target_layout=HeapLayout(),
                                       fresh_buffer=True)
        assert sender.target_layout is not src.layout
        assert sender.use_kernels and not sender.heterogeneous
        sender.write_object(root)
        kernel = src.loader.load("Date").kernel
        semantic_graph_digest(src, [root])
        assert src.loader.load("Date").kernel is kernel

    def test_tid_rewrite_recompiles_on_next_receive(self, pair):
        src, dst = pair
        data = framed(src, [make_date(src, 1, 1, 1)], True)
        klass = dst.loader.load("Date")

        def receive():
            inp = SkywayObjectInputStream(dst.skyway)
            inp.receiver._leave_pass(0)
            inp.accept(data)
            return graph_digest(dst, inp.receiver)

        before = receive()
        stale = klass.kernel
        klass.tid = klass.tid + 1000
        assert klass.kernel is None
        assert receive() == before
        assert klass.kernel is not stale
        assert klass.kernel.tid == klass.tid
        assert klass.kernel.klass_id == stale.klass_id == klass.klass_id

    def test_sender_refuses_untyped_class(self, pair):
        src, _ = pair
        root = make_date(src, 1, 1, 1)
        src.loader.load("Date").tid = None
        src.skyway.shuffle_start()
        sender = src.skyway.new_sender("untyped", fresh_buffer=True)
        with pytest.raises(SendError, match="Date has no global type ID"):
            sender.write_object(root)

    def test_delta_encoder_refuses_untyped_class(self, pair):
        src, _ = pair
        root = make_date(src, 1, 1, 1)
        src.skyway.shuffle_start()
        sender = src.skyway.new_sender("untyped", fresh_buffer=True)
        sender.write_object(root)
        record = EpochRecord.from_full_send("untyped", sender.cloned, 0, 0)
        src.loader.load("Date").tid = None
        with pytest.raises(DeltaWireError,
                           match="Date has no global type ID"):
            DeltaEncoder(src, record).encode([root], [root], 1, 2)

    def test_kernel_for_compiles_untyped_class(self, pair):
        # The digest hashes classes the registry never typed.
        src, _ = pair
        klass = src.loader.load("Date")
        klass.tid = None
        kernel = kernel_for(klass, src.layout, src.cost_model)
        assert kernel.tid is None and klass.kernel is kernel
        assert kernel.size == klass.object_size()
        assert len(kernel.ref_words) == 3

    def test_receiver_memoizes_kernels_per_tid(self, pair):
        src, dst = pair
        data = framed(src, [make_list(src, range(10))], True)
        inp = roundtrip(dst, data)
        kernels = inp.receiver._kernels
        # 10 ListNodes, one tID, one compiled receive kernel.
        assert len(kernels) == 1
        assert inp.receiver.objects_received == 10


# ---------------------------------------------------------------------------
# converting kernels: a baseline destination
# ---------------------------------------------------------------------------

_CLASSPATHS = (sample_classpath, sample_worker_classpath, standard_classpath)
_ARRAY_KINDS = tuple(PRIMITIVE_DESCRIPTORS) + ("Ljava.lang.Object;",)


@pytest.mark.parametrize("make_classpath", _CLASSPATHS,
                         ids=lambda f: f.__name__)
def test_baseline_geometry_is_skyway_minus_the_baddr_word(make_classpath):
    """The invariant a converting kernel relies on: every field offset and
    size of a baseline class is the Skyway class's minus 8, and a
    converting kernel compiles exactly the baseline geometry."""
    classpath = make_classpath()
    skyway = ClassLoader(classpath, SKYWAY_LAYOUT)
    baseline = ClassLoader(classpath, BASELINE_LAYOUT)
    cost = CostModel()
    for name in classpath.names():
        wide, narrow = skyway.load(name), baseline.load(name)
        assert [(f.name, f.offset - 8) for f in wide.all_fields()] == \
            [(f.name, f.offset) for f in narrow.all_fields()], name
        assert wide.object_size() - 8 == narrow.object_size(), name
        kernel = kernel_for(wide, BASELINE_LAYOUT, cost)
        assert kernel.size == narrow.object_size(), name
        assert kernel.ref_offsets == narrow.oop_offsets, name
    for desc in _ARRAY_KINDS:
        wide = skyway.load("[" + desc)
        kernel = kernel_for(wide, BASELINE_LAYOUT, cost)
        assert kernel.elem_base == \
            SKYWAY_LAYOUT.array_payload_offset(desc) - 8
        for length in (0, 1, 2, 3, 7, 64):
            size = wide.object_size(length) - 8
            assert size == baseline.load("[" + desc).object_size(length)
            assert kernel.array_size(length) == size


class TestPathSelection:
    def test_baseline_target_runs_the_kernel_loop(self, pair):
        src, _ = pair
        sender = src.skyway.new_sender("b", target_layout=BASELINE_LAYOUT)
        assert sender.heterogeneous and sender.use_kernels

    def test_interpreted_sender_refuses_a_baseline_target(self, pair):
        src, _ = pair
        with pytest.raises(SendError, match="source layout"):
            src.skyway.new_sender("b", target_layout=BASELINE_LAYOUT,
                                  use_kernels=False)


# ---------------------------------------------------------------------------
# satellite regressions: typed errors out of the receive path
# ---------------------------------------------------------------------------


class TestNullTidRejection:
    def test_zero_klass_word_is_a_receive_error(self, pair):
        src, dst = pair
        src.skyway.shuffle_start()
        sender = src.skyway.new_sender("z", fresh_buffer=True)
        sender.write_object(make_date(src, 1, 1, 1))
        sender.buffer.flush()
        data = bytearray(b"".join(sender.buffer.drain_segments()))
        data[8:16] = bytes(8)  # stomp the root's klass word with tID 0
        receiver = dst.skyway.new_receiver()
        with pytest.raises(ReceiveError, match="null tID at segment offset 0"):
            receiver.feed(bytes(data))
