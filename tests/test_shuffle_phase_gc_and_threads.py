"""One shuffling phase under stress: a GC that moves the graph mid-phase,
and two sending threads whose streams target a baseline-layout receiver."""

from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.core.runtime import attach_skyway
from repro.heap.layout import BASELINE_LAYOUT
from repro.jvm.jvm import JVM

from tests.conftest import make_date, read_date


class TestGcDuringShufflePhase:
    """The baddr word lives in the object header, so it travels with the
    object when GC moves it — a backward reference emitted after a GC in
    the same phase still resolves to the correct buffer address."""

    def test_backward_reference_survives_gc_move(self, classpath):
        src = JVM("gc-phase-src", classpath=classpath)
        dst = JVM("gc-phase-dst", classpath=classpath)
        attach_skyway(src, [dst])

        date = src.pin(make_date(src, 2018, 3, 24))
        out = SkywayObjectOutputStream(src.skyway, destination="p")
        first = out.write_object(date.address)
        src.gc.minor()   # moves the graph; baddr words move with it
        src.gc.full()
        second = out.write_object(date.address)  # same phase
        assert first == second  # backward reference, no re-copy
        inp = SkywayObjectInputStream(dst.skyway)
        inp.accept(out.close())
        r1, r2 = inp.read_object(), inp.read_object()
        assert r1 == r2
        assert read_date(dst, r1) == (2018, 3, 24)


class TestHeterogeneousMultithread:
    def test_two_threads_to_baseline_receiver(self, classpath):
        src = JVM("hm-src", classpath=classpath)
        dst = JVM("hm-dst", classpath=classpath, layout=BASELINE_LAYOUT)
        attach_skyway(src, [dst])
        date = src.pin(make_date(src, 9, 9, 9))
        src.skyway.shuffle_start()
        results = []
        for tid in (1, 2):
            out = SkywayObjectOutputStream(
                src.skyway, destination=f"t{tid}", thread_id=tid,
                target_layout=BASELINE_LAYOUT,
            )
            out.write_object(date.address)
            inp = SkywayObjectInputStream(dst.skyway)
            inp.accept(out.close())
            results.append(inp.read_object())
        assert read_date(dst, results[0]) == (9, 9, 9)
        assert read_date(dst, results[1]) == (9, 9, 9)
        assert results[0] != results[1]  # per-stream copies
