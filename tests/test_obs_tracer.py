"""Tracer semantics: the no-op fast path, span nesting, the dual clocks,
per-thread draining, and cross-process grafting."""

import threading

import pytest

from repro import obs
from repro.obs.tracer import NOOP_SPAN, Tracer
from repro.simtime import SimClock


class TestDisabledFastPath:
    def test_span_returns_the_shared_noop(self):
        assert obs.span("anything") is NOOP_SPAN
        assert obs.span("other", clock=object(), wire_bytes=5) is NOOP_SPAN

    def test_noop_span_is_a_context_manager_with_set(self):
        with obs.span("region") as sp:
            assert sp.set(bytes=1) is sp
        assert obs.start_span("region") is None
        obs.end_span(None)  # must not raise

    def test_current_context_is_empty(self):
        assert obs.current_context() == ("", "")

    def test_absorb_remote_leaves_result_alone(self):
        result = {"trace": {"spans": []}, "op": "ping"}
        obs.absorb_remote(result)
        assert "trace" in result


class TestEnableDisable:
    def test_enable_is_idempotent(self):
        t1 = obs.enable("driver")
        assert obs.enable("driver") is t1
        assert obs.enabled()

    def test_enable_repoints_trace_id(self):
        tracer = obs.enable("worker:w0")
        obs.enable("worker:w0", trace_id="cafe0001")
        assert tracer.trace_id == "cafe0001"

    def test_reset_detaches_tracer_and_registry(self):
        obs.enable()
        with obs.span("x"):
            pass
        obs.registry().counter("c")
        obs.reset()
        assert not obs.enabled()
        snap = obs.registry().snapshot()
        assert snap["counters"] == {}
        assert snap["sources"] == {}


class TestSpans:
    def test_nesting_sets_parent_ids(self):
        tracer = obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        outer_s, inner_s = tracer.spans()
        assert outer_s.parent_id is None
        assert outer_s.closed and inner_s.closed
        assert {s.trace_id for s in (outer_s, inner_s)} == {tracer.trace_id}

    def test_sim_clock_delta_recorded(self):
        tracer = obs.enable()
        clock = SimClock("t")
        with obs.span("charged", clock=clock):
            clock.charge(0.25)
        (span,) = tracer.spans()
        assert span.sim_duration_us == pytest.approx(0.25e6)
        assert span.duration_us >= 0

    def test_exception_marks_error_attr(self):
        tracer = obs.enable()
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.closed
        assert span.attrs["error"] == "ValueError"

    def test_current_context_names_innermost_span(self):
        tracer = obs.enable()
        with obs.span("outer"), obs.span("inner") as inner:
            assert obs.current_context() == (tracer.trace_id, inner.span_id)
        assert obs.current_context() == (tracer.trace_id, "")

    def test_finish_is_idempotent(self):
        tracer = obs.enable()
        span = tracer.start("once")
        end = tracer.finish(span).end_us
        assert tracer.finish(span).end_us == end

    def test_span_ids_unique_across_threads(self):
        tracer = obs.enable()

        def work():
            for _ in range(50):
                with obs.span("t"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [s.span_id for s in tracer.spans()]
        assert len(ids) == len(set(ids)) == 200

    def test_adopt_remote_parents_root_spans(self):
        tracer = obs.enable()
        tracer.adopt_remote("feed00000001")
        with obs.span("op") as sp:
            assert sp.parent_id == "feed00000001"
            with obs.span("nested") as nested:
                assert nested.parent_id == sp.span_id
        tracer.clear_remote()
        with obs.span("after") as after:
            assert after.parent_id is None


class TestDrainAndGraft:
    def test_drain_removes_only_this_threads_spans(self):
        tracer = obs.enable()
        mark = tracer.mark()
        with obs.span("mine"):
            pass

        def other():
            with obs.span("theirs"):
                pass

        t = threading.Thread(target=other)
        t.start()
        t.join()
        drained = tracer.drain(mark)
        assert [s.name for s in drained] == ["mine"]
        assert [s.name for s in tracer.spans()] == ["theirs"]

    def test_graft_rebases_skewed_clocks_into_parent(self):
        driver = Tracer(process="driver")
        worker = Tracer(process="worker:w0", trace_id=driver.trace_id)
        parent = driver.start("wire.send")
        remote = worker.start("worker.op")
        worker.finish(remote)
        payload = worker.export_payload(worker.spans())
        payload["now_us"] += 3_600e6  # worker clock an hour ahead
        (grafted,) = driver.graft(payload, parent=parent)
        driver.finish(parent)
        assert grafted.process == "worker:w0"
        assert grafted.trace_id == driver.trace_id
        assert grafted.start_us >= parent.start_us
        assert grafted.end_us <= parent.end_us
        assert grafted in driver.spans()

    def test_absorb_remote_under_noop_parent_grafts_unparented(self):
        """A span opened while tracing was off is the no-op span; a
        payload absorbed under it grafts as if there were no parent."""
        tracer = obs.enable()
        worker = Tracer(process="worker:w0", trace_id=tracer.trace_id)
        with worker.span("worker.op"):
            pass
        result = {"trace": worker.export_payload(worker.spans())}
        obs.absorb_remote(result, parent=NOOP_SPAN)
        assert "trace" not in result
        assert [s.name for s in tracer.spans()] == ["worker.op"]

    def test_absorb_remote_pops_payload(self):
        tracer = obs.enable()
        worker = Tracer(process="worker:w0", trace_id=tracer.trace_id)
        with worker.span("worker.op"):
            pass
        with obs.span("wire") as wire:
            result = {"trace": worker.export_payload(worker.spans())}
            obs.absorb_remote(result, wire)
        assert "trace" not in result
        names = {s.name: s for s in tracer.spans()}
        assert names["worker.op"].process == "worker:w0"
