"""Span-based tracing with a disabled-mode no-op fast path.

One :class:`Tracer` per process; spans nest through a per-thread context
stack, so ``send.traverse`` opened inside ``exchange.send`` parents under
it without the instrumentation sites knowing about each other.  Every span
carries two timelines:

* **wall clock** — monotonic (``time.perf_counter``) anchored to the epoch
  wall clock once at tracer construction, so timestamps from different
  processes land on one comparable axis and never run backwards;
* **simulated clock** — when the instrumentation site passes its node's
  :class:`~repro.simtime.clock.SimClock`, the span records the clock's
  total at entry/exit; the difference is the cost model's opinion of the
  same region, which is how the obs report ties measured spans back to the
  paper-style breakdown.

Cross-process stitching: the driver ships ``(trace_id, parent span id)``
in a TRACE wire frame; the worker enables its own tracer, adopts that
parent for the connection thread, serves the op, then drains the op's
spans into the RESULT payload together with its "now".  The driver grafts
them back with :meth:`Tracer.graft`: timestamps are rebased by the
driver-minus-worker clock offset and clamped into the parent span's
interval, so the stitched trace always nests even when the two wall
clocks disagree by more than the op took.

When no tracer is enabled, :func:`span` costs one module-global load, one
``None`` check, and returns a shared no-op context manager — the contract
that keeps the ``core/kernels.py`` hot loop within measurement noise.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import recorder as _recorder_mod


@dataclasses.dataclass
class Span:
    """One named region on one thread of one process."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    process: str
    thread: int
    #: Wall microseconds (monotonic, epoch-anchored); ``end_us`` is None
    #: while the span is open.
    start_us: float
    end_us: Optional[float] = None
    #: Simulated-clock microseconds (the node's SimClock total) at
    #: entry/exit, when the site passed a clock; None otherwise.
    sim_start_us: Optional[float] = None
    sim_end_us: Optional[float] = None
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        return 0.0 if self.end_us is None else self.end_us - self.start_us

    @property
    def sim_duration_us(self) -> float:
        if self.sim_start_us is None or self.sim_end_us is None:
            return 0.0
        return self.sim_end_us - self.sim_start_us

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (works on the no-op span too)."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "process": self.process,
            "thread": self.thread,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "sim_start_us": self.sim_start_us,
            "sim_end_us": self.sim_end_us,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            process=str(data.get("process", "?")),
            thread=int(data.get("thread", 0)),
            start_us=float(data["start_us"]),
            end_us=(None if data.get("end_us") is None
                    else float(data["end_us"])),
            sim_start_us=(None if data.get("sim_start_us") is None
                          else float(data["sim_start_us"])),
            sim_end_us=(None if data.get("sim_end_us") is None
                        else float(data["sim_end_us"])),
            attrs=dict(data.get("attrs", {})),
        )


class _SpanContext:
    """Context manager wrapping start/finish on one tracer."""

    __slots__ = ("_tracer", "_name", "_clock", "_parent", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, clock, parent, attrs):
        self._tracer = tracer
        self._name = name
        self._clock = clock
        self._parent = parent
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.start(
            self._name, clock=self._clock, parent=self._parent, **self._attrs
        )
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self._span is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer.finish(self._span)
        return False


class Tracer:
    """The per-process span collector."""

    def __init__(self, process: str = "driver",
                 trace_id: Optional[str] = None) -> None:
        self.process = process
        self.trace_id = trace_id if trace_id else self._new_trace_id()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        # Span ids must not collide across processes (worker spans graft
        # into the driver's list), so prefix with pid + object identity.
        self._id_prefix = f"{os.getpid() & 0xFFFF:04x}{id(self) & 0xFFFF:04x}"
        # Monotonic clock anchored to wall time once: increments can never
        # run backwards, yet timestamps from two processes share an axis.
        self._base_us = time.time() * 1e6 - time.perf_counter() * 1e6

    @staticmethod
    def _new_trace_id() -> str:
        return f"{time.time_ns() & 0xFFFFFFFFFFFF:012x}{os.getpid() & 0xFFFF:04x}"

    # -- clock -------------------------------------------------------------

    def now_us(self) -> float:
        return self._base_us + time.perf_counter() * 1e6

    # -- per-thread context ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt_remote(self, parent_id: Optional[str]) -> None:
        """Parent this thread's next root spans under a span from another
        process (the worker side of TRACE-frame propagation)."""
        self._local.remote_parent = parent_id or None

    def clear_remote(self) -> None:
        self._local.remote_parent = None

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, clock=None, parent: Optional[str] = None,
             **attrs: Any) -> _SpanContext:
        return _SpanContext(self, name, clock, parent, attrs)

    def start(self, name: str, clock=None, parent: Optional[str] = None,
              **attrs: Any) -> Span:
        """Open a span (explicit form, for regions that span methods)."""
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1].span_id
            else:
                parent = getattr(self._local, "remote_parent", None)
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=f"{self._id_prefix}{next(self._ids):08x}",
            parent_id=parent,
            process=self.process,
            thread=threading.get_ident(),
            start_us=self.now_us(),
            attrs=dict(attrs),
        )
        if clock is not None:
            span.sim_start_us = clock.total() * 1e6
        span._clock = clock  # transient; not serialized
        stack.append(span)
        with self._lock:
            self._spans.append(span)
        return span

    def finish(self, span: Optional[Span]) -> Optional[Span]:
        if span is None or span.end_us is not None:
            return span
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # out-of-order close: drop it anyway
            stack.remove(span)
        span.end_us = self.now_us()
        clock = getattr(span, "_clock", None)
        if clock is not None:
            span.sim_end_us = clock.total() * 1e6
        # Flight-recorder tap: with no recorder enabled this is one global
        # load and one None check — the ring only sees spans when both a
        # tracer *and* a recorder are on.
        rec = _recorder_mod._recorder
        if rec is not None:
            rec.record_span(span)
        return span

    # -- reading / draining ------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans() if not s.closed]

    def mark(self) -> int:
        """A position in the span list; :meth:`drain` collects everything
        this thread recorded after it."""
        with self._lock:
            return len(self._spans)

    def drain(self, mark: int) -> List[Span]:
        """Remove and return this thread's spans recorded since ``mark``
        (the worker uses this to ship one op's spans in its RESULT)."""
        tid = threading.get_ident()
        with self._lock:
            head = self._spans[:mark]
            tail = self._spans[mark:]
            mine = [s for s in tail if s.thread == tid]
            self._spans = head + [s for s in tail if s.thread != tid]
        return mine

    # -- cross-process stitching -------------------------------------------

    def export_payload(self, spans: List[Span]) -> Dict[str, Any]:
        """The JSON-safe shape a worker ships back in its RESULT frame."""
        return {
            "process": self.process,
            "now_us": self.now_us(),
            "spans": [s.as_dict() for s in spans],
        }

    def graft(self, payload: Dict[str, Any],
              parent: Optional[Span] = None) -> List[Span]:
        """Adopt spans exported by another process.

        Timestamps are rebased by (my now − their now-at-export), then
        clamped into ``parent``'s interval — the two wall clocks need not
        agree for the stitched trace to nest.  A ``parent`` that is not a
        :class:`Span` (the no-op span of a send made while tracing was
        off) grafts as if there were none.
        """
        local_now = self.now_us()
        remote_now = float(payload.get("now_us", 0.0) or 0.0)
        offset = (local_now - remote_now) if remote_now else 0.0
        spans: List[Span] = []
        for raw in payload.get("spans", ()):
            span = Span.from_dict(raw)
            span.start_us += offset
            if span.end_us is not None:
                span.end_us += offset
            if span.sim_start_us is not None and span.sim_end_us is None:
                span.sim_end_us = span.sim_start_us
            spans.append(span)
        if isinstance(parent, Span):
            lo, hi = parent.start_us, local_now
            for span in spans:
                span.start_us = min(max(span.start_us, lo), hi)
                end = span.end_us if span.end_us is not None else hi
                span.end_us = min(max(end, span.start_us), hi)
        with self._lock:
            self._spans.extend(spans)
        return spans


# ---------------------------------------------------------------------------
# module-level fast path
# ---------------------------------------------------------------------------

class _NoopSpan:
    """Shared do-nothing span/context for disabled mode."""

    __slots__ = ()
    noop = True
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()

_state_lock = threading.Lock()
_tracer: Optional[Tracer] = None


def enabled() -> bool:
    return _tracer is not None


def get_tracer() -> Optional[Tracer]:
    return _tracer


def enable(process: str = "driver",
           trace_id: Optional[str] = None) -> Tracer:
    """Turn tracing on (idempotent).  A worker passing the driver's
    ``trace_id`` re-points an already-enabled tracer at that trace."""
    global _tracer
    with _state_lock:
        if _tracer is None:
            _tracer = Tracer(process=process, trace_id=trace_id)
        elif trace_id and _tracer.trace_id != trace_id:
            _tracer.trace_id = trace_id
        return _tracer


def disable() -> Optional[Tracer]:
    """Turn tracing off, returning the detached tracer for inspection."""
    global _tracer
    with _state_lock:
        tracer, _tracer = _tracer, None
        return tracer


def span(name: str, clock=None, parent: Optional[str] = None, **attrs: Any):
    """THE instrumentation entry point.  Disabled: one global load, one
    None check, a shared no-op context manager."""
    tracer = _tracer
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, clock=clock, parent=parent, **attrs)


def start_span(name: str, clock=None, parent: Optional[str] = None,
               **attrs: Any) -> Optional[Span]:
    """Explicit open, for regions spanning methods; None when disabled."""
    tracer = _tracer
    if tracer is None:
        return None
    return tracer.start(name, clock=clock, parent=parent, **attrs)


def end_span(span_obj: Optional[Span]) -> None:
    tracer = _tracer
    if tracer is None or span_obj is None:
        return
    tracer.finish(span_obj)


def current_context() -> Tuple[str, str]:
    """``(trace_id, current span id)`` for wire propagation; empty strings
    when disabled (the TRACE frame is then simply not sent)."""
    tracer = _tracer
    if tracer is None:
        return ("", "")
    current = tracer.current_span()
    return (tracer.trace_id, current.span_id if current is not None else "")


def absorb_remote(result: Any, parent: Optional[Span] = None) -> None:
    """Pop a ``"trace"`` payload off a worker RESULT dict (if any) and
    graft its spans under ``parent``.  Safe to call unconditionally."""
    tracer = _tracer
    if tracer is None or not isinstance(result, dict):
        return
    payload = result.pop("trace", None)
    if payload:
        tracer.graft(payload, parent=parent)
