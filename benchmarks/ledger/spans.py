"""Bench-owned spans, self time, and the percentile rule.

The ledger times every layer *from outside*: a span is opened around each
call into a layer's public function, kept in memory, and written out when
the workload ends.  Nothing here imports ``repro`` — the program's own
tracer (``repro.obs``) stays off while the ledger measures.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail percentiles the ledger may report, highest first.
TAIL_PERCENTILES = (99, 90)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class _NoSpan:
    """The untraced pass's span: enter/exit and nothing else."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NO_SPAN = _NoSpan()


class NoTrace:
    """Recorder stand-in for the untraced pass (one code path per op)."""

    enabled = False

    def span(self, name: str, op: Optional[int] = None) -> _NoSpan:
        return _NO_SPAN


class _Span:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        self._recorder._close(self._index)


class SpanRecorder:
    """In-memory span log: name, start, end, parent span, op id."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, op: Optional[int] = None) -> _Span:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        self.spans.append({
            "id": index, "name": name, "parent": parent, "op": op,
            "start": time.perf_counter(), "end": None,
        })
        self._stack.append(index)
        return _Span(self, index)

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index]['name']!r} closed out of order"
            )


def _covered(intervals: Iterable[Tuple[float, float]],
             lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its children cover (children may overlap each other or stick
    out of the parent; covered time is counted once and clipped)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: Dict[int, float] = {}
    for span in spans:
        if span["end"] is None:
            continue
        duration = span["end"] - span["start"]
        out[span["id"]] = duration - _covered(
            children.get(span["id"], ()), span["start"], span["end"]
        )
    return out


def self_time_by_name(spans: Sequence[dict]) -> Dict[str, float]:
    """Summed self time per span name."""
    per_span = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if span["id"] in per_span:
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + per_span[span["id"]]
            )
    return totals


def durations_by_name(spans: Sequence[dict]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for span in spans:
        if span["end"] is not None:
            out.setdefault(span["name"], []).append(
                span["end"] - span["start"]
            )
    return out


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (
        position - below
    )


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def tail_percentile(samples: int) -> Optional[int]:
    """The highest tail percentile ``samples`` supports: at least
    ``MIN_SAMPLES_BEYOND`` samples must lie beyond it (24 samples give a
    median and no p90; 100 give p90; 1000 give p99)."""
    for pct in TAIL_PERCENTILES:
        if samples * (100 - pct) >= MIN_SAMPLES_BEYOND * 100:
            return pct
    return None


def supports(samples: int, pct: int) -> bool:
    tail = tail_percentile(samples)
    return tail is not None and pct <= tail
