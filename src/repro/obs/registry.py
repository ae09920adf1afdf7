"""One metrics registry the existing ledgers feed.

Counters, gauges and histograms carry labels (encoded into the series key
Prometheus-style: ``name{k=v,...}``); *sources* are the bridge to the
ledgers that already exist — a registered callable is evaluated at
:meth:`MetricsRegistry.snapshot` time, so ``ExchangeMetrics.as_dict()``,
``TransportMetrics.as_dict()``, ``EventLog.as_dicts()`` and GC stats all
land in one JSON document without being rewritten.

Histograms are *streaming*: alongside count/sum/min/max each series keeps
per-bucket counts over the fixed geometric ladder
:data:`DEFAULT_BUCKET_BOUNDS`, so :meth:`snapshot` can answer p50/p95/p99
without retaining samples — the latency *tail* survives, not just the
mean.  Fixed bounds are what make the buckets deltable: the telemetry
plane (:mod:`repro.obs.live`) ships bucket-count deltas and the
coordinator re-aggregates fleet-wide quantiles by summing them.

Sources must deregister when their owner closes (channels do this in
``GraphChannel.close()``, clients in ``WorkerClient.close()``) so no entry
outlives the object it reads.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence


def series_key(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


#: The fixed bucket ladder every histogram shares: geometric, factor 2,
#: from 1 µs to ~17.9 min (values are unit-agnostic but the repo observes
#: seconds).  31 upper bounds + one overflow bucket.  Fixed fleet-wide so
#: bucket-count deltas from any worker sum into the same ladder.
DEFAULT_BUCKET_BOUNDS: Sequence[float] = tuple(
    1e-6 * (2.0 ** k) for k in range(31)
)


def quantile_from_buckets(hist: Mapping[str, Any], q: float) -> float:
    """Estimate the ``q``-quantile of one histogram dict (count/min/max +
    per-bucket counts) by linear interpolation inside the covering bucket,
    clamped to the observed min/max."""
    count = float(hist.get("count", 0.0))
    buckets = hist.get("buckets")
    lo_obs = float(hist.get("min", 0.0))
    hi_obs = float(hist.get("max", 0.0))
    if count <= 0:
        return 0.0
    if not buckets:
        # No bucket detail (a merged/legacy histogram): best effort.
        return lo_obs + (hi_obs - lo_obs) * q
    bounds = DEFAULT_BUCKET_BOUNDS
    target = max(q, 0.0) * count
    cum = 0.0
    for i, c in enumerate(buckets):
        if c <= 0:
            continue
        prev = cum
        cum += c
        if cum >= target:
            lo = lo_obs if i == 0 else bounds[i - 1]
            hi = hi_obs if i >= len(bounds) else bounds[i]
            frac = 0.0 if c <= 0 else (target - prev) / c
            value = lo + (hi - lo) * frac
            return min(max(value, lo_obs), hi_obs)
    return hi_obs


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms plus snapshot sources."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, Any]] = {}
        self._sources: Dict[str, Callable[[], Any]] = {}

    # -- series ------------------------------------------------------------

    def counter(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        key = series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def _bucket_index(self, value: float) -> int:
        # Linear scan beats bisect here: small values (the common case for
        # queue waits) exit within a few comparisons, and the ladder is
        # only 31 bounds long.
        for i, bound in enumerate(DEFAULT_BUCKET_BOUNDS):
            if value <= bound:
                return i
        return len(DEFAULT_BUCKET_BOUNDS)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = series_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = {
                    "count": 0.0, "sum": 0.0,
                    "min": float("inf"), "max": float("-inf"),
                    "buckets": [0] * (len(DEFAULT_BUCKET_BOUNDS) + 1),
                }
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = min(hist["min"], value)
            hist["max"] = max(hist["max"], value)
            hist["buckets"][self._bucket_index(value)] += 1

    # -- sources -----------------------------------------------------------

    def register_source(self, name: str, source: Callable[[], Any]) -> None:
        with self._lock:
            self._sources[name] = source

    def deregister_source(self, name: str) -> None:
        with self._lock:
            self._sources.pop(name, None)

    def source_names(self) -> List[str]:
        with self._lock:
            return sorted(self._sources)

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._sources.clear()

    # -- reading -----------------------------------------------------------

    def _histogram_view(self, hist: Mapping[str, Any]) -> Dict[str, Any]:
        view = {
            "count": hist["count"], "sum": hist["sum"],
            "min": hist["min"], "max": hist["max"],
            "buckets": list(hist["buckets"]),
        }
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            view[label] = quantile_from_buckets(hist, q)
        return view

    def snapshot(self) -> Dict[str, Any]:
        """Evaluate every source and copy every series.  A source that
        raises reports its error in place — one broken ledger must not
        take the snapshot down."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {k: self._histogram_view(v)
                          for k, v in self._histograms.items()}
            sources = list(self._sources.items())
        resolved: Dict[str, Any] = {}
        for name, fn in sources:
            try:
                resolved[name] = fn()
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                resolved[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "sources": resolved,
        }


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every layer feeds."""
    return _REGISTRY
