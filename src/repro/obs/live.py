"""The fleet telemetry plane: delta encoding, bounded series, stragglers.

PR 5's obs stack sees deeply into *one* process; this module is the part
that makes a whole fleet observable while it runs, with no extra
connections and bounded memory everywhere:

* :class:`TelemetrySampler` — worker side.  Folds the local
  :class:`~repro.obs.registry.MetricsRegistry` (counters / gauges /
  histograms, flattened numeric source leaves such as GC pause totals and
  aserve loop counters) into a *compact delta* since the last acked
  sample: only changed series ship, bucket counts ship as deltas, and the
  flight-recorder's new entries ride along.  An unacked sample (the
  heartbeat that carried it failed) is **merged** into the next one, so a
  coordinator outage loses no counts — sequence numbers stay exact.

* :class:`WorkerTelemetry` / :class:`FleetTelemetry` — coordinator side.
  Each worker gets cumulative totals plus a bounded ring of recent samples
  (``window`` deque) and a bounded ring of flight-recorder entries; both
  survive the worker's death, which is what makes the postmortem op work.
  :meth:`FleetTelemetry.ingest` validates the payload shape hard: any
  malformed field raises :class:`TelemetryError` (the coordinator maps it
  onto a typed ``ClusterProtocolError`` ERROR frame) — a fuzzer bit-flip
  must never hang or kill the membership service.

* **Straggler detection** — :meth:`FleetTelemetry.detect` computes each
  worker's windowed mean epoch-receive latency and bytes/sec bandwidth,
  takes the fleet median, and flags workers beyond
  :data:`STRAGGLER_FACTOR` × median (with an absolute floor so microsecond
  jitter can't flag an idle fleet).  Flags are edge-triggered: one
  ``straggler`` event on the way up, one ``recovered`` on the way down,
  into a bounded event ring the driver reads.

The plane runs only in fleet mode: a worker samples, records and observes
per-epoch series only while it has a coordinator to read them.  Its
bounds and the straggler rule are the module constants below.

Import discipline: stdlib only, like the rest of :mod:`repro.obs` — the
cluster layer imports *this*, never the reverse.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import deque
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.recorder import FlightRecorder
from repro.obs.registry import (
    DEFAULT_BUCKET_BOUNDS,
    MetricsRegistry,
    quantile_from_buckets,
)

#: Telemetry payload schema version (bumped on incompatible change; the
#: coordinator rejects versions it does not speak).
TELEMETRY_VERSION = 1

#: Per-worker bounded sample window at the coordinator: 120 samples at
#: the default 0.2 s heartbeat ≈ the last 24 s of fleet history.
WINDOW = 120

#: Flight-recorder entries kept per worker at the coordinator.
RECORDER_KEEP = 256

#: Straggler rule: flagged when windowed mean epoch-receive latency
#: exceeds ``STRAGGLER_FACTOR`` × fleet median, the threshold is at least
#: ``STRAGGLER_MIN_SECONDS``, and at least ``STRAGGLER_MIN_SAMPLES``
#: epochs landed in the window.  The factor also gates recovery (drop
#: back under it).
STRAGGLER_FACTOR = 3.0
STRAGGLER_MIN_SAMPLES = 3
STRAGGLER_MIN_SECONDS = 1e-3

#: The histogram series straggler latency is read from (observed by the
#: worker around each epoch's receive — wire arrival included, so a paced
#: or congested link shows up here, not just a slow heap).
LATENCY_SERIES = "worker.epoch_receive_seconds"
#: Counter series feeding the bandwidth rollup.
BYTES_SERIES = "worker.epoch_bytes"
EPOCHS_SERIES = "worker.epochs"

#: Straggler/recovered events the coordinator's ring retains.
EVENT_KEEP = 256

#: Cap on recorder entries carried by one payload (merged retries could
#: otherwise grow without bound during a long coordinator outage).
MAX_RECORDER_ENTRIES = 512


class TelemetryError(ValueError):
    """A telemetry payload failed validation.  The coordinator maps this
    onto a typed ``ClusterProtocolError`` ERROR frame; it must never
    surface as a bare KeyError/TypeError that kills the connection."""


# ---------------------------------------------------------------------------
# worker side: the sampler
# ---------------------------------------------------------------------------

def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _flatten_numeric(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, Mapping):
        for k in value:
            key = f"{prefix}.{k}" if prefix else str(k)
            _flatten_numeric(key, value[k], out)
    elif _is_num(value):
        out[prefix] = float(value)


class TelemetrySampler:
    """Folds a registry (+ recorder) into heartbeat-sized deltas.

    ``sample()`` returns the payload to piggyback; the caller reports the
    outcome with ``ack(seq)`` (delivered) or nothing (the next ``sample``
    merges the undelivered delta in).  Thread-safe: the membership beat
    runs on its own thread/loop.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.registry = registry
        self.recorder = recorder
        self._lock = threading.Lock()
        self._seq = 0
        self._last_counters: Dict[str, float] = {}
        self._last_gauges: Dict[str, float] = {}
        self._last_hists: Dict[str, Dict[str, Any]] = {}
        self._rec_seq = 0
        self._pending: Optional[Dict[str, Any]] = None

    # -- collection --------------------------------------------------------

    def _gauge_view(self) -> Dict[str, float]:
        """Current gauges: registry gauges plus flattened numeric leaves
        of every snapshot source."""
        snap = self.registry.snapshot()
        gauges: Dict[str, float] = {
            k: float(v) for k, v in snap["gauges"].items() if _is_num(v)
        }
        for name, value in snap["sources"].items():
            _flatten_numeric(f"src.{name}", value, gauges)
        return gauges, snap

    def _hist_delta(self, key: str,
                    hist: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        prev = self._last_hists.get(key)
        d_count = hist["count"] - (prev["count"] if prev else 0.0)
        if d_count <= 0:
            return None
        buckets = hist["buckets"]
        return {
            "count": d_count,
            "sum": hist["sum"] - (prev["sum"] if prev else 0.0),
            "min": hist["min"],
            "max": hist["max"],
            "buckets": (list(buckets) if prev is None else
                        [b - p for b, p in zip(buckets, prev["buckets"])]),
        }

    def sample(self) -> Dict[str, Any]:
        """One delta payload since the last *acked* sample."""
        with self._lock:
            gauges, snap = self._gauge_view()
            counters: Dict[str, float] = snap["counters"]
            hists: Dict[str, Dict[str, Any]] = snap["histograms"]

            c_delta = {
                k: v - self._last_counters.get(k, 0.0)
                for k, v in counters.items()
                if v != self._last_counters.get(k, 0.0)
            }
            g_delta = {
                k: v for k, v in gauges.items()
                if v != self._last_gauges.get(k)
            }
            h_delta: Dict[str, Any] = {}
            for key, hist in hists.items():
                d = self._hist_delta(key, hist)
                if d is not None:
                    h_delta[key] = d

            rec: List[Dict[str, Any]] = []
            if self.recorder is not None:
                rec = self.recorder.drain_since(self._rec_seq)
                if rec:
                    self._rec_seq = rec[-1]["seq"]

            self._last_counters = dict(counters)
            self._last_gauges = dict(gauges)
            self._last_hists = {k: dict(v) for k, v in hists.items()}
            self._seq += 1

            payload: Dict[str, Any] = {
                "v": TELEMETRY_VERSION, "seq": self._seq, "t": time.time(),
            }
            if c_delta:
                payload["c"] = c_delta
            if g_delta:
                payload["g"] = g_delta
            if h_delta:
                payload["h"] = h_delta
            if rec:
                payload["rec"] = rec

            if self._pending is not None:
                payload = self._merge(self._pending, payload)
            self._pending = payload
            return payload

    def _merge(self, old: Dict[str, Any],
               new: Dict[str, Any]) -> Dict[str, Any]:
        """Fold an undelivered delta into the next one (counts add,
        gauges take the newest value, recorder entries concatenate up to
        :data:`MAX_RECORDER_ENTRIES`)."""
        merged: Dict[str, Any] = {
            "v": TELEMETRY_VERSION, "seq": new["seq"], "t": new["t"],
        }
        c = dict(old.get("c", {}))
        for k, v in new.get("c", {}).items():
            c[k] = c.get(k, 0.0) + v
        if c:
            merged["c"] = c
        g = dict(old.get("g", {}))
        g.update(new.get("g", {}))
        if g:
            merged["g"] = g
        h = {k: dict(v) for k, v in old.get("h", {}).items()}
        for k, d in new.get("h", {}).items():
            prev = h.get(k)
            if prev is None:
                h[k] = dict(d)
                continue
            prev["count"] += d["count"]
            prev["sum"] += d["sum"]
            prev["min"] = min(prev["min"], d["min"])
            prev["max"] = max(prev["max"], d["max"])
            prev["buckets"] = [a + b for a, b
                               in zip(prev["buckets"], d["buckets"])]
        if h:
            merged["h"] = h
        rec = list(old.get("rec", [])) + list(new.get("rec", []))
        if rec:
            merged["rec"] = rec[-MAX_RECORDER_ENTRIES:]
        return merged

    def ack(self, seq: int) -> None:
        """The payload carrying ``seq`` was delivered: stop re-merging it."""
        with self._lock:
            if self._pending is not None and self._pending["seq"] <= seq:
                self._pending = None


# ---------------------------------------------------------------------------
# payload validation (the coordinator's fuzz armor)
# ---------------------------------------------------------------------------

def _require(cond: bool, what: str) -> None:
    if not cond:
        raise TelemetryError(f"telemetry payload rejected: {what}")


def _check_num_map(value: Any, what: str) -> Dict[str, float]:
    _require(isinstance(value, Mapping), f"{what} is not a mapping")
    out: Dict[str, float] = {}
    for k, v in value.items():
        _require(isinstance(k, str) and k, f"{what} key {k!r} is not a name")
        _require(_is_num(v), f"{what}[{k!r}] is not a finite number")
        out[k] = float(v)
    return out


def validate_telemetry(payload: Any) -> Dict[str, Any]:
    """Validate one piggybacked payload; returns it normalized.  Raises
    :class:`TelemetryError` on any malformed field — never KeyError /
    TypeError / unbounded allocation."""
    _require(isinstance(payload, Mapping), "payload is not a mapping")
    version = payload.get("v")
    _require(version == TELEMETRY_VERSION,
             f"unknown telemetry version {version!r}")
    seq = payload.get("seq")
    _require(isinstance(seq, int) and not isinstance(seq, bool) and seq > 0,
             f"seq {seq!r} is not a positive integer")
    t = payload.get("t")
    _require(_is_num(t), f"timestamp {t!r} is not a finite number")
    out: Dict[str, Any] = {"v": TELEMETRY_VERSION, "seq": seq,
                           "t": float(t)}
    if "c" in payload:
        out["c"] = _check_num_map(payload["c"], "counters")
    if "g" in payload:
        out["g"] = _check_num_map(payload["g"], "gauges")
    if "h" in payload:
        _require(isinstance(payload["h"], Mapping),
                 "histograms is not a mapping")
        hists: Dict[str, Dict[str, Any]] = {}
        for key, hist in payload["h"].items():
            _require(isinstance(key, str) and key,
                     f"histogram key {key!r} is not a name")
            _require(isinstance(hist, Mapping),
                     f"histogram {key!r} is not a mapping")
            entry: Dict[str, Any] = {}
            for field in ("count", "sum", "min", "max"):
                value = hist.get(field)
                _require(_is_num(value),
                         f"histogram {key!r}.{field} is not finite")
                entry[field] = float(value)
            _require(entry["count"] > 0,
                     f"histogram {key!r} carries no observations")
            # One count per rung of the shared ladder, summing to
            # ``count``: anything else would corrupt the fleet totals the
            # quantiles are read from.
            buckets = hist.get("buckets")
            _require(isinstance(buckets, (list, tuple))
                     and len(buckets) == len(DEFAULT_BUCKET_BOUNDS) + 1,
                     f"histogram {key!r}.buckets is not one count per "
                     f"bucket of the ladder")
            _require(all(_is_num(b) and b >= 0 for b in buckets),
                     f"histogram {key!r} bucket count is not a finite, "
                     f"non-negative number")
            entry["buckets"] = [float(b) for b in buckets]
            _require(sum(entry["buckets"]) == entry["count"],
                     f"histogram {key!r} bucket counts do not sum to count")
            hists[key] = entry
        out["h"] = hists
    if "rec" in payload:
        rec = payload["rec"]
        _require(isinstance(rec, (list, tuple))
                 and len(rec) <= MAX_RECORDER_ENTRIES,
                 "recorder block malformed or oversized")
        entries: List[Dict[str, Any]] = []
        for e in rec:
            _require(isinstance(e, Mapping), "recorder entry not a mapping")
            eseq = e.get("seq")
            _require(isinstance(eseq, int) and not isinstance(eseq, bool),
                     f"recorder entry seq {eseq!r} is not an integer")
            _require(isinstance(e.get("kind"), str),
                     "recorder entry has no kind")
            entries.append(dict(e))
        out["rec"] = entries
    return out


# ---------------------------------------------------------------------------
# coordinator side: per-worker state and fleet aggregation
# ---------------------------------------------------------------------------

class WorkerTelemetry:
    """One worker's accumulated telemetry at the coordinator.  Bounded:
    cumulative totals (dict of floats), a ring of recent samples, a ring
    of flight-recorder entries.  Kept after the worker dies — this *is*
    the postmortem."""

    def __init__(self, name: str, generation: int) -> None:
        self.name = name
        self.generation = generation
        self.window: deque = deque(maxlen=WINDOW)
        self.recorder: deque = deque(maxlen=RECORDER_KEEP)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.hists: Dict[str, Dict[str, Any]] = {}
        self.last_seq = 0
        self.last_sample_t = 0.0
        self.samples = 0
        self.gaps = 0
        self.straggler_since: Optional[float] = None

    def ingest(self, payload: Dict[str, Any], generation: int) -> None:
        seq = payload["seq"]
        if generation != self.generation:
            # A fresh incarnation restarts its sampler sequence; totals
            # keep accumulating (they are fleet-lifetime totals).
            self.generation = generation
            self.last_seq = 0
        if seq <= self.last_seq:
            return  # duplicate (a retried beat); deltas already folded
        if self.last_seq and seq != self.last_seq + 1:
            self.gaps += 1
        self.last_seq = seq
        self.last_sample_t = payload["t"]
        self.samples += 1
        for k, v in payload.get("c", {}).items():
            self.counters[k] = self.counters.get(k, 0.0) + v
        self.gauges.update(payload.get("g", {}))
        for k, d in payload.get("h", {}).items():
            total = self.hists.get(k)
            if total is None:
                self.hists[k] = dict(d)
            else:
                total["count"] += d["count"]
                total["sum"] += d["sum"]
                total["min"] = min(total["min"], d["min"])
                total["max"] = max(total["max"], d["max"])
                total["buckets"] = [a + b for a, b
                                    in zip(total["buckets"], d["buckets"])]
        self.window.append(payload)
        for entry in payload.get("rec", []):
            self.recorder.append(entry)

    # -- windowed rollups --------------------------------------------------

    def _windowed_hist(self, series: str) -> Dict[str, float]:
        count = 0.0
        total = 0.0
        for sample in self.window:
            d = sample.get("h", {}).get(series)
            if d:
                count += d["count"]
                total += d["sum"]
        return {"count": count, "sum": total}

    def _windowed_counter(self, series: str) -> float:
        return sum(sample.get("c", {}).get(series, 0.0)
                   for sample in self.window)

    def rollup(self) -> Dict[str, Any]:
        """Windowed per-worker rollup: mean/p95 epoch-receive latency,
        effective bandwidth, epochs, GC pause total."""
        lat = self._windowed_hist(LATENCY_SERIES)
        bytes_window = self._windowed_counter(BYTES_SERIES)
        epochs_window = self._windowed_counter(EPOCHS_SERIES)
        mean = lat["sum"] / lat["count"] if lat["count"] else 0.0
        bandwidth = bytes_window / lat["sum"] if lat["sum"] > 0 else 0.0
        total_hist = self.hists.get(LATENCY_SERIES)
        p95 = (quantile_from_buckets(total_hist, 0.95)
               if total_hist else 0.0)
        gc_collections = 0.0
        for key, value in self.gauges.items():
            if key.startswith("src.gc.") and (
                    key.endswith(".minor_collections")
                    or key.endswith(".full_collections")):
                gc_collections += value
        return {
            "epoch_receive_mean_s": mean,
            "epoch_receive_p95_s": p95,
            "epochs_window": epochs_window,
            "epoch_samples_window": lat["count"],
            "bandwidth_bps": bandwidth,
            "bytes_window": bytes_window,
            "gc_collections": gc_collections,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "generation": self.generation,
            "last_seq": self.last_seq,
            "last_sample_t": self.last_sample_t,
            "samples": self.samples,
            "gaps": self.gaps,
            "window_len": len(self.window),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: {f: (list(v[f]) if f == "buckets" else v[f])
                               for f in v}
                           for k, v in self.hists.items()},
            "rollup": self.rollup(),
            "straggler": self.straggler_since is not None,
            "straggler_since": self.straggler_since,
        }


class FleetTelemetry:
    """All workers' telemetry plus fleet rollups and straggler state."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: Dict[str, WorkerTelemetry] = {}
        self.events: deque = deque(maxlen=EVENT_KEEP)
        self._event_seq = 0
        self.samples_ingested = 0
        self.payloads_rejected = 0

    # -- ingest ------------------------------------------------------------

    def ingest(self, worker: str, generation: int, payload: Any) -> None:
        """Validate and fold one heartbeat-piggybacked payload.  Raises
        :class:`TelemetryError` on malformed input (after counting it)."""
        try:
            checked = validate_telemetry(payload)
        except TelemetryError:
            with self._lock:
                self.payloads_rejected += 1
            raise
        with self._lock:
            state = self._workers.get(worker)
            if state is None:
                state = self._workers[worker] = WorkerTelemetry(
                    worker, generation)
            state.ingest(checked, generation)
            self.samples_ingested += 1

    # -- reading -----------------------------------------------------------

    def worker(self, name: str) -> Optional[WorkerTelemetry]:
        with self._lock:
            return self._workers.get(name)

    def worker_names(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    def fleet_rollup(self, alive: Optional[List[str]] = None
                     ) -> Dict[str, Any]:
        """Fleet-wide medians over the reporting (optionally alive-only)
        workers."""
        with self._lock:
            states = [
                s for name, s in self._workers.items()
                if alive is None or name in alive
            ]
        latencies = []
        bandwidths = []
        for s in states:
            roll = s.rollup()
            if roll["epoch_samples_window"] >= 1:
                latencies.append(roll["epoch_receive_mean_s"])
                if roll["bandwidth_bps"] > 0:
                    bandwidths.append(roll["bandwidth_bps"])
        out: Dict[str, Any] = {
            "workers_reporting": len(states),
            "workers_with_epochs": len(latencies),
            "stragglers": sorted(
                s.name for s in states if s.straggler_since is not None
            ),
        }
        if latencies:
            out["fleet_median_receive_s"] = statistics.median(latencies)
        if bandwidths:
            out["fleet_median_bandwidth_bps"] = statistics.median(bandwidths)
        return out

    # -- straggler detection -----------------------------------------------

    def _emit(self, kind: str, worker: str, **fields: Any) -> Dict[str, Any]:
        self._event_seq += 1
        event = {"seq": self._event_seq, "t": time.time(),
                 "event": kind, "worker": worker, **fields}
        self.events.append(event)
        return event

    def detect(self, alive: Optional[List[str]] = None,
               now: Optional[float] = None) -> List[Dict[str, Any]]:
        """One detection pass; returns newly emitted events.  Needs at
        least two reporting workers (a fleet of one has no median to be
        slower than)."""
        if now is None:
            now = time.time()
        with self._lock:
            states = [
                s for name, s in self._workers.items()
                if alive is None or name in alive
            ]
            rollups = {s.name: s.rollup() for s in states}
            eligible = {
                name: roll for name, roll in rollups.items()
                if roll["epoch_samples_window"] >= STRAGGLER_MIN_SAMPLES
            }
            emitted: List[Dict[str, Any]] = []
            if len(eligible) >= 2:
                median = statistics.median(
                    r["epoch_receive_mean_s"] for r in eligible.values()
                )
                threshold = max(STRAGGLER_FACTOR * median,
                                STRAGGLER_MIN_SECONDS)
                for s in states:
                    roll = eligible.get(s.name)
                    if roll is None:
                        continue
                    value = roll["epoch_receive_mean_s"]
                    if value > threshold and median > 0:
                        if s.straggler_since is None:
                            s.straggler_since = now
                            emitted.append(self._emit(
                                "straggler", s.name,
                                metric="epoch_receive_mean_s",
                                value=value, median=median,
                                factor=STRAGGLER_FACTOR,
                                generation=s.generation,
                            ))
                    elif s.straggler_since is not None:
                        emitted.append(self._emit(
                            "recovered", s.name,
                            metric="epoch_receive_mean_s",
                            value=value, median=median,
                            flagged_for_s=now - s.straggler_since,
                            generation=s.generation,
                        ))
                        s.straggler_since = None
            return emitted

    def events_since(self, seq: int) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(e) for e in self.events if e["seq"] > seq]

    # -- documents ---------------------------------------------------------

    def document(self, worker: Optional[str] = None,
                 alive: Optional[List[str]] = None) -> Dict[str, Any]:
        """The JSON telemetry doc the ``telemetry`` RPC answers and
        ``repro.cluster top`` renders."""
        with self._lock:
            if worker is None:
                names = sorted(self._workers)
            else:
                names = [worker] if worker in self._workers else []
            workers = {name: self._workers[name].as_dict() for name in names}
            events = [dict(e) for e in self.events]
            stats = {
                "samples_ingested": self.samples_ingested,
                "payloads_rejected": self.payloads_rejected,
                "window": WINDOW,
                "straggler_factor": STRAGGLER_FACTOR,
            }
        return {
            "kind": "fleet_telemetry",
            "t": time.time(),
            "workers": workers,
            "rollups": self.fleet_rollup(alive=alive),
            "events": events,
            "stats": stats,
        }

    def postmortem(self, worker: str) -> Optional[Dict[str, Any]]:
        """Everything the coordinator still holds for one (possibly dead)
        worker: final series, totals, and the flight-recorder dump its
        last heartbeat carried."""
        with self._lock:
            state = self._workers.get(worker)
            if state is None:
                return None
            out = state.as_dict()
            out["window"] = [dict(s) for s in state.window]
            out["recorder"] = [dict(e) for e in state.recorder]
            return out


# ---------------------------------------------------------------------------
# terminal rendering (the `repro.cluster top` table)
# ---------------------------------------------------------------------------

def _fmt_rate(bps: float) -> str:
    if bps >= 1e9:
        return f"{bps / 1e9:6.2f}GB/s"
    if bps >= 1e6:
        return f"{bps / 1e6:6.2f}MB/s"
    if bps >= 1e3:
        return f"{bps / 1e3:6.2f}KB/s"
    return f"{bps:6.1f} B/s"


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:7.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:6.2f}ms"
    return f"{seconds * 1e6:6.1f}µs"


def render_top(doc: Mapping[str, Any],
               alive: Optional[Mapping[str, bool]] = None) -> str:
    """One ``top``-style frame from a telemetry document."""
    workers = doc.get("workers", {})
    rollups = doc.get("rollups", {})
    lines: List[str] = []
    lines.append(
        f"fleet telemetry — {len(workers)} workers reporting, "
        f"median receive "
        f"{_fmt_s(rollups.get('fleet_median_receive_s', 0.0))}, "
        f"median bw {_fmt_rate(rollups.get('fleet_median_bandwidth_bps', 0.0))}"
    )
    header = (f"{'worker':<16} {'st':<4} {'gen':>4} {'seq':>6} "
              f"{'epochs':>7} {'recv mean':>10} {'recv p95':>10} "
              f"{'bandwidth':>10} {'gc':>6} {'flag':<9}")
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(workers):
        w = workers[name]
        roll = w.get("rollup", {})
        if alive is None:
            status = "?"
        else:
            status = "up" if alive.get(name, False) else "DOWN"
        flag = "STRAGGLER" if w.get("straggler") else ""
        lines.append(
            f"{name:<16} {status:<4} {w.get('generation', 0):>4} "
            f"{w.get('last_seq', 0):>6} "
            f"{int(w.get('counters', {}).get(EPOCHS_SERIES, 0)):>7} "
            f"{_fmt_s(roll.get('epoch_receive_mean_s', 0.0)):>10} "
            f"{_fmt_s(roll.get('epoch_receive_p95_s', 0.0)):>10} "
            f"{_fmt_rate(roll.get('bandwidth_bps', 0.0)):>10} "
            f"{int(roll.get('gc_collections', 0)):>6} "
            f"{flag:<9}"
        )
    events = doc.get("events", [])
    if events:
        lines.append("")
        lines.append("recent events:")
        for event in events[-5:]:
            lines.append(
                f"  [{event.get('event', '?'):<10}] {event.get('worker', '?')}"
                f"  value={_fmt_s(event.get('value', 0.0))}"
                f" median={_fmt_s(event.get('median', 0.0))}"
            )
    return "\n".join(lines)
