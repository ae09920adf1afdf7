"""Exporters: Chrome traces, terminal reports, diffs, Prometheus text.

The Chrome format is the ``chrome://tracing`` / Perfetto "JSON Array
Format": a ``traceEvents`` list of ``"X"`` (complete) events with ``ts``
and ``dur`` in microseconds, plus ``M`` metadata events naming processes
and threads.  Span attributes ride in ``args`` so the tooltip in Perfetto
shows epoch / mode / wire bytes per span.

``render_phase_report`` is the paper-style table: spans rolled up by name
(count, wall time, simulated time) followed by the per-channel exchange
breakdown straight out of the registry sources — the wire-byte and
simulated-clock columns are read from ``ExchangeMetrics.as_dict()``
itself, which is how the report agrees with the ledger to the byte/µs.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple


def _span_dict(span: Any) -> Dict[str, Any]:
    if isinstance(span, Mapping):
        return dict(span)
    return span.as_dict()


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def to_chrome_trace(spans: Iterable[Any],
                    trace_id: Optional[str] = None) -> Dict[str, Any]:
    """Build a ``chrome://tracing`` document from spans (Span or dict)."""
    dicts = [_span_dict(s) for s in spans]
    if trace_id is None and dicts:
        trace_id = dicts[0].get("trace_id")

    # Stable small pids/tids: one pid per process name, one tid per
    # (process, thread ident) pair, in first-appearance order.
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []
    for d in dicts:
        proc = str(d.get("process", "?"))
        if proc not in pids:
            pid = pids[proc] = len(pids) + 1
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": proc},
            })
        pid = pids[proc]
        tkey = (proc, d.get("thread", 0))
        if tkey not in tids:
            tid = tids[tkey] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": f"{proc}/t{tid}"},
            })
        tid = tids[tkey]

        start = float(d["start_us"])
        end = d.get("end_us")
        closed = end is not None
        dur = max(0.0, float(end) - start) if closed else 0.0
        args: Dict[str, Any] = {
            "span_id": d.get("span_id"),
            "parent_id": d.get("parent_id"),
            "trace_id": d.get("trace_id"),
        }
        if d.get("sim_start_us") is not None and d.get("sim_end_us") is not None:
            args["sim_us"] = float(d["sim_end_us"]) - float(d["sim_start_us"])
        attrs = d.get("attrs") or {}
        if attrs:
            args.update(attrs)
        if not closed:
            args["unclosed"] = True
        events.append({
            "ph": "X", "name": str(d.get("name", "?")),
            "pid": pid, "tid": tid,
            "ts": start, "dur": dur,
            "cat": "repro", "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id or ""},
    }


def validate_chrome_trace(doc: Any) -> List[str]:
    """Return a list of problems (empty == valid).

    Checks structure, span-id uniqueness, parent resolution and
    containment, single-trace-id, and that every span is closed — the
    invariants ``tests/test_obs_propagation.py`` gates on.
    """
    problems: List[str] = []
    if not isinstance(doc, Mapping) or "traceEvents" not in doc:
        return ["document is not a mapping with a traceEvents list"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]

    spans: Dict[str, Dict[str, Any]] = {}
    trace_ids = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            problems.append(f"event #{i} is not a mapping")
            continue
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            problems.append(f"event #{i} has unexpected phase {ph!r}")
            continue
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in ev:
                problems.append(f"event #{i} ({ev.get('name')}) missing {key!r}")
        args = ev.get("args") or {}
        sid = args.get("span_id")
        if not sid:
            problems.append(f"event #{i} ({ev.get('name')}) has no span_id")
            continue
        if sid in spans:
            problems.append(f"duplicate span_id {sid}")
        spans[sid] = dict(ev)
        if args.get("trace_id"):
            trace_ids.add(args["trace_id"])
        if args.get("unclosed"):
            problems.append(f"span {sid} ({ev.get('name')}) never closed")
        if float(ev.get("dur", 0.0)) < 0:
            problems.append(f"span {sid} has negative duration")

    if len(trace_ids) > 1:
        problems.append(f"multiple trace ids: {sorted(trace_ids)}")
    if not spans:
        problems.append("trace contains no spans")

    tolerance_us = 2.0  # clock reads on either side of start/finish
    for sid, ev in spans.items():
        parent_id = (ev.get("args") or {}).get("parent_id")
        if not parent_id:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            problems.append(
                f"span {sid} ({ev.get('name')}) parent {parent_id} not in trace"
            )
            continue
        p_start = float(parent["ts"])
        p_end = p_start + float(parent["dur"])
        c_start = float(ev["ts"])
        c_end = c_start + float(ev["dur"])
        if c_start < p_start - tolerance_us or c_end > p_end + tolerance_us:
            problems.append(
                f"span {sid} ({ev.get('name')}) "
                f"[{c_start:.0f},{c_end:.0f}] escapes parent "
                f"{parent_id} ({parent.get('name')}) [{p_start:.0f},{p_end:.0f}]"
            )
    return problems


# ---------------------------------------------------------------------------
# terminal reports
# ---------------------------------------------------------------------------

def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:10.3f} s"
    if us >= 1e3:
        return f"{us / 1e3:10.3f} ms"
    return f"{us:10.1f} µs"


def _rollup(spans: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    agg: Dict[str, Dict[str, float]] = {}
    for s in spans:
        d = _span_dict(s)
        row = agg.setdefault(str(d.get("name", "?")),
                             {"count": 0, "wall_us": 0.0, "sim_us": 0.0})
        row["count"] += 1
        if d.get("end_us") is not None:
            row["wall_us"] += float(d["end_us"]) - float(d["start_us"])
        if d.get("sim_start_us") is not None and d.get("sim_end_us") is not None:
            row["sim_us"] += float(d["sim_end_us"]) - float(d["sim_start_us"])
    return agg


def render_phase_report(snapshot: Mapping[str, Any]) -> str:
    """The paper-style phase breakdown from one obs snapshot."""
    lines: List[str] = []
    trace = snapshot.get("trace") or {}
    spans = trace.get("spans") or []
    lines.append("== Phase breakdown (spans) ==")
    if spans:
        lines.append(f"trace {trace.get('trace_id', '?')}  "
                     f"spans={len(spans)} open={trace.get('open_spans', 0)}")
        agg = _rollup(spans)
        lines.append(f"{'phase':<24} {'count':>6} {'wall':>13} {'sim':>13}")
        for name in sorted(agg, key=lambda n: -agg[n]["wall_us"]):
            row = agg[name]
            lines.append(
                f"{name:<24} {int(row['count']):>6} "
                f"{_fmt_us(row['wall_us']):>13} {_fmt_us(row['sim_us']):>13}"
            )
    else:
        lines.append("(no trace in snapshot — run with tracing enabled)")

    metrics = snapshot.get("metrics") or {}
    sources = metrics.get("sources") or {}
    exchange_rows = []
    for name in sorted(sources):
        src = sources[name]
        if not isinstance(src, Mapping):
            continue
        breakdown = src.get("breakdown")
        if isinstance(breakdown, Mapping):
            exchange_rows.append((name, src, breakdown))
    if exchange_rows:
        lines.append("")
        lines.append("== Exchange channels (ledger-exact) ==")
        for name, src, breakdown in exchange_rows:
            wire = src.get("wire_bytes", breakdown.get("bytes_written", 0))
            lines.append(f"{name}: sends={src.get('sends', '?')} "
                         f"wire_bytes={wire}")
            for cat, seconds in sorted(breakdown.items()):
                if cat == "bytes_written":
                    continue
                lines.append(f"    {cat:<20} {_fmt_us(float(seconds) * 1e6)}")

    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("== Counters ==")
        for key in sorted(counters):
            lines.append(f"{key:<44} {counters[key]:>14g}")
    hists = metrics.get("histograms") or {}
    if hists:
        lines.append("")
        lines.append("== Histograms ==")
        for key in sorted(hists):
            h = hists[key]
            lines.append(
                f"{key:<44} n={int(h['count'])} sum={h['sum']:g} "
                f"min={h['min']:g} max={h['max']:g}"
            )
    other = [n for n in sorted(sources) if not (
        isinstance(sources[n], Mapping) and "breakdown" in sources[n])]
    if other:
        lines.append("")
        lines.append("== Other sources ==")
        for name in other:
            lines.append(f"{name}: {json.dumps(sources[name], default=str)[:120]}")
    return "\n".join(lines)


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, Mapping):
        for k in value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = float(value)


def diff_data(old: Mapping[str, Any],
              new: Mapping[str, Any]) -> Dict[str, Any]:
    """Numeric deltas between two snapshots, machine-readable: the data
    under both ``repro.obs diff`` renderings (text and ``--json``)."""
    a: Dict[str, float] = {}
    b: Dict[str, float] = {}
    _flatten("", old.get("metrics", old), a)
    _flatten("", new.get("metrics", new), b)
    added: Dict[str, float] = {}
    removed: Dict[str, float] = {}
    changed: Dict[str, Dict[str, float]] = {}
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if va is None:
            added[key] = vb
        elif vb is None:
            removed[key] = va
        else:
            changed[key] = {"old": va, "new": vb, "delta": vb - va}
    return {"kind": "obs_diff", "added": added, "removed": removed,
            "changed": changed,
            "total": len(added) + len(removed) + len(changed)}


def render_diff(old: Mapping[str, Any], new: Mapping[str, Any]) -> str:
    """Numeric deltas between two obs snapshots (``repro.obs diff``)."""
    data = diff_data(old, new)
    lines = ["== Snapshot diff (new - old) =="]
    for key in sorted(set(data["added"]) | set(data["removed"])
                      | set(data["changed"])):
        if key in data["added"]:
            lines.append(f"+ {key:<52} {data['added'][key]:g}")
        elif key in data["removed"]:
            lines.append(f"- {key:<52} (was {data['removed'][key]:g})")
        else:
            row = data["changed"][key]
            lines.append(f"  {key:<52} {row['old']:g} -> {row['new']:g} "
                         f"({row['delta']:+g})")
    if data["total"] == 0:
        lines.append("(no numeric differences)")
    return "\n".join(lines)


def phase_report_data(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """The phase-report numbers as data (``repro.obs report --json``):
    span rollups, counters, histogram summaries, exchange ledgers."""
    trace = snapshot.get("trace") or {}
    spans = trace.get("spans") or []
    metrics = snapshot.get("metrics") or {}
    return {
        "kind": "phase_report",
        "trace_id": trace.get("trace_id"),
        "spans": len(spans),
        "open_spans": trace.get("open_spans", 0),
        "phases": _rollup(spans),
        "counters": dict(metrics.get("counters") or {}),
        "gauges": dict(metrics.get("gauges") or {}),
        "histograms": {k: dict(v)
                       for k, v in (metrics.get("histograms") or {}).items()},
        "sources": {k: v
                    for k, v in (metrics.get("sources") or {}).items()},
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_PROM_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                      # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\n]*\""         # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\n]*\")*\})?"    # more labels
    r" [^ \n]+( [0-9]+)?$"                            # value [timestamp]
)


def _prom_name(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry series key (``name{k=v,...}``) and sanitize the
    name into the Prometheus charset (dots and dashes become ``_``)."""
    labels: Dict[str, str] = {}
    name = key
    if "{" in key and key.endswith("}"):
        name, _, inner = key.partition("{")
        for pair in inner[:-1].split(","):
            if "=" in pair:
                k, _, v = pair.partition("=")
                labels[re.sub(r"[^a-zA-Z0-9_]", "_", k.strip())] = v
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _PROM_NAME_OK.match(name):
        name = f"_{name}"
    return name, labels


def _prom_escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _prom_line(name: str, labels: Mapping[str, str], value: float) -> str:
    if labels:
        inner = ",".join(f'{k}="{_prom_escape(labels[k])}"'
                         for k in sorted(labels))
        return f"{name}{{{inner}}} {value:g}"
    return f"{name} {value:g}"


class _PromWriter:
    """Accumulates exposition lines with one TYPE header per family."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self.lines: List[str] = []
        self._typed: Dict[str, str] = {}

    def add(self, key: str, value: Any, kind: str = "gauge",
            extra_labels: Optional[Mapping[str, str]] = None,
            suffix: str = "") -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        name, labels = _prom_name(key)
        if extra_labels:
            labels.update(extra_labels)
        family = f"{self.prefix}_{name}{suffix}"
        seen = self._typed.get(family)
        if seen is None:
            self._typed[family] = kind
            self.lines.append(f"# TYPE {family} {kind}")
        elif seen != kind:
            return  # one family, one type — skip the contradiction
        self.lines.append(_prom_line(family, labels, float(value)))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def _prom_metrics(writer: _PromWriter, metrics: Mapping[str, Any],
                  extra_labels: Optional[Mapping[str, str]] = None) -> None:
    for key, value in (metrics.get("counters") or {}).items():
        writer.add(key, value, "counter", extra_labels, suffix="_total")
    for key, value in (metrics.get("gauges") or {}).items():
        writer.add(key, value, "gauge", extra_labels)
    for key, hist in (metrics.get("histograms") or {}).items():
        if not isinstance(hist, Mapping):
            continue
        writer.add(key, hist.get("count"), "counter", extra_labels,
                   suffix="_count")
        writer.add(key, hist.get("sum"), "counter", extra_labels,
                   suffix="_sum")
        for q, quantile in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            if q in hist:
                labels = dict(extra_labels or {})
                labels["quantile"] = quantile
                writer.add(key, hist[q], "gauge", labels)


def prometheus_text(doc: Mapping[str, Any], prefix: str = "repro") -> str:
    """Render a document as Prometheus text exposition.

    Accepts either an obs snapshot (``{"metrics": {...}}`` — one process)
    or a fleet telemetry document (``{"kind": "fleet_telemetry"}`` — the
    coordinator's per-worker totals become ``worker``-labelled series and
    the fleet rollups become ``repro_fleet_*`` gauges).
    """
    writer = _PromWriter(prefix)
    if doc.get("kind") == "fleet_telemetry":
        for worker in sorted(doc.get("workers") or {}):
            w = doc["workers"][worker]
            labels = {"worker": worker}
            _prom_metrics(writer, w, labels)
            writer.add("telemetry.samples", w.get("samples"), "counter",
                       labels, suffix="_total")
            writer.add("telemetry.gaps", w.get("gaps"), "counter",
                       labels, suffix="_total")
            writer.add("telemetry.straggler",
                       1.0 if w.get("straggler") else 0.0, "gauge", labels)
            for key, value in (w.get("rollup") or {}).items():
                writer.add(f"rollup.{key}", value, "gauge", labels)
        for key, value in (doc.get("rollups") or {}).items():
            writer.add(f"fleet.{key}", value, "gauge")
        stats = doc.get("stats") or {}
        writer.add("fleet.samples_ingested", stats.get("samples_ingested"),
                   "counter", suffix="_total")
        writer.add("fleet.payloads_rejected", stats.get("payloads_rejected"),
                   "counter", suffix="_total")
        writer.add("fleet.straggler_events",
                   len(doc.get("events") or []), "counter", suffix="_total")
    else:
        _prom_metrics(writer, doc.get("metrics") or doc)
    return writer.text()


def validate_prometheus(text: str) -> List[str]:
    """Line-validate Prometheus exposition text (empty == valid): every
    non-comment line must parse as ``name[{labels}] value``, every sample
    must follow a TYPE header for its family, values must be numbers."""
    problems: List[str] = []
    typed: set = set()
    samples = 0
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                problems.append(f"line {i}: malformed TYPE header: {line!r}")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        if not _PROM_LINE.match(line):
            problems.append(f"line {i}: not a valid sample line: {line!r}")
            continue
        samples += 1
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        if name not in typed:
            problems.append(f"line {i}: sample {name!r} has no TYPE header")
        value = line.rsplit(" ", 1)[-1] if "}" in line \
            else line.split(" ", 1)[1].split(" ")[0]
        try:
            float(value)
        except ValueError:
            problems.append(f"line {i}: value {value!r} is not a number")
    if samples == 0:
        problems.append("exposition contains no samples")
    return problems
