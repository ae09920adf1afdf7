"""Exporters: Chrome traces, terminal reports, snapshot diffs.

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
from typing import Any, Dict, Iterable, List, Mapping, Optional


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

