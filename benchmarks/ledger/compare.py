"""``--compare A.json B.json``: judge set B against set A with the
benchmark's own bounds.

Per (end-to-end metric, workload) row: both medians, the relative change
of B against A (base: A's median), the bound, and a verdict —

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread (interquartile distance over the
  median, the wider of the two sets) exceeds the bound, so "unchanged"
  cannot be claimed — unless every run of B reads better than every run
  of A, which is ``ok``;
* ``ok`` otherwise.

Per-layer rows have no bound; they are listed with their change.  When
both sets ran the same seed, a metric that is a count over the fixed op
prefix (``spec.EXACT_FOR_A_SEED``) must agree exactly and is flagged
``differs`` when it does not.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import spec

Rows = Dict[Tuple[str, str], List[float]]


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def rows_of(ledger: dict, trace: int) -> Rows:
    """``{(metric, workload): values}`` over a ledger's runs."""
    rows: Rows = {}
    for run in ledger["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            rows.setdefault((name, run["workload"]), []).append(
                float(metric["value"]))
    return rows


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median; None when the
    set is too small to have quartiles."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative = improved)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    worse = worsening(statistics.median(a), statistics.median(b), better)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        if better == "lower":
            dominated = max(b) < min(a)
        else:
            dominated = min(b) > max(a)
        return "ok" if dominated else "unresolved"
    return "regressed" if worse > bound else "ok"


def _fmt_spread(values: Sequence[float]) -> str:
    s = spread(values)
    return "   n/a" if s is None else f"{s * 100:5.1f}%"


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison; 0 when no end-to-end row regressed."""
    status = 0
    ledger_a, ledger_b = load(path_a), load(path_b)
    same_seed = (ledger_a["provenance"]["seed"]
                 == ledger_b["provenance"]["seed"])

    def exactness(name: str, base: float, new: float) -> str:
        if same_seed and name in spec.EXACT_FOR_A_SEED and base != new:
            return "  differs (must repeat exactly for a seed)"
        return ""

    a_rows, b_rows = rows_of(ledger_a, 0), rows_of(ledger_b, 0)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'end-to-end metric':<20} {'workload':<13} {'A median':>13} "
          f"{'B median':>13} {'B vs A':>9} {'spread A':>8} {'spread B':>8} "
          f"{'bound':>6}  verdict")
    for metric in spec.END_TO_END:
        for workload in spec.WORKLOAD_NAMES:
            a = a_rows.get((metric.name, workload))
            b = b_rows.get((metric.name, workload))
            if not a or not b:
                continue
            base = statistics.median(a)
            new = statistics.median(b)
            change = (new - base) / abs(base) if base else 0.0
            outcome = verdict(a, b, metric.better, metric.bound)
            if outcome == "regressed":
                status = 1
            print(f"{metric.name:<20} {workload:<13} {base:>13.4f} "
                  f"{new:>13.4f} {change * 100:>+8.1f}% {_fmt_spread(a):>8} "
                  f"{_fmt_spread(b):>8} {metric.bound * 100:>5.0f}%  "
                  f"{outcome} ({metric.better} is better, n={len(a)}/"
                  f"{len(b)}){exactness(metric.name, base, new)}")
    a_rows, b_rows = rows_of(ledger_a, 1), rows_of(ledger_b, 1)
    print(f"\n{'per-layer metric':<40} {'workload':<13} {'A median':>14} "
          f"{'B median':>14} {'B vs A':>9}")
    for layer in spec.PER_LAYER:
        for workload in spec.WORKLOAD_NAMES:
            if not spec.measured_on(layer, workload):
                continue
            a = a_rows.get((layer.name, workload))
            b = b_rows.get((layer.name, workload))
            if not a or not b:
                continue
            base = statistics.median(a)
            new = statistics.median(b)
            change = (new - base) / abs(base) if base else 0.0
            print(f"{layer.name:<40} {workload:<13} {base:>14.6g} "
                  f"{new:>14.6g} {change * 100:>+8.1f}%"
                  f"{exactness(layer.name, base, new)}")
    return status
