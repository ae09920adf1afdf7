"""repro.obs — tracing, metrics, and exporters for every graph send.

The paper's headline artifact is a *breakdown*: where the seconds go
(traversal vs. copy vs. wire vs. receive fix-up, Figure 3/8) and where the
bytes go (headers / padding / pointers, §6.1).  This package is the layer
that produces those breakdowns from live runs instead of ad-hoc ledgers:

* :mod:`repro.obs.tracer` — span-based tracing with monotonic wall-clock
  *and* simulated-clock timestamps, a module-level no-op fast path when
  disabled, and cross-process span grafting (worker spans stitch under the
  driver's trace via the TRACE wire frame);
* :mod:`repro.obs.registry` — one metrics registry (counters / gauges /
  histograms with labels) that the existing ledgers *feed* as snapshot
  sources: ``GraphChannel.metrics``, ``TransportMetrics``, ``EventLog``,
  GC stats;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``), a terminal phase-breakdown report in the paper's
  table style, and snapshot diffing;
* :mod:`repro.obs.live` and :mod:`repro.obs.recorder` — the fleet
  telemetry plane and its flight recorder, run only by a worker that has
  a coordinator to read them;
* ``python -m repro.obs`` — the CLI (``report`` / ``trace`` / ``diff``;
  the live fleet table is ``python -m repro.cluster top``).

Import discipline: this package imports **stdlib only**, so every layer —
``repro.heap.gc`` included — can instrument itself without cycles.

The disabled fast path is the contract the kernel hot loop relies on:
``obs.span(...)`` with no tracer enabled is one module-global load, one
``None`` check, and a shared no-op context manager — no allocation, no
lock, no clock read.
"""

from __future__ import annotations

from repro.obs.recorder import (
    FlightRecorder,
    disable_recorder,
    enable_recorder,
    get_recorder,
    record,
)
from repro.obs.registry import MetricsRegistry, registry
from repro.obs.tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    absorb_remote,
    current_context,
    disable,
    enable,
    enabled,
    end_span,
    get_tracer,
    span,
    start_span,
)

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "absorb_remote",
    "current_context",
    "disable",
    "disable_recorder",
    "enable",
    "enable_recorder",
    "enabled",
    "end_span",
    "get_recorder",
    "get_tracer",
    "record",
    "registry",
    "reset",
    "snapshot",
    "span",
    "start_span",
]


def snapshot() -> dict:
    """One merged observability snapshot: registry metrics + every
    registered ledger source, plus the active trace (if any)."""
    out = {"metrics": registry().snapshot()}
    tracer = get_tracer()
    if tracer is not None:
        out["trace"] = {
            "trace_id": tracer.trace_id,
            "process": tracer.process,
            "open_spans": len(tracer.open_spans()),
            "spans": [s.as_dict() for s in tracer.spans()],
        }
    return out


def reset() -> None:
    """Detach all global observability state: drop the tracer (spans and
    all), detach the flight recorder, and clear the registry including
    its sources.  Tests call this between cases so nothing leaks."""
    disable()
    disable_recorder()
    registry().clear()
