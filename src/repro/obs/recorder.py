"""The flight recorder: a bounded ring of recent events, for postmortems.

A worker that dies mid-run takes its metrics and spans with it — unless
something cheap was already shipping a postmortem off the process.  The
:class:`FlightRecorder` is that something: a fixed-capacity ring
(``collections.deque(maxlen=...)``) of small dict events, appended in
O(1), never growing, and drained incrementally into the telemetry payload
each heartbeat carries (:mod:`repro.obs.live`).  When the process is
SIGKILLed, the coordinator still holds everything the *last successful
heartbeat* delivered — which is the whole point.

Three producers feed it:

* **typed errors** — the worker's op dispatcher records every
  ``PeerGoneError`` / ``DeltaStaleError`` / channel NACK it answers
  (``obs.record("error", ...)``);
* **epochs and ops** — one compact entry per applied epoch, so the dump
  reads as a timeline of the worker's last moments;
* **the tracer tap** — when both a tracer and a recorder are enabled,
  every *closed* span lands in the ring as a ``"span"`` entry (name,
  duration, attrs), so a traced run's recorder dump is a poor man's
  trace of the final seconds.

Only a fleet worker enables a recorder (its heartbeats are the one
reader).  The module-level fast path mirrors :mod:`repro.obs.tracer`: with
no recorder enabled, :func:`record` costs one global load and one ``None``
check — nothing allocates, nothing locks.  Entries carry a process-wide
monotonic ``seq`` so incremental drains (``drain_since``) and
coordinator-side dedup are exact even across re-registrations.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

#: Ring capacity.  256 entries at ~120 bytes JSON each keeps a full dump
#: under ~32 KiB — comfortably inside one heartbeat CALL frame.
CAPACITY = 256


class FlightRecorder:
    """A bounded, thread-safe ring of recent events."""

    def __init__(self) -> None:
        self._ring: deque = deque(maxlen=CAPACITY)
        self._lock = threading.Lock()
        self._seq = 0

    # -- writing -----------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> int:
        """Append one event; returns its sequence number.  O(1): the deque
        evicts the oldest entry itself once the ring is full."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            entry = {"seq": seq, "t_s": time.time(), "kind": kind}
            for key, value in fields.items():
                if key not in entry:  # seq/t_s/kind stay authoritative
                    entry[key] = value
            self._ring.append(entry)
        return seq

    def record_span(self, span) -> None:
        """The tracer tap: one compact entry per closed span.  Attrs ride
        along, minus the ring's reserved keys — a span attribute named
        ``kind`` must not shadow the entry kind (or blow up the call)."""
        fields: Dict[str, Any] = {
            "name": span.name, "dur_us": round(span.duration_us, 1),
        }
        if span.attrs:
            for key, value in span.attrs.items():
                if key not in ("seq", "t_s", "kind", "name", "dur_us"):
                    fields[key] = value
        self.record("span", **fields)

    # -- reading -----------------------------------------------------------

    def dump(self) -> List[Dict[str, Any]]:
        """Everything currently in the ring, oldest first (a copy)."""
        with self._lock:
            return [dict(e) for e in self._ring]

    def drain_since(self, seq: int) -> List[Dict[str, Any]]:
        """Entries recorded after ``seq``, oldest first.  Non-destructive
        (the ring keeps its postmortem value); the caller tracks the high
        watermark — :class:`~repro.obs.live.TelemetrySampler` does."""
        with self._lock:
            return [dict(e) for e in self._ring if e["seq"] > seq]


# ---------------------------------------------------------------------------
# module-level fast path (mirrors tracer's enable/disable discipline)
# ---------------------------------------------------------------------------

_state_lock = threading.Lock()
_recorder: Optional[FlightRecorder] = None


def get_recorder() -> Optional[FlightRecorder]:
    return _recorder


def enable_recorder() -> FlightRecorder:
    """Turn the process-global recorder on (idempotent)."""
    global _recorder
    with _state_lock:
        if _recorder is None:
            _recorder = FlightRecorder()
        return _recorder


def disable_recorder() -> Optional[FlightRecorder]:
    """Turn the recorder off, returning the detached ring for inspection."""
    global _recorder
    with _state_lock:
        rec, _recorder = _recorder, None
        return rec


def record(kind: str, **fields: Any) -> None:
    """THE event entry point.  Disabled: one module-global load, one
    ``None`` check — the same contract as :func:`repro.obs.span`."""
    rec = _recorder
    if rec is None:
        return
    rec.record(kind, **fields)
