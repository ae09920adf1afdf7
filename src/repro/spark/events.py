"""Engine event log: the simulator's equivalent of Spark's UI/event data.

Every task execution and shuffle file movement appends a structured event;
tests and debugging tools read them to check *how* a job executed (task
placement, shuffle fan-out, cache hits), not just what it produced.

Emission is thread-safe: ``emit`` appends under a lock and every reader
(iteration, ``of_kind``, summaries, ``as_dicts``) works on a snapshot
taken under the same lock.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, Iterator, List


@dataclasses.dataclass(frozen=True)
class Event:
    kind: str
    details: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.details[key]


class EventLog:
    """Append-only event record for one SparkContext."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Event] = []

    def emit(self, kind: str, **details: Any) -> None:
        event = Event(kind, details)
        with self._lock:
            self._events.append(event)

    def snapshot(self) -> List[Event]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.snapshot())

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self.snapshot() if e.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def as_dicts(self) -> List[Dict[str, Any]]:
        """JSON-safe export — what the obs snapshot source publishes."""
        return [
            {"kind": e.kind, "details": dict(e.details)}
            for e in self.snapshot()
        ]

    # -- summaries -----------------------------------------------------------

    def task_counts_by_node(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.of_kind("task"):
            node = event["node"]
            counts[node] = counts.get(node, 0) + 1
        return counts

    def shuffle_fanout(self, shuffle_id: int) -> Dict[str, int]:
        """files written / fetched / remote fetches for one shuffle."""
        writes = [e for e in self.of_kind("shuffle_write")
                  if e["shuffle_id"] == shuffle_id]
        fetches = [e for e in self.of_kind("shuffle_fetch")
                   if e["shuffle_id"] == shuffle_id]
        return {
            "files_written": len(writes),
            "bytes_written": sum(e["bytes"] for e in writes),
            "fetches": len(fetches),
            "remote_fetches": sum(1 for e in fetches if e["remote"]),
        }

    def render(self, limit: int = 50) -> str:
        events = self.snapshot()
        lines = [f"event log ({len(events)} events)"]
        for event in events[:limit]:
            detail = " ".join(f"{k}={v}" for k, v in event.details.items())
            lines.append(f"  {event.kind:<14} {detail}")
        if len(events) > limit:
            lines.append(f"  ... {len(events) - limit} more")
        return "\n".join(lines)
