"""The cluster coordinator: membership, channel ids, placement, liveness.

One coordinator per fleet, its own process (or a daemon thread in tests),
speaking the same CRC32 frame protocol as the workers from the same
selector loop (:class:`~repro.transport.loop.FrameLoop`): CALL frames
carrying JSON ops, RESULT or ERROR back, BYE to end a connection.  It
holds no heap and moves no graph bytes — it is the fleet's name service
and allocator:

``register``
    A worker announces (name, host, port, pid) as it comes up.  The
    coordinator assigns a fleet-wide monotonic *generation*; re-registering
    the same name (a restarted worker re-HELLOing) gets a fresh generation,
    which is how every other party detects the restart.
``heartbeat``
    Liveness, worker → coordinator, every ``heartbeat_interval``.  A
    heartbeat naming a generation the coordinator doesn't know (it
    restarted, or the record was replaced) answers ``known=False`` — the
    worker's membership loop reacts by re-registering.
``lookup`` / ``workers``
    Name → (host, port, alive, generation); the fleet resolves every
    channel target through this.
``alloc_channels``
    Globally unique channel ids for (sender → receiver) channels.  Id 0 is
    reserved coordinator-wide (never allocated); allocating toward a dead
    or unknown receiver answers a typed ``PeerGoneError`` ERROR frame.
``report_dead``
    A peer found dead under a send (connection refused, mid-stream reset)
    is reported so the whole fleet converges immediately instead of
    waiting out the heartbeat window.

The loop's tick marks workers dead after ``miss_limit`` missed
heartbeats — there is no monitor thread.  Dead records are kept (not
erased): a lookup of a dead worker must answer "dead", not "unknown", so
senders can distinguish a vanished peer from a name that never existed.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import threading
import time
from typing import Dict, List, Optional

from repro.cluster.errors import ClusterProtocolError, PeerGoneError
from repro.obs.live import FleetTelemetry, TelemetryError
from repro.transport import frames
from repro.transport.bootstrap import (
    ProcessHandle,
    ThreadHost,
    serve_reporting_port,
)
from repro.transport.loop import Connection, FrameLoop

#: Channel id 0 is reserved coordinator-wide: it can never be allocated,
#: and every receiving worker rejects an EPOCH frame naming it with a
#: typed :class:`ClusterProtocolError` (a zeroed header field must never
#: silently route into real channel state).
RESERVED_CHANNEL_ID = 0


@dataclasses.dataclass
class CoordinatorSpec:
    """Everything a spawned coordinator needs, in picklable form."""

    name: str = "coordinator"
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; actual port reported back over the pipe
    #: Seconds between worker heartbeats (dictated to workers at register).
    heartbeat_interval: float = 0.2
    #: Consecutive missed heartbeats before a worker is marked dead.
    miss_limit: int = 3
    read_timeout: float = 10.0
    #: Telemetry plane: per-worker bounded sample window (heartbeats kept)
    #: and flight-recorder entries retained for postmortems.
    telemetry_window: int = 120
    recorder_keep: int = 256
    #: Straggler rule: flag a worker whose windowed mean epoch-receive
    #: latency exceeds ``straggler_factor`` × the fleet median (with at
    #: least ``straggler_min_samples`` epochs in its window and a median
    #: above ``straggler_min_seconds`` so idle jitter can't flag anyone).
    straggler_factor: float = 3.0
    straggler_min_samples: int = 3
    straggler_min_seconds: float = 1e-3


@dataclasses.dataclass
class WorkerRecord:
    """One registered worker, living or dead."""

    name: str
    host: str
    port: int
    pid: int
    generation: int
    alive: bool = True
    registered_at: float = 0.0
    last_heartbeat: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "generation": self.generation,
            "alive": self.alive,
        }


class CoordinatorServer(FrameLoop):
    """The fleet's records and ops, served as a :class:`FrameLoop` whose
    tick runs the liveness and straggler sweeps.  ``_lock`` guards the
    records — tests and in-thread hosts sweep from other threads."""

    def __init__(self, spec: CoordinatorSpec) -> None:
        super().__init__(
            logging.getLogger(f"repro.coordinator.{spec.name}"),
            tick=min(0.05, spec.heartbeat_interval / 2),
            read_timeout=spec.read_timeout,
        )
        self.spec = spec
        self._next_sweep = 0.0
        self._lock = threading.Lock()
        self._records: Dict[str, WorkerRecord] = {}
        self._generations = itertools.count(1)
        #: Channel allocation starts at 1: id 0 is reserved fleet-wide.
        self._channel_ids = itertools.count(RESERVED_CHANNEL_ID + 1)
        #: channel id -> {"sender", "receiver", "generation"}.
        self.assignments: Dict[int, Dict[str, object]] = {}
        self.rpcs_served = 0
        self.deaths_detected = 0
        #: The fleet telemetry store: per-worker bounded series + recorder
        #: rings (kept after death — that is the postmortem), fleet
        #: rollups, and edge-triggered straggler events.
        self.telemetry = FleetTelemetry(
            window=spec.telemetry_window,
            recorder_keep=spec.recorder_keep,
            straggler_factor=spec.straggler_factor,
            straggler_min_samples=spec.straggler_min_samples,
            straggler_min_seconds=spec.straggler_min_seconds,
        )

    # -- membership --------------------------------------------------------

    def _op_ping(self, call: dict) -> dict:
        return {"op": "ping", "echo": call.get("echo"),
                "coordinator": self.spec.name}

    def _op_register(self, call: dict) -> dict:
        name = call.get("name")
        if not name:
            raise ClusterProtocolError("register requires a worker name")
        now = time.monotonic()
        with self._lock:
            previous = self._records.get(name)
            record = WorkerRecord(
                name=name,
                host=call.get("host", "127.0.0.1"),
                port=int(call.get("port", 0)),
                pid=int(call.get("pid", 0)),
                generation=next(self._generations),
                registered_at=now,
                last_heartbeat=now,
            )
            self._records[name] = record
        self.log.info(
            "registered worker %s at %s:%d generation %d%s",
            name, record.host, record.port, record.generation,
            " (re-registration)" if previous is not None else "",
        )
        return {
            "op": "register",
            "worker": name,
            "generation": record.generation,
            "heartbeat_interval": self.spec.heartbeat_interval,
            "reregistered": previous is not None,
        }

    def _op_heartbeat(self, call: dict) -> dict:
        name = call.get("name")
        generation = int(call.get("generation", 0))
        telemetry = call.get("telemetry")
        now = time.monotonic()
        with self._lock:
            record = self._records.get(name)
            if record is None or record.generation != generation:
                # The coordinator restarted, or this worker's record was
                # superseded: the worker must re-register.
                return {"op": "heartbeat", "known": False, "alive": False}
            record.last_heartbeat = now
            if not record.alive:
                # A worker declared dead but still beating (e.g. a long GC
                # pause) comes back; channels it lost stay lost — senders
                # re-open against the same generation.
                record.alive = True
                self.log.info("worker %s resumed heartbeats", name)
        result = {"op": "heartbeat", "known": True, "alive": True}
        if telemetry is not None:
            # Liveness is already booked: a malformed piggyback payload
            # rejects as a typed ERROR (connection survives) without
            # un-beating the worker.
            try:
                self.telemetry.ingest(name, generation, telemetry)
            except TelemetryError as exc:
                raise ClusterProtocolError(str(exc)) from exc
            result["telemetry_seq"] = telemetry.get("seq")
        return result

    def _op_lookup(self, call: dict) -> dict:
        name = call.get("name")
        with self._lock:
            record = self._records.get(name)
            if record is None:
                return {"op": "lookup", "found": False, "name": name}
            return {"op": "lookup", "found": True, **record.as_dict()}

    def _op_workers(self, call: dict) -> dict:
        with self._lock:
            records = [r.as_dict() for r in self._records.values()]
        records.sort(key=lambda r: r["name"])
        return {"op": "workers", "workers": records}

    def _op_alloc_channels(self, call: dict) -> dict:
        receiver = call.get("receiver")
        count = max(1, int(call.get("count", 1)))
        with self._lock:
            record = self._records.get(receiver)
            if record is None:
                raise PeerGoneError(
                    receiver or "?", "cannot assign channels: receiver was "
                    "never registered with this coordinator",
                )
            if not record.alive:
                raise PeerGoneError(
                    receiver, "cannot assign channels: receiver is dead",
                    generation=record.generation,
                )
            ids = [next(self._channel_ids) for _ in range(count)]
            for channel_id in ids:
                self.assignments[channel_id] = {
                    "sender": call.get("sender", "?"),
                    "receiver": receiver,
                    "generation": record.generation,
                }
        return {
            "op": "alloc_channels",
            "channel_ids": ids,
            "receiver": receiver,
            "generation": record.generation,
        }

    def _op_report_dead(self, call: dict) -> dict:
        name = call.get("name")
        generation = int(call.get("generation", 0))
        with self._lock:
            record = self._records.get(name)
            if record is None or record.generation != generation \
                    or not record.alive:
                # Stale report: the worker already re-registered (newer
                # generation) or is already marked — don't kill the fresh
                # incarnation on old news.
                return {"op": "report_dead", "marked": False}
            record.alive = False
            self.deaths_detected += 1
        self.log.warning("worker %s reported dead (generation %d)",
                         name, generation)
        return {"op": "report_dead", "marked": True}

    def _op_deregister(self, call: dict) -> dict:
        name = call.get("name")
        with self._lock:
            record = self._records.get(name)
            if record is not None:
                record.alive = False
        return {"op": "deregister", "worker": name}

    def _op_stats(self, call: dict) -> dict:
        with self._lock:
            alive = sum(1 for r in self._records.values() if r.alive)
            total = len(self._records)
            channels = len(self.assignments)
        return {
            "op": "stats",
            "coordinator": self.spec.name,
            "workers_alive": alive,
            "workers_total": total,
            "channels_assigned": channels,
            "rpcs_served": self.rpcs_served,
            "deaths_detected": self.deaths_detected,
            "heartbeat_interval": self.spec.heartbeat_interval,
            "miss_limit": self.spec.miss_limit,
        }

    def _op_shutdown(self, call: dict) -> dict:
        self.shutdown()
        return {"op": "shutdown", "ok": True}

    # -- telemetry ---------------------------------------------------------

    def _alive_names(self) -> List[str]:
        with self._lock:
            return [r.name for r in self._records.values() if r.alive]

    def _op_telemetry(self, call: dict) -> dict:
        doc = self.telemetry.document(
            worker=call.get("worker"),
            include_window=bool(call.get("include_window", False)),
            alive=self._alive_names(),
        )
        with self._lock:
            doc["alive"] = {name: r.alive
                            for name, r in self._records.items()}
        return {"op": "telemetry", "telemetry": doc}

    def _op_postmortem(self, call: dict) -> dict:
        name = call.get("name")
        if not name:
            raise ClusterProtocolError("postmortem requires a worker name")
        doc = self.telemetry.postmortem(name)
        if doc is None:
            return {"op": "postmortem", "found": False, "worker": name}
        with self._lock:
            record = self._records.get(name)
            alive = record.alive if record is not None else False
        return {"op": "postmortem", "found": True, "worker": name,
                "alive": alive, "postmortem": doc}

    def _op_events(self, call: dict) -> dict:
        since = int(call.get("since", 0))
        return {"op": "events",
                "events": self.telemetry.events_since(since)}

    _OPS = {
        "ping": _op_ping,
        "register": _op_register,
        "heartbeat": _op_heartbeat,
        "lookup": _op_lookup,
        "workers": _op_workers,
        "alloc_channels": _op_alloc_channels,
        "report_dead": _op_report_dead,
        "deregister": _op_deregister,
        "stats": _op_stats,
        "telemetry": _op_telemetry,
        "postmortem": _op_postmortem,
        "events": _op_events,
        "shutdown": _op_shutdown,
    }

    # -- liveness ----------------------------------------------------------

    def sweep_liveness(self, now: Optional[float] = None) -> List[str]:
        """Mark workers whose heartbeats stopped; returns the newly dead.
        Called from the loop tick, and directly by tests."""
        if now is None:
            now = time.monotonic()
        deadline = self.spec.heartbeat_interval * self.spec.miss_limit
        newly_dead: List[str] = []
        with self._lock:
            for record in self._records.values():
                if record.alive and now - record.last_heartbeat > deadline:
                    record.alive = False
                    self.deaths_detected += 1
                    newly_dead.append(record.name)
        for name in newly_dead:
            self.log.warning(
                "worker %s missed %d heartbeats; marked dead",
                name, self.spec.miss_limit,
            )
        return newly_dead

    def sweep_stragglers(self) -> List[dict]:
        """One straggler-detection pass over the alive workers' windowed
        series; returns (and logs) the newly emitted transition events.
        Called from the loop tick, and directly by tests."""
        events = self.telemetry.detect(alive=self._alive_names())
        for event in events:
            if event["event"] == "straggler":
                self.log.warning(
                    "cluster.straggler: worker %s %s=%.6fs vs fleet "
                    "median %.6fs (factor %.1f)",
                    event["worker"], event["metric"], event["value"],
                    event["median"], event["factor"],
                )
            else:
                self.log.info("cluster.straggler recovered: worker %s",
                              event["worker"])
        return events

    # -- the loop's hooks --------------------------------------------------

    def _handle_frame(self, conn: Connection, ftype: int,
                      payload: bytes) -> None:
        """CALL → ``_OPS`` → RESULT.  Typed cluster errors answer ERROR and
        keep the connection — an allocation toward a dead peer must not
        force the fleet to re-dial — while anything unexpected propagates
        to the loop, which answers ERROR and closes."""
        try:
            if ftype != frames.CALL:
                raise ClusterProtocolError(
                    f"coordinator speaks CALL/RESULT only; got "
                    f"{frames.frame_name(ftype)}"
                )
            call = frames.decode_json(payload, what="CALL")
            handler = self._OPS.get(call.get("op"))
            if handler is None:
                raise ClusterProtocolError(
                    f"unknown coordinator op {call.get('op')!r}"
                )
            self.rpcs_served += 1
            result = handler(self, call)
        except (ClusterProtocolError, PeerGoneError) as exc:
            self._send_error(conn, exc)
            return
        conn.send_frame(frames.RESULT, frames.encode_json(result))

    def _tick(self, now: Optional[float] = None) -> None:
        """The sweeps, every half heartbeat interval."""
        if now is None:
            now = time.monotonic()
        if now < self._next_sweep:
            return
        self._next_sweep = now + self.spec.heartbeat_interval / 2
        self.sweep_liveness(now)
        self.sweep_stragglers()


def coordinator_main(spec: CoordinatorSpec, port_pipe) -> None:
    """Entry point of the spawned coordinator process."""
    serve_reporting_port(port_pipe, spec.host, spec.port,
                         lambda _port: CoordinatorServer(spec))


class CoordinatorHandle(ProcessHandle):
    """A spawned coordinator process and the port it listens on."""

    kind = "coordinator"
    main = staticmethod(coordinator_main)


class LocalCoordinator(ThreadHost):
    """A coordinator served from a daemon thread in *this* process,
    already serving when the constructor returns.

    Tests use it for protocol-level cases (no spawn latency) and for the
    coordinator-restart drill: stop one, start another on the same port,
    and watch workers re-register."""

    def __init__(self, spec: Optional[CoordinatorSpec] = None) -> None:
        spec = spec if spec is not None else CoordinatorSpec()
        super().__init__(CoordinatorServer(spec),
                         f"local-coordinator-{spec.name}",
                         spec.host, spec.port)
        self.start()
