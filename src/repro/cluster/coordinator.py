"""The cluster coordinator: membership, channel ids, placement, liveness.

One coordinator per fleet, its own process (or a daemon thread in tests),
speaking the same CRC32 frame protocol as the workers
(:mod:`repro.transport.frames`): CALL frames carrying JSON ops, RESULT or
ERROR back, BYE to end a connection.  It holds no heap and moves no graph
bytes — it is the fleet's name service and allocator:

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

A monitor thread marks workers dead after ``miss_limit`` missed
heartbeats.  Dead records are kept (not erased): a lookup of a dead worker
must answer "dead", not "unknown", so senders can distinguish a vanished
peer from a name that never existed.
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
from repro.transport.bootstrap import bind_listener
from repro.transport.connection import FrameConnection
from repro.transport.errors import TransportClosed, TransportError, WorkerStartupError

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


class CoordinatorServer:
    """The in-process coordinator object (runs inside its own process, or
    a daemon thread for tests)."""

    def __init__(self, spec: CoordinatorSpec) -> None:
        self.spec = spec
        self._running = True
        self._lock = threading.Lock()
        self._records: Dict[str, WorkerRecord] = {}
        self._generations = itertools.count(1)
        #: Channel allocation starts at 1: id 0 is reserved fleet-wide.
        self._channel_ids = itertools.count(RESERVED_CHANNEL_ID + 1)
        #: channel id -> {"sender", "receiver", "generation"}.
        self.assignments: Dict[int, Dict[str, object]] = {}
        self.rpcs_served = 0
        self.deaths_detected = 0
        self._conn_threads: List[threading.Thread] = []
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
        self.log = logging.getLogger(f"repro.coordinator.{spec.name}")

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
        self._running = False
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
            include_workers=bool(call.get("include_workers", True)),
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
        Called by the monitor thread, and directly by tests."""
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

    def _monitor_loop(self) -> None:
        while self._running:
            time.sleep(self.spec.heartbeat_interval / 2)
            self.sweep_liveness()
            self.sweep_stragglers()

    def sweep_stragglers(self) -> List[dict]:
        """One straggler-detection pass over the alive workers' windowed
        series; returns (and logs) the newly emitted transition events.
        Called by the monitor thread, and directly by tests."""
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

    # -- connection loop ---------------------------------------------------

    def serve_connection(self, conn: FrameConnection) -> None:
        """Serve one client (a fleet front-end or a worker's membership
        loop) to completion.  Typed cluster errors answer ERROR and keep
        the connection — an allocation toward a dead peer must not force
        the fleet to re-dial — while anything unexpected answers ERROR and
        closes."""
        while self._running:
            try:
                ftype, payload = conn.recv_frame()
            except TransportClosed:
                return
            if ftype == frames.BYE:
                return
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
                conn.send_frame(frames.RESULT, frames.encode_json(result))
            except (ClusterProtocolError, PeerGoneError) as exc:
                try:
                    conn.send_frame(
                        frames.ERROR,
                        frames.encode_error(type(exc).__name__, str(exc)),
                    )
                except TransportError:
                    return
            except Exception as exc:  # noqa: BLE001 - reported as ERROR frame
                self.log.warning(
                    "coordinator op failed, closing connection: %s: %s",
                    type(exc).__name__, exc,
                )
                try:
                    conn.send_frame(
                        frames.ERROR,
                        frames.encode_error(type(exc).__name__, str(exc)),
                    )
                except TransportError:
                    pass
                return

    def _serve_and_close(self, conn: FrameConnection) -> None:
        try:
            self.serve_connection(conn)
        finally:
            conn.close()

    def serve_forever(self, listener) -> None:
        listener.settimeout(0.25)  # poll so shutdown can exit the loop
        monitor = threading.Thread(
            target=self._monitor_loop, name="coordinator-liveness",
            daemon=True,
        )
        monitor.start()
        try:
            while self._running:
                try:
                    sock, _addr = listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    return
                conn = FrameConnection(
                    sock, read_timeout=self.spec.read_timeout,
                )
                thread = threading.Thread(
                    target=self._serve_and_close, args=(conn,),
                    name=f"coordinator-conn-{len(self._conn_threads)}",
                    daemon=True,
                )
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
                thread.start()
        finally:
            for thread in self._conn_threads:
                thread.join(timeout=5.0)

    def stop(self) -> None:
        self._running = False


def coordinator_main(spec: CoordinatorSpec, port_pipe) -> None:
    """Entry point of the spawned coordinator process.  Binds (with the
    bounded port-in-use retry), reports the actual port, then serves."""
    from repro.transport.worker import configure_worker_logging

    configure_worker_logging()
    try:
        listener = bind_listener(spec.host, spec.port)
        server = CoordinatorServer(spec)
        server.log.info("listening on %s:%d",
                        spec.host, listener.getsockname()[1])
        port_pipe.send(("ok", listener.getsockname()[1]))
    except Exception as exc:  # noqa: BLE001 - parent re-raises as typed error
        port_pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        port_pipe.close()
        return
    finally:
        try:
            port_pipe.close()
        except OSError:  # pragma: no cover - pipe already gone
            pass
    try:
        server.serve_forever(listener)
    finally:
        listener.close()


class CoordinatorHandle:
    """A spawned coordinator process and the port it listens on."""

    def __init__(self, spec: CoordinatorSpec, process, port: int) -> None:
        self.spec = spec
        self.process = process
        self.host = spec.host
        self.port = port

    @classmethod
    def spawn(cls, spec: CoordinatorSpec,
              startup_timeout: float = 30.0) -> "CoordinatorHandle":
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        parent_pipe, child_pipe = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=coordinator_main, args=(spec, child_pipe),
            name=f"skyway-coordinator-{spec.name}", daemon=True,
        )
        process.start()
        child_pipe.close()
        try:
            if not parent_pipe.poll(startup_timeout):
                raise WorkerStartupError(
                    f"coordinator {spec.name!r} reported no port within "
                    f"{startup_timeout}s"
                )
            status, value = parent_pipe.recv()
        except (EOFError, OSError) as exc:
            process.terminate()
            process.join(timeout=5)
            raise WorkerStartupError(
                f"coordinator {spec.name!r} died during startup: {exc}"
            ) from exc
        finally:
            parent_pipe.close()
        if status != "ok":
            process.join(timeout=5)
            raise WorkerStartupError(
                f"coordinator {spec.name!r} failed to start: {value}"
            )
        return cls(spec, process, int(value))

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=timeout)


class LocalCoordinator:
    """A coordinator served from a daemon thread in *this* process.

    Tests use it for protocol-level cases (no spawn latency) and for the
    coordinator-restart drill: stop one, start another on the same port,
    and watch workers re-register."""

    def __init__(self, spec: Optional[CoordinatorSpec] = None) -> None:
        self.spec = spec if spec is not None else CoordinatorSpec()
        self._listener = bind_listener(self.spec.host, self.spec.port)
        self.server = CoordinatorServer(self.spec)
        self.host = self.spec.host
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self.server.serve_forever, args=(self._listener,),
            name=f"local-coordinator-{self.spec.name}", daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self.server.stop()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "LocalCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
