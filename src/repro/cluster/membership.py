"""Client-side membership: talking to the coordinator, and staying alive.

Three pieces live here, all used from *inside* other processes:

:class:`CoordinatorClient`
    A thin RPC client over one frame connection.  Every call is an
    ``obs.span("cluster.rpc", op=...)``; typed cluster errors crossing the
    wire as ERROR frames (``PeerGoneError``, ``ClusterProtocolError``) are
    re-raised as their local types, and a dead/unreachable coordinator
    surfaces as :class:`CoordinatorUnavailableError` rather than a raw
    socket error.

:class:`WorkerMembership`
    The worker-side liveness exchange: register once, then one
    :meth:`~WorkerMembership.beat_once` per firing of the worker's event
    loop (there is no heartbeat thread).  Two recoveries are built in —

    * coordinator answers ``known=False`` (it restarted, or superseded our
      record): re-register immediately and carry on with the fresh
      generation;
    * coordinator unreachable: keep trying with the same cadence; the
      first successful exchange after an outage re-registers.

    A restarted *worker* needs no special casing here: its fresh process
    simply registers, which bumps the generation — the signal every fleet
    front-end uses to re-open channels and force FULL resyncs.

:class:`FleetWorkerHandle`
    A worker process that joins a fleet: the plain
    :class:`~repro.transport.worker.WorkerServer`, plus the telemetry
    plane and a :class:`WorkerMembership` its event loop heartbeats.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
from typing import Optional

from repro import obs
from repro.obs.live import TelemetrySampler
from repro.transport.bootstrap import serve_reporting_port
from repro.transport.connection import FrameConnection, connect_with_retry
from repro.transport.errors import (
    ClusterError,
    ClusterProtocolError,
    CoordinatorUnavailableError,
    PeerGoneError,
    RemoteWorkerError,
    TransportError,
)
from repro.transport.worker import WorkerHandle, WorkerServer, WorkerSpec


def _raise_typed(exc: RemoteWorkerError) -> None:
    """Re-raise a coordinator ERROR frame as its local typed twin."""
    if exc.kind == "PeerGoneError":
        # The peer name travels only in the message; parse is best-effort
        # ("peer 'name': ...") and falls back to the whole message.
        peer = "?"
        message = exc.message
        if message.startswith("peer '"):
            end = message.find("'", len("peer '"))
            if end > 0:
                peer = message[len("peer '"):end]
                message = message[end + 1:].lstrip(": ")
        raise PeerGoneError(peer, message) from exc
    if exc.kind == "ClusterProtocolError":
        raise ClusterProtocolError(exc.message) from exc
    raise exc


class CoordinatorClient:
    """One frame connection to the coordinator; JSON ops in, results out."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 2.0,
        read_timeout: float = 10.0,
        attempts: int = 5,
    ) -> None:
        self.host = host
        self.port = port
        try:
            sock = connect_with_retry(
                host, port, connect_timeout=connect_timeout,
                attempts=attempts,
            )
        except TransportError as exc:
            raise CoordinatorUnavailableError(
                f"coordinator at {host}:{port} is unreachable: {exc}"
            ) from exc
        self._conn = FrameConnection(sock, read_timeout=read_timeout)
        self._lock = threading.Lock()
        self._closed = False

    def call(self, op: str, **params) -> dict:
        """One RPC: CALL out, RESULT (or typed ERROR) back."""
        with obs.span("cluster.rpc", op=op,
                      coordinator=f"{self.host}:{self.port}"):
            with self._lock:
                if self._closed:
                    raise CoordinatorUnavailableError(
                        "coordinator client is closed"
                    )
                try:
                    result = self._conn.call({"op": op, **params})
                except RemoteWorkerError as exc:
                    _raise_typed(exc)
                except TransportError as exc:
                    self._closed = True
                    raise CoordinatorUnavailableError(
                        f"coordinator at {self.host}:{self.port} went away "
                        f"mid-call ({op}): {exc}"
                    ) from exc
        return result

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._conn.close(bye=True)

    def __enter__(self) -> "CoordinatorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class WorkerMembership:
    """Register this process with the coordinator; the owning event loop
    calls :meth:`beat_once` on the :meth:`next_wait` cadence until
    :meth:`stop`."""

    #: Fractional jitter on the heartbeat period (±20%).  N workers
    #: spawned in one burst would otherwise beat the coordinator in
    #: lockstep forever; jitter decorrelates the fleet within a few beats.
    HEARTBEAT_JITTER = 0.2

    def __init__(
        self,
        worker_name: str,
        worker_host: str,
        worker_port: int,
        coordinator_host: str,
        coordinator_port: int,
        connect_timeout: float = 2.0,
        connect_attempts: int = 5,
    ) -> None:
        self.worker_name = worker_name
        self.worker_host = worker_host
        self.worker_port = worker_port
        self.coordinator_host = coordinator_host
        self.coordinator_port = coordinator_port
        self.connect_timeout = connect_timeout
        self.connect_attempts = connect_attempts
        self.generation = 0
        self.heartbeat_interval = 0.2
        self.heartbeats_sent = 0
        self.reregistrations = 0
        #: Optional :class:`repro.obs.live.TelemetrySampler`.  When set,
        #: every heartbeat piggybacks one metric delta — no extra
        #: connection, no extra op.
        self.sampler = None
        self.telemetry_sent = 0
        self._client: Optional[CoordinatorClient] = None
        self._stopped = False
        # Per-instance PRNG: jitter needs no cross-worker coordination,
        # and an own Random keeps tests free to seed it.
        self._rng = random.Random()

    # -- registration ------------------------------------------------------

    def _connect(self) -> CoordinatorClient:
        if self._client is None:
            self._client = CoordinatorClient(
                self.coordinator_host, self.coordinator_port,
                connect_timeout=self.connect_timeout,
                attempts=self.connect_attempts,
            )
        return self._client

    def _drop_client(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:  # teardown best-effort
                pass
            self._client = None

    def register(self) -> int:
        """Announce this worker; returns the assigned generation."""
        result = self._connect().call(
            "register",
            name=self.worker_name,
            host=self.worker_host,
            port=self.worker_port,
            pid=os.getpid(),
        )
        if self.generation:
            self.reregistrations += 1
        self.generation = int(result["generation"])
        self.heartbeat_interval = float(
            result.get("heartbeat_interval", self.heartbeat_interval)
        )
        return self.generation

    # -- heartbeat loop ----------------------------------------------------

    def next_wait(self) -> float:
        """The next heartbeat period: the coordinator-dictated interval
        ±:data:`HEARTBEAT_JITTER`.  The worker's event loop schedules beats
        through this."""
        spread = self.heartbeat_interval * self.HEARTBEAT_JITTER
        return self.heartbeat_interval + self._rng.uniform(-spread, spread)

    def beat_once(self) -> None:
        """One liveness exchange, reconnecting/re-registering as needed.
        Never raises — a dead coordinator costs one dropped client and the
        next beat retries.  This is the unit the worker's event loop calls
        on its own cadence."""
        if self._stopped:
            return
        payload = None
        try:
            if self._client is None:
                self.register()
            params = {"name": self.worker_name,
                      "generation": self.generation}
            if self.sampler is not None:
                payload = self.sampler.sample()
                params["telemetry"] = payload
            result = self._connect().call("heartbeat", **params)
            self.heartbeats_sent += 1
            if payload is not None:
                # Delivered: the sampler stops re-merging this delta.  An
                # exception anywhere above skips the ack, and the next
                # sample folds the undelivered counts back in — a flaky
                # coordinator loses no telemetry, only freshness.
                self.sampler.ack(payload["seq"])
                self.telemetry_sent += 1
            if not result.get("known", False):
                # Coordinator restarted or replaced our record:
                # re-register on the spot so the outage window is one beat.
                self.register()
        except (ClusterError, TransportError):
            self._drop_client()  # reconnect (and re-register) next beat

    def stop(self) -> None:
        """No more beats; tell the coordinator this worker is leaving."""
        self._stopped = True
        if self._client is not None:
            try:
                self._client.call("deregister", name=self.worker_name)
            except (ClusterError, TransportError):  # teardown best-effort
                pass
        self._drop_client()


@dataclasses.dataclass
class FleetWorkerSpec(WorkerSpec):
    """A :class:`WorkerSpec` plus the coordinator the worker registers
    with as it comes up, heartbeats until shutdown, and runs the telemetry
    plane for."""

    coordinator_host: str = "127.0.0.1"
    coordinator_port: int = 0


def fleet_worker_main(spec: FleetWorkerSpec, port_pipe) -> None:
    """Entry point of a spawned fleet worker: bind, build the worker,
    register with the coordinator (startup fails if it is unreachable),
    report the port, then serve — heartbeats included — from the one
    event loop until shutdown."""

    def build(port: int) -> WorkerServer:
        server = WorkerServer(spec)
        # The telemetry plane, for the coordinator that reads it.  The
        # recorder is on from the first op: even a worker that dies
        # before its first heartbeat records what it was doing.
        recorder = obs.enable_recorder()
        obs.registry().register_source(
            f"transport.{spec.name}", server.metrics.as_dict
        )
        membership = WorkerMembership(
            spec.name, spec.host, port,
            spec.coordinator_host, spec.coordinator_port,
        )
        membership.sampler = TelemetrySampler(
            obs.registry(), recorder=recorder,
        )
        # One process, one loop: register now (raises if the coordinator
        # is unreachable), then the event loop owns the heartbeat cadence
        # — no membership thread.
        membership.register()
        server.attach_membership(membership)
        return server

    serve_reporting_port(port_pipe, spec.host, spec.port, build,
                         backlog=spec.listen_backlog)


class FleetWorkerHandle(WorkerHandle):
    """A spawned fleet worker (:func:`fleet_worker_main`)."""

    main = staticmethod(fleet_worker_main)
