"""The fleet front-end: one driver talking to N coordinated workers.

A :class:`Fleet` holds one coordinator connection plus cached
per-worker clients and channels, and exposes the mesh as four verbs:

``channel_to(worker)``
    A capability-negotiated :class:`FleetChannel` — a
    :class:`~repro.exchange.socket.SocketGraphChannel` subclass whose
    channel id came from the coordinator (admitted on the worker first, so
    strict workers accept it) and whose failure handling is *fleet* policy,
    not just wire policy (see below).
``broadcast(roots)``
    The same epoch to every live worker, one channel each.  A dead worker
    does not fail the broadcast: survivors complete, and the dead peer is
    reported per-worker as a typed :class:`PeerGoneError`.
``peer_transfer(src, dst, roots)``
    Peer mode: worker *src* clones a graph rooted on its own heap
    straight into *dst* — the shuffle route that never bounces through
    the driver.  Routes (coordinator-assigned channel ids) are cached per
    (src, dst) pair so repeated transfers ride one epoch channel.
``put_blob`` / ``peer_blob``
    Opaque-bytes versions of the same two routes (the Spark
    broadcast/shuffle byte path).

Failure handling, the fleet policy: when a send fails on the wire, the
fleet asks the coordinator what happened to the peer.

* dead (or vanished) → :class:`PeerGoneError`, after reporting what we
  saw so the whole fleet converges;
* alive with a *new* generation → the worker restarted and re-HELLOed:
  reconnect, take a fresh channel id, force the next epoch FULL, retry
  once — the per-channel NACK recovery lifted to fleet scope;
* alive, same generation → transient: reconnect and retry once, then
  report dead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster.membership import CoordinatorClient
from repro.core.runtime import SkywayRuntime
from repro.exchange.capabilities import ChannelCapabilities, DEFAULT_REQUEST
from repro.exchange.channel import SendReceipt
from repro.exchange.socket import SocketGraphChannel
from repro.policy import resolve_engine
from repro.transport.client import WorkerClient
from repro.transport.errors import (
    ClusterConfigError,
    ClusterError,
    ClusterProtocolError,
    PeerGoneError,
    RemoteWorkerError,
    TransportError,
)


def _retyped(exc: RemoteWorkerError, peer: str) -> Optional[Exception]:
    """A worker-side cluster error crossing the wire, back as its type."""
    if exc.kind == "PeerGoneError":
        return PeerGoneError(peer, exc.message)
    if exc.kind == "ClusterProtocolError":
        return ClusterProtocolError(exc.message)
    return None


class FleetChannel(SocketGraphChannel):
    """One driver→worker graph channel with fleet-level failure policy."""

    def __init__(self, fleet: "Fleet", worker: str, client: WorkerClient,
                 generation: int, requested: ChannelCapabilities,
                 policy, channel_id: int) -> None:
        super().__init__(fleet.runtime, client, requested=requested,
                         policy=policy, channel_id=channel_id,
                         destination=worker)
        self.fleet = fleet
        self.worker = worker
        self.generation = generation
        #: Forced-FULL resyncs taken after a worker restart (re-HELLO).
        self.resyncs = 0

    def send(self, roots: Sequence[int], **kwargs) -> SendReceipt:
        try:
            return super().send(roots, **kwargs)
        except RemoteWorkerError as exc:
            typed = _retyped(exc, self.worker)
            if typed is not None:
                raise typed from exc
            raise
        except TransportError as exc:
            return self._recover_send(exc, roots, **kwargs)

    def _recover_send(self, cause: TransportError, roots: Sequence[int],
                      **kwargs) -> SendReceipt:
        """The wire died under a send; coordinator decides what it means."""
        fleet = self.fleet
        record = fleet.coordinator.call("lookup", name=self.worker)
        if not record.get("found") or not record.get("alive"):
            fleet.report_dead(self.worker, self.generation)
            raise PeerGoneError(
                self.worker, f"send failed and the coordinator confirms the "
                f"worker is gone: {cause}", generation=self.generation,
            ) from cause
        if record["generation"] != self.generation:
            # Restarted and re-HELLOed: fresh connection, fresh
            # coordinator-assigned channel id, forced-FULL resync.
            client = fleet.client_to(self.worker)
            channel_id = fleet._alloc_channel(self.worker)
            client.admit_channel(channel_id)
            self.recover(client, channel_id)
            self.generation = int(record["generation"])
            self.resyncs += 1
            with obs.span("cluster.resync", worker=self.worker,
                          channel=channel_id):
                return self.send(roots, **kwargs)
        # Same incarnation: transient wire fault, one reconnect retry.
        try:
            self.client.close()
            self.client.connect()
            return self.send(roots, **kwargs)
        except TransportError as exc:
            fleet.report_dead(self.worker, self.generation)
            raise PeerGoneError(
                self.worker, f"send failed twice to a worker the "
                f"coordinator still lists alive: {exc}",
                generation=self.generation,
            ) from exc


class Fleet:
    """The driver's handle on a coordinated worker fleet."""

    def __init__(self, runtime: SkywayRuntime,
                 coordinator: CoordinatorClient,
                 name: str = "driver",
                 read_timeout: float = 30.0,
                 policy=None) -> None:
        self.runtime = runtime
        self.coordinator = coordinator
        self.name = name
        self.read_timeout = read_timeout
        #: One policy engine shared by every driver→worker channel (the
        #: fleet's send modes are one decision plane); per-channel history
        #: inside the engine isolates a slow peer's bandwidth signal.
        self.engine = resolve_engine(policy)
        #: worker name -> (generation, client)
        self._clients: Dict[str, Tuple[int, WorkerClient]] = {}
        #: worker name -> FleetChannel (driver→worker broadcast channels)
        self._channels: Dict[str, FleetChannel] = {}
        #: (src, dst) -> (channel_id, dst generation) peer routes
        self._routes: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self.peer_transfers = 0
        #: Cursor into the coordinator's straggler event ring
        #: (:meth:`new_stragglers` reads past it).
        self._event_cursor = 0

    @classmethod
    def connect(cls, runtime: SkywayRuntime, host: str, port: int,
                name: str = "driver", **kwargs) -> "Fleet":
        return cls(runtime, CoordinatorClient(host, port), name=name,
                   **kwargs)

    # -- membership views --------------------------------------------------

    def workers(self) -> List[dict]:
        """The records of every worker the coordinator lists alive."""
        records = self.coordinator.call("workers")["workers"]
        return [r for r in records if r["alive"]]

    def lookup(self, worker: str) -> dict:
        record = self.coordinator.call("lookup", name=worker)
        if not record.get("found"):
            raise ClusterConfigError(
                f"worker {worker!r} is not registered with the coordinator"
            )
        return record

    def report_dead(self, worker: str, generation: int) -> None:
        self.coordinator.call("report_dead", name=worker,
                              generation=generation)

    def stats(self) -> dict:
        return self.coordinator.call("stats")

    # -- telemetry views ---------------------------------------------------

    def telemetry(self, worker: Optional[str] = None) -> dict:
        """The coordinator's fleet telemetry document: per-worker series
        totals + rollups + straggler events (what ``repro.obs top``
        renders)."""
        return self.coordinator.call("telemetry", worker=worker)["telemetry"]

    def postmortem(self, worker: str) -> Optional[dict]:
        """Everything the coordinator still holds for ``worker`` — final
        series and the flight-recorder dump its last heartbeat carried.
        Works on dead workers; that is the point.  None if the worker
        never streamed telemetry."""
        result = self.coordinator.call("postmortem", name=worker)
        if not result.get("found"):
            return None
        return result["postmortem"]

    def new_stragglers(self) -> List[dict]:
        """Straggler/recovered events emitted since the last call (a
        cursor per Fleet instance — the driver's event feed)."""
        result = self.coordinator.call("events", since=self._event_cursor)
        events = result.get("events", [])
        if events:
            self._event_cursor = max(e["seq"] for e in events)
        return events

    # -- clients & channels ------------------------------------------------

    def _drop_client(self, worker: str) -> None:
        """Forget a cached client whose connection is no longer usable —
        a worker answers any op failure with ERROR *and closes*, so the
        next op must redial."""
        cached = self._clients.pop(worker, None)
        if cached is not None:
            try:
                cached[1].close()
            except Exception:  # noqa: BLE001 - connection already dead
                pass

    def client_to(self, worker: str) -> WorkerClient:
        """A connected client for ``worker``'s *current* incarnation.  A
        cached client for a stale generation is discarded — the restarted
        process shares nothing with the one the old connection spoke to."""
        record = self.lookup(worker)
        if not record["alive"]:
            raise PeerGoneError(worker, generation=record["generation"])
        generation = int(record["generation"])
        cached = self._clients.get(worker)
        if cached is not None:
            if cached[0] == generation:
                return cached[1]
            cached[1].close()
            del self._clients[worker]
        client = WorkerClient(
            self.runtime, record["host"], record["port"],
            node_name=self.name, connect_attempts=3,
            read_timeout=self.read_timeout,
        ).connect()
        self._clients[worker] = (generation, client)
        return client

    def _alloc_channel(self, worker: str, count: int = 1) -> int:
        result = self.coordinator.call(
            "alloc_channels", sender=self.name, receiver=worker, count=count,
        )
        return int(result["channel_ids"][0])

    def channel_to(self, worker: str,
                   requested: ChannelCapabilities = DEFAULT_REQUEST,
                   policy=None) -> FleetChannel:
        """Open (or reuse) the driver→worker graph channel.  The cached
        channel keeps what it was opened with, so asking for something
        else is a configuration error, not a silent reuse."""
        cached = self._channels.get(worker)
        if cached is not None:
            if requested != cached.requested:
                raise ClusterConfigError(
                    f"channel to {worker!r} is open with {cached.requested}; "
                    f"cannot reuse it for {requested}"
                )
            if policy is not None and policy is not cached.engine:
                raise ClusterConfigError(
                    f"channel to {worker!r} is open under policy engine "
                    f"{cached.engine!r}; cannot reuse it under {policy!r}"
                )
            return cached
        record = self.lookup(worker)
        client = self.client_to(worker)
        channel_id = self._alloc_channel(worker)
        client.admit_channel(channel_id)
        channel = FleetChannel(
            self, worker, client, int(record["generation"]), requested,
            policy if policy is not None else self.engine, channel_id,
        )
        self._channels[worker] = channel
        return channel

    # -- fleet verbs -------------------------------------------------------

    def broadcast(self, roots: Sequence[int], digest: bool = True,
                  requested: ChannelCapabilities = DEFAULT_REQUEST) -> "BroadcastResult":
        """One epoch to every live worker.  Survivors complete even when a
        peer dies mid-broadcast; each casualty is recorded as its typed
        :class:`PeerGoneError` instead of failing the call."""
        receipts: Dict[str, SendReceipt] = {}
        failures: Dict[str, PeerGoneError] = {}
        names = [r["name"] for r in self.workers()]
        with obs.span("cluster.broadcast", workers=len(names)) as sp:
            for worker in names:
                try:
                    channel = self.channel_to(worker, requested=requested)
                    receipts[worker] = channel.send(roots, digest=digest)
                except PeerGoneError as exc:
                    # The channel object stays cached: if the worker comes
                    # back (re-HELLO, new generation) the next send walks
                    # the recover path — fresh channel id, forced FULL.
                    failures[worker] = exc
            sp.set(delivered=len(receipts), failed=len(failures))
        try:
            stragglers = self.new_stragglers()
        except (ClusterError, TransportError):  # telemetry is advisory
            stragglers = []
        if stragglers:
            for event in stragglers:
                if event.get("event") == "straggler":
                    obs.registry().counter("cluster.straggler",
                                           worker=event["worker"])
        return BroadcastResult(receipts, failures, stragglers=stragglers)

    def broadcast_blob(self, data: bytes) -> "BroadcastResult":
        """Same fan-out for opaque bytes (the Spark broadcast payload)."""
        receipts: Dict[str, dict] = {}
        failures: Dict[str, PeerGoneError] = {}
        names = [r["name"] for r in self.workers()]
        with obs.span("cluster.broadcast_blob", workers=len(names),
                      bytes=len(data)) as sp:
            for worker in names:
                try:
                    receipts[worker] = self.client_to(worker).send_blob(data)
                except (RemoteWorkerError, TransportError) as exc:
                    self._drop_client(worker)
                    failures[worker] = PeerGoneError(
                        worker, f"blob broadcast: {exc}"
                    )
                except PeerGoneError as exc:
                    failures[worker] = exc
            sp.set(delivered=len(receipts), failed=len(failures))
        return BroadcastResult(receipts, failures)

    def put_blob(self, worker: str, key: str, data: bytes) -> dict:
        for attempt in range(2):
            try:
                return self.client_to(worker).put_blob(key, data)
            except (RemoteWorkerError, TransportError) as exc:
                self._drop_client(worker)
                if attempt:
                    raise PeerGoneError(
                        worker, f"put_blob failed twice: {exc}"
                    ) from exc

    def peer_blob(self, src: str, dst: str, key: str) -> dict:
        """Worker ``src`` pushes its stored blob to ``dst`` directly."""
        dst_record = self.lookup(dst)
        for attempt in range(2):
            client = self.client_to(src)
            try:
                return client.send_blob_peer(
                    key, dst, dst_record["host"], dst_record["port"],
                )
            except RemoteWorkerError as exc:
                self._drop_client(src)  # src closed after the ERROR frame
                typed = _retyped(exc, dst)
                if typed is not None:
                    if isinstance(typed, PeerGoneError):
                        self.report_dead(dst, int(dst_record["generation"]))
                    raise typed from exc
                raise
            except TransportError as exc:
                # The *source* worker's connection died; one redial.
                self._drop_client(src)
                if attempt:
                    raise PeerGoneError(
                        src, f"peer-blob op failed on the source worker "
                        f"twice: {exc}",
                    ) from exc

    def peer_transfer(self, src: str, dst: str,
                      roots: Sequence[int]) -> dict:
        """Worker ``src`` clones ``roots`` (addresses on *its* heap)
        straight into ``dst`` over a coordinator-assigned channel.
        Returns the sender worker's result, which carries both sides'
        semantic digests (``digest_match`` is the p2p correctness gate)."""
        dst_record = self.lookup(dst)
        generation = int(dst_record["generation"])
        route = self._routes.get((src, dst))
        if route is None or route[1] != generation:
            channel_id = self._alloc_channel(dst)
            self.client_to(dst).admit_channel(channel_id)
            route = (channel_id, generation)
            self._routes[(src, dst)] = route
        with obs.span("cluster.peer_transfer", src=src, dst=dst,
                      channel=route[0]) as sp:
            result = None
            for attempt in range(2):
                client = self.client_to(src)
                try:
                    result = client.send_peer(
                        dst, dst_record["host"], dst_record["port"],
                        route[0], roots,
                    )
                    break
                except RemoteWorkerError as exc:
                    self._drop_client(src)  # src closed after the ERROR
                    typed = _retyped(exc, dst)
                    if typed is not None:
                        if isinstance(typed, PeerGoneError):
                            self._routes.pop((src, dst), None)
                            self.report_dead(dst, generation)
                        raise typed from exc
                    raise
                except TransportError as exc:
                    # The *source* worker's connection died; one redial.
                    self._drop_client(src)
                    if attempt:
                        raise PeerGoneError(
                            src, f"peer transfer failed on the source "
                            f"worker twice: {exc}",
                        ) from exc
            sp.set(mode=result.get("mode"),
                   match=result.get("digest_match"))
        self.peer_transfers += 1
        return result

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for channel in self._channels.values():
            try:
                channel.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        self._channels.clear()
        for _gen, client in self._clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        self._clients.clear()
        self._routes.clear()
        self.coordinator.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BroadcastResult:
    """Per-worker outcomes of one fleet broadcast."""

    def __init__(self, receipts: Dict[str, object],
                 failures: Dict[str, PeerGoneError],
                 stragglers: Optional[List[dict]] = None) -> None:
        self.receipts = receipts
        self.failures = failures
        #: ``cluster.straggler`` / ``recovered`` events the coordinator
        #: emitted since the previous broadcast (telemetry plane).
        self.stragglers = stragglers if stragglers is not None else []

    @property
    def delivered(self) -> int:
        return len(self.receipts)

    def digests(self) -> Dict[str, Optional[str]]:
        return {
            name: getattr(r, "digest", None) if not isinstance(r, dict)
            else r.get("digest")
            for name, r in self.receipts.items()
        }

    def __repr__(self) -> str:
        return (f"BroadcastResult(delivered={len(self.receipts)}, "
                f"failed={sorted(self.failures)})")
