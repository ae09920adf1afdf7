"""The Skyway worker process: a receiving runtime and its op handlers.

One worker = one spawned process = one JVM + Skyway runtime, listening on a
loopback TCP port.  Every connection is served by the one selector event
loop in :mod:`repro.transport.aserve`; this module owns what the loop
serves — the runtime, the op handlers, and the state lock.  The protocol
per connection:

1. HELLO / HELLO_ACK — registry convergence (:mod:`registry_sync`).  A
   driver may re-HELLO on the same connection after loading new classes;
   the worker treats any HELLO as a fresh merge.
2. CALL frames carrying a JSON ``{"op": ...}``; data-bearing ops are
   followed by DATA chunks + TRAILER.  Each op answers RESULT or ERROR.
3. Between calls, epoch streams: EPOCH + MUX_DATA chunks + MUX_TRAILER,
   tagged by channel id, any number interleaved.  Each answers its own
   RESULT — ``ok=false`` for a failure confined to that channel.
4. BYE ends the connection; the worker keeps accepting new ones (this is
   what lets a driver's retry/backoff recover from a killed connection).

A driver can hold N streams open at once (the multi-stream parallel
send).  Everything that mutates shared state — the heap, the class loader,
the registry, placement — runs under one server-wide lock taken per
*chunk*, not per stream, so N arriving streams interleave placement the
way the paper's per-thread output buffers interleave on the send side
(§4.2).

Any exception inside a CALL op is reported as one ERROR frame naming the
exception type, then the connection closes — mid-stream state is
unrecoverable, a fresh connection is not.

Ops (the data-bearing ones are armed and completed by the loop's
streaming-op table; their ``complete_*`` halves live here):

``ping``
    Echo, for liveness and handshake tests.
``recv_graph``
    Receive one Skyway object stream into this heap (placement overlapping
    arrival), absolutize, and reply with root count, object/byte tallies
    and the position-independent :func:`~repro.transport.digest.graph_digest`.
    ``retain=false`` (default) unpins the roots after digesting so
    repeated benchmark sends don't exhaust the worker heap.
``recv_blob``
    Receive an opaque byte blob (the Spark broadcast path) and reply with
    its size and CRC.
``stats``
    Runtime + transport + event-loop counters.
``shutdown``
    Acknowledge, then exit the loop.

Not an op: one FULL/DELTA epoch frame for a delta-capable graph channel
arrives as an epoch stream — the EPOCH frame announces (channel id, epoch,
kind), MUX_DATA chunks carry the delta-wire frame — and
:meth:`WorkerServer.complete_recv_epoch` routes it through the runtime's
:class:`~repro.delta.channel.DeltaReceiveEndpoint`.  A stale delta (worker
restarted, state dropped, epoch gap) answers ``ok=false`` naming
``DeltaStaleError`` — the cross-process NACK the sender's
``DeltaSendChannel.ship`` answers with a forced-FULL resend.  Peer mode
(``send_peer``) is the same ``ship`` from this side: the worker keeps a
``DeltaSendChannel`` per (peer, channel id) and delivers through its own
:class:`~repro.transport.client.WorkerClient`.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
import zlib
from typing import Dict, Optional, Set, Tuple

from repro import obs
from repro.cluster.errors import ClusterProtocolError, PeerGoneError
from repro.core.streams import IncrementalStreamDecoder
from repro.delta.channel import DeltaReceiveEndpoint, DeltaSendChannel
from repro.delta.wire import FRAME_DELTA, FRAME_FULL, DeltaFrame, parse_frame
from repro.transport import frames, registry_sync
from repro.transport.bootstrap import (
    MB,
    build_runtime,
    serve_reporting_port,
)
from repro.transport.digest import graph_digest, semantic_graph_digest
from repro.transport.errors import RemoteWorkerError, TransportError
from repro.transport.metrics import TransportMetrics


@dataclasses.dataclass
class WorkerSpec:
    """Everything a spawned worker needs, in picklable form."""

    name: str
    classpath_factory: str  # "module:function" -> ClassPath
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; actual port reported back over the pipe
    read_timeout: float = 10.0
    young_bytes: int = 4 * MB
    old_bytes: int = 64 * MB
    #: Listen backlog.  The event loop accepts thousands of near-
    #: simultaneous connects (a fan-in opens them in a burst), so the
    #: default is far above ``bind_listener``'s conservative 8.
    listen_backlog: int = 128
    #: Fleet mode (repro.cluster): when set, the worker registers with the
    #: coordinator at this address as it comes up and heartbeats from its
    #: event loop until shutdown.
    coordinator_host: Optional[str] = None
    coordinator_port: int = 0
    #: Fleet mode: reject EPOCH frames whose channel id the coordinator
    #: (via ``admit_channel``) never told this worker to expect.  Channel
    #: id 0 is rejected unconditionally, strict or not.
    strict_channels: bool = False
    #: Telemetry plane (repro.obs.live): when true, the worker enables
    #: its flight recorder, observes per-epoch receive/apply latency into
    #: the metrics registry, and (in fleet mode) piggybacks metric deltas
    #: on every heartbeat.  Off = the zero-cost baseline a telemetry-tax
    #: measurement compares against.
    telemetry: bool = True


class _BlobSink:
    """A trivial decoder standing in for the stream decoder: a blob is
    opaque bytes (e.g. a Java-serializer broadcast payload) reassembled
    before it is stored or acknowledged."""

    def __init__(self) -> None:
        self.data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self.data.extend(chunk)


class WorkerServer:
    """The in-process server object (runs inside the spawned worker)."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.runtime = build_runtime(
            spec.name, spec.classpath_factory,
            young_bytes=spec.young_bytes, old_bytes=spec.old_bytes,
        )
        self.metrics = TransportMetrics()
        self.graphs_received = 0
        self.epochs_received = 0
        #: One lock guards every mutation of shared runtime state (heap,
        #: loader, registry, placement, tallies).  The loop takes it per
        #: chunk, so streams interleave without interleaving *inside* an
        #: object placement.
        self._state_lock = threading.Lock()
        #: Channel ids the coordinator admitted on this worker
        #: (``admit_channel``); consulted at every EPOCH header in strict mode.
        self._admitted: Set[int] = set()
        #: Named blob store (``put_blob`` / ``send_blob_peer``): the
        #: fleet's shuffle-bucket mirror.
        self._blobs: Dict[str, bytes] = {}
        #: Peer mode: cached connections and epoch channels *to* other
        #: workers, keyed so a coordinator re-assignment (fresh channel id
        #: after a peer restart) naturally opens a fresh channel.
        self._peer_clients: Dict[Tuple[str, str, int], object] = {}
        self._peer_channels: Dict[Tuple[str, int], DeltaSendChannel] = {}
        self.peer_sends = 0
        #: The :class:`~repro.transport.aserve.AsyncWorkerServer` serving
        #: this core (it sets this on construction); ``stats`` reads its
        #: counters, ``shutdown`` stops it.
        self.loop = None
        #: Structured, attributable diagnostics: one logger per worker id,
        #: level picked up from REPRO_LOG_LEVEL as the process starts.
        self.log = logging.getLogger(f"repro.worker.{spec.name}")

    # -- op handlers -------------------------------------------------------

    def _op_ping(self, call: dict) -> dict:
        return {"op": "ping", "echo": call.get("echo"),
                "worker": self.spec.name}

    def start_recv_graph(self) -> IncrementalStreamDecoder:
        """A fresh stream decoder for one ``recv_graph``; every ``feed``
        must run under the state lock."""
        with self._state_lock:
            return IncrementalStreamDecoder(self.runtime)

    def complete_recv_graph(self, decoder: IncrementalStreamDecoder,
                            stream_bytes: int, retain: bool) -> dict:
        """Everything after the last chunk: finish placement, digest,
        tally, unpin."""
        with self._state_lock:
            roots = decoder.finish()
            receiver = decoder.receiver
            token = self.runtime.track_input_buffer(receiver, roots)
            with self.metrics.phase("digest"), obs.span("recv.digest"):
                digest = graph_digest(self.runtime.jvm, receiver)
            result = {
                "op": "recv_graph",
                "roots": len(roots),
                "objects": receiver.objects_received,
                "logical_bytes": receiver.buffer.logical_size,
                "stream_bytes": stream_bytes,
                "digest": digest,
                "retained": retain,
            }
            self.graphs_received += 1
            if not retain:
                # unpin roots; GC reclaims on future pressure
                self.runtime.free_input_buffer(token)
        return result

    def complete_recv_blob(self, data: bytes) -> dict:
        return {
            "op": "recv_blob",
            "bytes": len(data),
            "crc32": zlib.crc32(data),
        }

    def _check_channel_id(self, channel_id: int) -> None:
        """The mis-route guard: a typed rejection beats a silent placement
        into the wrong channel state.  Raised at the EPOCH header, *before*
        any stream byte is buffered, so nothing lands on this heap."""
        if channel_id == 0:
            raise ClusterProtocolError(
                "channel id 0 is reserved coordinator-wide; an EPOCH frame "
                "naming it can only be a corrupted or misrouted header"
            )
        if self.spec.strict_channels and channel_id not in self._admitted:
            raise ClusterProtocolError(
                f"EPOCH frame names channel {channel_id}, which the "
                f"coordinator never admitted on worker {self.spec.name!r}"
            )

    def observe_epoch(self, channel_id: int, stream_bytes: int,
                      receive_seconds: Optional[float],
                      apply_seconds: float) -> None:
        """The telemetry plane's per-epoch observation point.
        ``receive_seconds`` covers
        EPOCH-header-to-last-chunk *as this worker saw it arrive* — a
        paced or congested wire stretches it, which is exactly the series
        the coordinator's straggler rule reads."""
        if not self.spec.telemetry:
            return
        reg = obs.registry()
        reg.counter("worker.epochs")
        reg.counter("worker.epoch_bytes", stream_bytes)
        reg.observe("worker.epoch_apply_seconds", apply_seconds)
        if receive_seconds is not None:
            reg.observe("worker.epoch_receive_seconds", receive_seconds)
        obs.record("epoch", channel=channel_id, bytes=stream_bytes,
                   recv_s=round(receive_seconds or 0.0, 6),
                   apply_s=round(apply_seconds, 6))

    def complete_recv_epoch(self, channel_id: int, epoch: int, kind: int,
                            data: bytes, stream_bytes: int,
                            digest: bool = True,
                            receive_seconds: Optional[float] = None) -> dict:
        """Apply one reassembled epoch frame: header cross-check, delta
        endpoint routing, digest.  A :class:`DeltaStaleError` propagates
        to the loop, which turns it into the NACK the sender reacts to."""
        apply_started = time.monotonic()
        with self._state_lock:
            frame = parse_frame(data)
            actual_kind = (FRAME_DELTA if isinstance(frame, DeltaFrame)
                           else FRAME_FULL)
            if (frame.channel_id, frame.epoch, actual_kind) \
                    != (channel_id, epoch, kind):
                raise TransportError(
                    f"EPOCH header announced channel {channel_id} epoch "
                    f"{epoch} kind {kind:#x}, frame carries channel "
                    f"{frame.channel_id} epoch {frame.epoch} kind "
                    f"{actual_kind:#x}"
                )
            endpoint = DeltaReceiveEndpoint.for_runtime(self.runtime)
            roots = endpoint.receive(data)
            result = {
                "op": "recv_epoch",
                "channel_id": channel_id,
                "epoch": epoch,
                "kind": "delta" if actual_kind == FRAME_DELTA else "full",
                "roots": len(roots),
                "root_addresses": list(roots),
                "stream_bytes": stream_bytes,
            }
            if digest:
                with self.metrics.phase("digest"), obs.span("recv.digest"):
                    result["digest"] = semantic_graph_digest(
                        self.runtime.jvm, roots
                    )
            self.epochs_received += 1
        self.observe_epoch(channel_id, stream_bytes, receive_seconds,
                           time.monotonic() - apply_started)
        return result

    # -- fleet ops (repro.cluster) -----------------------------------------

    def _op_admit_channel(self, call: dict) -> dict:
        channel_id = int(call.get("channel_id", 0))
        if channel_id == 0:
            raise ClusterProtocolError(
                "cannot admit channel id 0: it is reserved coordinator-wide"
            )
        with self._state_lock:
            self._admitted.add(channel_id)
        return {"op": "admit_channel", "channel_id": channel_id,
                "admitted": len(self._admitted)}

    def complete_put_blob(self, key: str, data: bytes) -> dict:
        with self._state_lock:
            self._blobs[key] = data
        return {"op": "put_blob", "key": key, "bytes": len(data),
                "crc32": zlib.crc32(data)}

    def _peer_client(self, peer: str, host: str, port: int):
        """A cached connection to another fleet worker (peer mode).  A
        peer that cannot be reached surfaces as :class:`PeerGoneError` —
        the typed signal the fleet reports to the coordinator."""
        from repro.transport.client import WorkerClient  # worker<->client cycle

        key = (peer, host, port)
        client = self._peer_clients.get(key)
        if client is None:
            try:
                client = WorkerClient(
                    self.runtime, host, port,
                    node_name=self.spec.name,
                    connect_attempts=3,
                    read_timeout=self.spec.read_timeout,
                ).connect()
            except TransportError as exc:
                raise PeerGoneError(
                    peer, f"cannot connect for a peer send: {exc}"
                ) from exc
            self._peer_clients[key] = client
        return client

    def _drop_peer(self, peer: str) -> None:
        """Forget every cached connection/channel to a failed peer; the
        next send (after the coordinator hands out a fresh placement)
        starts from scratch."""
        for key in [k for k in self._peer_clients if k[0] == peer]:
            client = self._peer_clients.pop(key)
            try:
                client.close()
            except Exception:  # noqa: BLE001 - peer is gone, close is courtesy
                pass
        for key in [k for k in self._peer_channels if k[0] == peer]:
            self._peer_channels.pop(key).close()

    def _op_send_blob_peer(self, call: dict) -> dict:
        key = call.get("key")
        peer = call.get("peer", "?")
        with self._state_lock:
            data = self._blobs.get(key)
        if data is None:
            raise ClusterProtocolError(
                f"worker {self.spec.name!r} holds no blob under key {key!r}"
            )
        with obs.span("cluster.peer_blob", peer=peer, key=key,
                      bytes=len(data)):
            client = self._peer_client(
                peer, call.get("peer_host", "127.0.0.1"),
                int(call.get("peer_port", 0)),
            )
            try:
                result = client.send_blob(data)
            except TransportError as exc:
                self._drop_peer(peer)
                raise PeerGoneError(
                    peer, f"peer blob push failed: {exc}"
                ) from exc
        self.peer_sends += 1
        return {"op": "send_blob_peer", "key": key, "peer": peer,
                "bytes": len(data), "crc32": result["crc32"]}

    def _op_send_peer(self, call: dict) -> dict:
        """Peer mode: clone a graph rooted on *this* heap straight into
        another worker — the shuffle route that never bounces through the
        driver.  The state lock is held across the whole
        :meth:`~repro.delta.channel.DeltaSendChannel.ship` (digest,
        framing, wire, and a NACK's reframe): the loop is this worker's
        only thread, so there is nothing to let in between."""
        peer = call.get("peer", "?")
        host = call.get("peer_host", "127.0.0.1")
        port = int(call.get("peer_port", 0))
        channel_id = int(call.get("channel_id", 0))
        roots = [int(r) for r in call.get("roots", [])]
        if channel_id == 0:
            raise ClusterProtocolError(
                "send_peer requires a coordinator-assigned channel id"
            )
        if not roots:
            raise ClusterProtocolError(
                "send_peer requires at least one root"
            )
        with obs.span("cluster.peer_send", peer=peer, channel=channel_id,
                      roots=len(roots)) as sp:
            client = self._peer_client(peer, host, port)
            with self._state_lock:
                chan_key = (peer, channel_id)
                channel = self._peer_channels.get(chan_key)
                if channel is None:
                    channel = DeltaSendChannel(
                        self.runtime, destination=f"peer:{peer}",
                        channel_id=channel_id,
                    )
                    self._peer_channels[chan_key] = channel
                with self.metrics.phase("digest"), obs.span("recv.digest"):
                    sender_digest = semantic_graph_digest(
                        self.runtime.jvm, roots
                    )
                try:
                    # A peer that dropped its channel state (restart, full
                    # GC) NACKs; same recovery as the driver-side channel.
                    result, shipped = channel.ship(
                        roots, lambda frame: client.deliver_epoch(
                            frame, channel.channel_id, channel.epoch))
                except RemoteWorkerError:
                    raise  # the peer spoke: a typed op failure, not death
                except TransportError as exc:
                    self._drop_peer(peer)
                    raise PeerGoneError(
                        peer, f"peer send failed mid-transfer: {exc}"
                    ) from exc
            frame, nack = shipped[-1], len(shipped) > 1
            mode = channel.last_plan.mode
            sp.set(mode=mode, epoch=channel.epoch, nack=nack)
        self.peer_sends += 1
        return {
            "op": "send_peer",
            "peer": peer,
            "channel_id": channel.channel_id,
            "epoch": channel.epoch,
            "mode": mode,
            "wire_bytes": len(frame),
            "roots": result.get("roots", 0),
            "sender_digest": sender_digest,
            "digest": result.get("digest"),
            "digest_match": result.get("digest") == sender_digest,
            "nack_recovered": nack,
        }

    def _op_stats(self, call: dict) -> dict:
        return {
            "op": "stats",
            "worker": self.spec.name,
            "graphs_received": self.graphs_received,
            "epochs_received": self.epochs_received,
            "peer_sends": self.peer_sends,
            "blobs_stored": len(self._blobs),
            "channels_admitted": len(self._admitted),
            "generation": getattr(self.loop.membership, "generation", 0),
            "telemetry": self.spec.telemetry,
            "telemetry_sent": getattr(self.loop.membership,
                                      "telemetry_sent", 0),
            "runtime": {
                k: v for k, v in self.runtime.stats().items()
                if isinstance(v, (int, str, bool))
            },
            "transport": self.metrics.as_dict(),
            "aserve": self.loop.stats_snapshot(),
        }

    def _op_shutdown(self, call: dict) -> dict:
        self.loop.shutdown()
        return {"op": "shutdown", "ok": True}

    #: The ops answered straight from the CALL.  The data-bearing ops
    #: (``recv_graph``, ``recv_blob``, ``put_blob``) are in the loop's
    #: streaming-op table, which ends in the ``complete_*`` methods above.
    _OPS = {
        "ping": _op_ping,
        "admit_channel": _op_admit_channel,
        "send_blob_peer": _op_send_blob_peer,
        "send_peer": _op_send_peer,
        "stats": _op_stats,
        "shutdown": _op_shutdown,
    }

    # -- handshake ---------------------------------------------------------

    def _handshake(self, conn, payload: bytes) -> None:
        version, peer, driver_map = frames.decode_hello(payload)
        if version != frames.PROTOCOL_VERSION:
            raise TransportError(
                f"protocol version mismatch: peer {peer!r} speaks "
                f"v{version}, this worker v{frames.PROTOCOL_VERSION}"
            )
        with self._state_lock:
            extras = registry_sync.extra_names(
                self.runtime.view.snapshot(), driver_map
            )
            conn.send_frame(
                frames.HELLO_ACK,
                frames.encode_hello_ack(self.spec.name, extras),
            )
            merged = registry_sync.merge_registries(driver_map, extras)
            registry_sync.install_merged(self.runtime, merged)
        self.log.info(
            "handshake with %s: %d driver classes, %d worker extras",
            peer, len(driver_map), len(extras),
        )


def worker_main(spec: WorkerSpec, port_pipe) -> None:
    """Entry point of the spawned process: bind, register with the
    coordinator when the spec names one, report the port through
    ``port_pipe``, then serve every connection — heartbeats included —
    from the one event loop until shutdown."""
    from repro.transport.aserve import AsyncWorkerServer  # aserve imports us

    def build(port: int) -> "AsyncWorkerServer":
        server = WorkerServer(spec)
        recorder = None
        if spec.telemetry:
            # Flight recorder on from the first op: even a worker that
            # dies before its first heartbeat records what it was doing.
            recorder = obs.enable_recorder()
            obs.registry().register_source(
                f"transport.{spec.name}", server.metrics.as_dict
            )
        loop = AsyncWorkerServer(server)
        if spec.coordinator_host:
            from repro.cluster.membership import WorkerMembership

            membership = WorkerMembership(
                spec.name, spec.host, port,
                spec.coordinator_host, spec.coordinator_port,
            )
            if spec.telemetry:
                from repro.obs.live import TelemetrySampler

                membership.sampler = TelemetrySampler(
                    obs.registry(), recorder=recorder,
                )
            # One process, one loop: register now (raises if the
            # coordinator is unreachable), then the event loop owns the
            # heartbeat cadence — no membership thread.
            membership.register()
            loop.attach_membership(membership)
        return loop

    serve_reporting_port(port_pipe, spec.host, spec.port, build,
                         backlog=spec.listen_backlog)
