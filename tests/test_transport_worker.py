"""End-to-end tests against real spawned worker processes: round-trip
fidelity (the PageRank-style vertex graph lands byte-identical to an
in-process receive), ops, and every injected fault surfacing as one typed
transport error — corrupted chunk, worker killed mid-stream, connecting to
a dead port, and recovery once a worker returns."""

import dataclasses
import inspect
import threading
import time
import zlib

import pytest

from repro.apps.incremental import build_vertex_graph
from repro.cluster.fleet import Fleet, FleetChannel
from repro.core.runtime import SkywayRuntime
from repro.core.streams import SkywayObjectInputStream
from repro.delta import FRAME_DELTA, FRAME_FULL
from repro.delta.channel import DeltaSendChannel
from repro.delta.dirty import DeltaTracker
from repro.exchange import (
    ChannelCapabilities,
    Exchange,
    GraphChannel,
    SocketGraphChannel,
)
from repro.jvm.jvm import JVM
from repro import policy as policy_plane
from repro.policy import (
    AdaptivePolicy,
    AlwaysDelta,
    AlwaysFull,
    ChannelSignals,
    CrossoverPolicy,
    SendPlan,
)
from repro.transport import (
    FrameConnection,
    LocalAsyncWorker,
    RemoteWorkerError,
    TransportClosed,
    TransportMetrics,
    TransportTimeout,
    WorkerClient,
    WorkerHandle,
    WorkerServer,
    WorkerSpec,
    frames,
    graph_digest,
    semantic_graph_digest,
)
from repro.transport.client import DEFAULT_MUX_CHUNK_BYTES, GraphSendStream
from repro.transport.pipeline import ChunkPipeline
from repro.transport.testing import (
    SAMPLE_FACTORY,
    ring_edges,
    sample_worker_classpath,
)

from tests.conftest import make_date, make_list, recording_connection


def _connect(runtime, handle, **kwargs):
    return WorkerClient(
        runtime, handle.host, handle.port,
        node_name=runtime.jvm.name, **kwargs,
    ).connect()


def _vertex_root(runtime, n=400):
    return runtime.jvm.pin(
        build_vertex_graph(runtime.jvm, ring_edges(n, n // 2))
    )


class CorruptingConnection(FrameConnection):
    """Flips one bit in the payload of the 2nd DATA frame sent (after the
    CRC is computed, so the damage happens "on the wire")."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._data_frames = 0

    def send_encoded(self, data, what="frames"):
        if data[4] == frames.DATA:  # the type byte of a one-frame write
            self._data_frames += 1
            if self._data_frames == 2:
                raw = bytearray(data)
                raw[(frames.HEADER_BYTES + len(raw)) // 2] ^= 0x40
                data = bytes(raw)
        super().send_encoded(data, what)


def test_round_trip_matches_in_process_receive(
    spawned_worker, transport_driver
):
    """The acceptance check: a vertex graph shipped over real loopback TCP
    must land byte-identical (position-independent digest over restored
    klass words and pointers) to an in-process accept of the same framed
    bytes."""
    pin = _vertex_root(transport_driver)
    with _connect(transport_driver, spawned_worker) as client:
        result, data = client.send_graph([pin.address])

    ref_jvm = JVM("ref", classpath=sample_worker_classpath())
    ref_runtime = SkywayRuntime(
        ref_jvm, transport_driver.driver_registry, is_driver=False
    )
    stream = SkywayObjectInputStream(ref_runtime)
    stream.accept(data)
    assert result["digest"] == graph_digest(ref_jvm, stream.receiver)
    assert result["roots"] == 1
    assert result["objects"] == stream.receiver.objects_received
    assert result["stream_bytes"] == len(data)


def test_ping_stats_and_blob(spawned_worker, transport_driver):
    with _connect(transport_driver, spawned_worker) as client:
        assert client.ping(echo="marco")["echo"] == "marco"

        import zlib
        blob = b"broadcast payload" * 999
        result = client.send_blob(blob)
        assert result["bytes"] == len(blob)
        assert result["crc32"] == zlib.crc32(blob)

        date = make_date(transport_driver.jvm, 2018, 3, 28)
        head = make_list(transport_driver.jvm, range(8))
        client.send_graph([date, head])

        stats = client.stats()
        assert stats["graphs_received"] == 1
        assert stats["worker"] == "test-worker"
        assert stats["transport"]["chunks_received"] > 0


def test_corrupted_chunk_is_typed_and_reconnect_recovers(
    spawned_worker, transport_driver
):
    """A bit flipped on the wire must surface as a typed error naming the
    CRC failure — and a fresh connection must work immediately after."""
    pin = _vertex_root(transport_driver)
    client = _connect(
        transport_driver, spawned_worker,
        connection_cls=CorruptingConnection,
    )
    try:
        with pytest.raises(
            (RemoteWorkerError, TransportClosed, TransportTimeout)
        ) as excinfo:
            client.send_graph([pin.address], chunk_bytes=8192)
    finally:
        client.close()
    if isinstance(excinfo.value, RemoteWorkerError):
        assert "CRC" in excinfo.value.message

    with _connect(transport_driver, spawned_worker) as client:
        result, _ = client.send_graph([pin.address], chunk_bytes=8192)
        assert result["roots"] == 1


def test_worker_killed_mid_stream_is_typed(transport_driver):
    """SIGKILL the worker while chunks are in flight: the driver must get
    a typed transport error promptly, not hang until the read timeout."""
    handle = WorkerHandle.spawn(
        WorkerSpec(name="doomed", classpath_factory=SAMPLE_FACTORY)
    )
    try:
        client = _connect(transport_driver, handle, read_timeout=10.0)
        pin = _vertex_root(transport_driver, n=3000)
        killer = threading.Timer(0.15, handle.kill)
        killer.start()
        started = time.perf_counter()
        try:
            with pytest.raises((TransportClosed, TransportTimeout)):
                # Throttled so the stream is still mid-flight at kill time.
                client.send_graph(
                    [pin.address], chunk_bytes=4096,
                    queue_chunks=2, throttle_mbps=5.0,
                )
            assert time.perf_counter() - started < 8.0
        finally:
            killer.join()
            client.close()
    finally:
        handle.stop()


def test_connect_to_dead_port_retries_then_typed_timeout(transport_driver):
    handle = WorkerHandle.spawn(
        WorkerSpec(name="shortlived", classpath_factory=SAMPLE_FACTORY)
    )
    host, port = handle.host, handle.port
    handle.stop()  # nothing listens on the port any more

    client = WorkerClient(
        transport_driver, host, port,
        connect_attempts=3, connect_backoff=0.05, connect_timeout=0.5,
    )
    with pytest.raises(TransportTimeout, match="after 3 attempt"):
        client.connect()
    assert client.metrics.connect_attempts == 3
    assert client.metrics.retries == 2


def test_retry_recovers_when_worker_returns(transport_driver):
    """The backoff window is long enough to spawn a replacement worker on
    the same port — the connect loop must land on it."""
    first = WorkerHandle.spawn(
        WorkerSpec(name="original", classpath_factory=SAMPLE_FACTORY)
    )
    port = first.port
    first.stop()

    replacement = {}

    def respawn():
        replacement["handle"] = WorkerHandle.spawn(WorkerSpec(
            name="replacement", classpath_factory=SAMPLE_FACTORY, port=port,
        ))

    spawner = threading.Thread(target=respawn)
    spawner.start()
    try:
        client = WorkerClient(
            transport_driver, "127.0.0.1", port,
            connect_attempts=20, connect_backoff=0.25, connect_timeout=1.0,
        )
        client.connect()
        try:
            assert client.ping(echo="back")["echo"] == "back"
            assert client.metrics.retries > 0
        finally:
            client.close()
    finally:
        spawner.join()
        if "handle" in replacement:
            replacement["handle"].stop()


def test_writer_thread_only_under_a_traversal(transport_driver, monkeypatch):
    """A payload already in hand goes out inline, on the driver and on a
    worker's loop alike; only ``send_graph`` has a traversal for a writer
    thread to overlap.  An epoch is the stream whose id is its channel id:
    STREAM, DATA cut at ``DEFAULT_MUX_CHUNK_BYTES`` (each after the id's
    varint, 4101 = ``85 20``), TRAILER."""
    started = []
    wire, recording = recording_connection()
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)

    head = make_list(transport_driver.jvm, range(4000))
    channel = DeltaSendChannel(transport_driver, "inline-a", channel_id=4101)
    frame = channel.send([head])
    chunks = [frame[at:at + DEFAULT_MUX_CHUNK_BYTES]
              for at in range(0, len(frame), DEFAULT_MUX_CHUNK_BYTES)]
    assert len(chunks) > 1
    specs = [WorkerSpec(name=name, classpath_factory=SAMPLE_FACTORY)
             for name in ("inline-a", "inline-b")]
    with LocalAsyncWorker(specs[0]) as near, LocalAsyncWorker(specs[1]) as far:
        client = _connect(transport_driver, near, connection_cls=recording)
        try:
            list(wire.frames())  # the HELLO
            client.send_epoch(frame, 4101, channel.epoch)
            assert list(wire.frames()) == [
                (frames.STREAM, frames.encode_stream(frames.StreamHeader(
                    4101, frames.STREAM_EPOCH, epoch=1,
                    frame_kind=frame[0], digest=True))),
                *[(frames.DATA, b"\x85\x20" + chunk)
                  for chunk in chunks],
                (frames.TRAILER, frames.encode_trailer(
                    4101, len(frame), zlib.crc32(frame), len(chunks))),
            ]
            client.send_blob(b"b" * 100_000)
            client.put_blob("bucket", b"p" * 100_000)
            pushed = client.send_blob_peer("bucket", "inline-b",
                                           far.host, far.port)
            assert pushed["bytes"] == 100_000
            assert "skyway-chunk-writer" not in started
            client.send_graph([head])
            assert started.count("skyway-chunk-writer") == 1

            # The worker refuses channel 0 at the stream opener and says so
            # at the trailer, for that channel only: the connection lives.
            conn = client._require_conn()
            with pytest.raises(RemoteWorkerError) as excinfo:
                client.send_epoch(frame, 0, 1)
            assert excinfo.value.kind == "ClusterProtocolError"
            assert client.ping(echo="still here")["echo"] == "still here"
            assert client._require_conn() is conn
        finally:
            channel.close()
            client.close()


def test_relayed_delta_ships_the_patch_and_a_peer_nack_recovers(
        transport_driver):
    """Driver → A → B with two in-thread workers.  A graph A received by
    DELTA is relayed to B as a non-empty DELTA (the apply fires A's write
    barrier, so A's outgoing channel sees the PATCHed spans), and a B that
    compacted its old generation NACKs the relay, which recovers inside
    one ``send_peer`` — the peer-mode caller of ``DeltaSendChannel.ship``."""
    driver = transport_driver
    head = make_list(driver.jvm, range(200))
    pin = driver.jvm.pin(head)
    specs = [WorkerSpec(name=name, classpath_factory=SAMPLE_FACTORY)
             for name in ("relay-a", "relay-b")]
    with LocalAsyncWorker(specs[0]) as a, LocalAsyncWorker(specs[1]) as b:
        client = _connect(driver, a)
        channel = SocketGraphChannel(
            driver, client, channel_id=5101, destination="relay-a")

        def push(payload):
            driver.jvm.set_field(head, "payload", payload)
            receipt = channel.send([head])
            assert receipt.mode == "delta"
            return receipt.roots

        def relay(roots):
            result = client.send_peer("relay-b", b.host, b.port, 5102, roots)
            assert result["digest_match"]
            assert result["digest"] == semantic_graph_digest(
                driver.jvm, [head])
            return result

        try:
            first = channel.send([head])
            assert first.mode == "full"
            assert relay(first.roots)["mode"] == "full"
            quiescent = relay(first.roots)
            assert quiescent["mode"] == "delta"

            relayed = relay(push(4242))
            assert relayed["mode"] == "delta" and not relayed["nack_recovered"]
            assert relayed["wire_bytes"] > quiescent["wire_bytes"]

            peer = b.loop
            with peer._state_lock:
                peer.runtime.jvm.gc.full()
            recovered = relay(push(4343))
            assert recovered["nack_recovered"] and recovered["mode"] == "full"
            after = relay(push(4444))
            assert after["mode"] == "delta" and not after["nack_recovered"]
        finally:
            channel.close()
            client.close()
            driver.jvm.unpin(pin)


def test_worker_parses_each_epoch_frame_once(transport_driver, monkeypatch):
    """The worker parses an epoch's frame once: the opener
    cross-check and the delta endpoint share the parsed frame.  Counted
    on the worker's own thread, for a FULL and then a DELTA."""
    import repro.delta.channel as delta_channel
    import repro.transport.worker as worker_module

    real_parse = worker_module.parse_frame
    calls = []

    def counting_parse(data):
        calls.append(threading.current_thread().name)
        return real_parse(data)

    monkeypatch.setattr(worker_module, "parse_frame", counting_parse)
    monkeypatch.setattr(delta_channel, "parse_frame", counting_parse)

    driver = transport_driver
    head = make_list(driver.jvm, range(40))
    pin = driver.jvm.pin(head)
    spec = WorkerSpec(name="parse-once", classpath_factory=SAMPLE_FACTORY)
    channel = DeltaSendChannel(driver, "parse-once", channel_id=5201)
    with LocalAsyncWorker(spec) as local:
        client = _connect(driver, local)
        try:
            full = channel.send([head])
            assert full[0] == FRAME_FULL
            client.send_epoch(full, 5201, channel.epoch, digest=True)
            driver.jvm.set_field(head, "payload", 777)
            delta = channel.send([head])
            assert delta[0] == FRAME_DELTA
            result = client.send_epoch(delta, 5201, channel.epoch,
                                       digest=True)
            assert result["kind"] == "delta"
            assert result["digest"] == semantic_graph_digest(
                driver.jvm, [head])
        finally:
            channel.close()
            client.close()
            driver.jvm.unpin(pin)
    worker_calls = [name for name in calls if name == "worker-parse-once"]
    assert len(worker_calls) == 2, calls


def test_pre_framed_sends_and_channels_take_no_pipeline_knobs():
    """The options left after the callerless ones went: a pre-framed send
    is its payload and its routing, a channel is its endpoints, request
    and policy, and a plan is full or delta — no stream count, no kernel
    flag, no bandwidth feedback, no route around the channel's one send
    body, no delta card size; a worker is its spec, its loop's mark and
    tick constants; a policy is a stateless decision whose crossover,
    band, EWMA weight and record overhead are constants; a graph stream is
    one connection's own shuffle phase, with no thread id to pick and no
    per-stream metrics to merge; a stream is a stream whatever it carries.
    (``send_graph`` keeps every pipeline knob.)"""
    def params(func):
        return list(inspect.signature(func).parameters)

    assert params(WorkerClient.send_epoch) == [
        "self", "frame_bytes", "channel_id", "epoch", "digest"]
    assert params(WorkerClient.__init__) == [
        "self", "runtime", "host", "port", "node_name", "connect_timeout",
        "connect_attempts", "connect_backoff", "read_timeout", "metrics",
        "connection_cls"]
    assert params(WorkerServer.__init__) == ["self", "spec"]
    assert params(LocalAsyncWorker.__init__) == ["self", "spec"]
    assert params(WorkerClient.send_blob) == ["self", "data"]
    assert params(WorkerClient.put_blob) == ["self", "key", "data"]
    assert params(SocketGraphChannel.__init__) == [
        "self", "runtime", "client", "requested", "policy", "channel_id",
        "destination"]
    assert params(FleetChannel.__init__) == [
        "self", "fleet", "worker", "client", "generation", "requested",
        "policy", "channel_id"]
    assert params(DeltaSendChannel.ship) == ["self", "roots", "deliver"]
    assert params(DeltaSendChannel.__init__) == [
        "self", "runtime", "destination", "policy", "target_layout",
        "channel_id", "delta_enabled", "use_kernels", "capabilities"]
    assert params(DeltaTracker.__init__) == ["self", "heap"]
    assert params(DeltaTracker.attach) == ["heap"]
    assert not hasattr(DeltaTracker, "dirty_ranges")
    assert params(GraphChannel.send) == ["self", "roots", "digest"]
    assert [f.name for f in dataclasses.fields(SendPlan)] == [
        "mode", "reason", "policy", "digest", "byte_budget",
        "mutation_rate", "estimated_bytes", "clamped"]
    assert [f.name for f in dataclasses.fields(ChannelCapabilities)] == [
        "kernel", "delta"]
    assert not hasattr(Exchange, "parallel_send")
    for func in (Exchange.channel_to, Fleet.channel_to):
        assert not any(
            p.kind is p.VAR_KEYWORD
            for p in inspect.signature(func).parameters.values())
    assert {"chunk_bytes", "queue_chunks", "store_and_forward",
            "throttle_mbps"} <= set(params(WorkerClient.send_graph))
    assert not {"thread_id", "fresh_phase"} & set(
        params(WorkerClient.begin_graph))
    for name in ("merge", "merged"):
        assert not hasattr(TransportMetrics, name)
    for name in ("thread_id", "objects_sent", "abort"):
        assert not hasattr(GraphSendStream, name)
    for cls in (CrossoverPolicy, AdaptivePolicy, AlwaysFull, AlwaysDelta):
        assert params(cls) == []  # the constructor takes only self
        with pytest.raises(TypeError):
            cls(0.5)
    assert "record_overhead" not in {
        f.name for f in dataclasses.fields(ChannelSignals)}
    # One stream framing: graph, blob and epoch share STREAM/DATA/TRAILER,
    # so the epoch-only frame types, the CALL-armed stream ops and the
    # blob-only send body are gone, and an epoch batch has one order.
    for name in ("EPOCH", "MUX_DATA", "MUX_TRAILER"):
        assert not hasattr(frames, name)
    assert len(frames.FRAME_NAMES) == 10
    assert not hasattr(WorkerServer, "_STREAM_OPS")
    assert not hasattr(WorkerClient, "_send_bytes")
    assert params(WorkerClient.send_epochs) == ["self", "epochs"]
    assert params(ChunkPipeline.__init__) == [
        "self", "connection", "chunk_bytes", "queue_chunks",
        "store_and_forward", "throttle_mbps"]  # metrics: the connection's
    assert not hasattr(policy_plane, "PolicyEngine")
    assert not hasattr(policy_plane, "resolve_engine")
