"""The coordinator's frame handler, driven without sockets in the style of
``test_aserve_protocol.py``: encoded frames go into a connection's decoder,
replies come back out of its outbound buffer, and the liveness sweep is a
loop tick with an injected clock — no listener, no thread."""

import threading

import pytest

from repro.cluster.coordinator import CoordinatorServer, CoordinatorSpec
from repro.obs import live
from repro.obs.live import LATENCY_SERIES, TelemetrySampler
from repro.obs.registry import MetricsRegistry
from repro.transport import frames
from repro.transport.loop import Connection


class _DeadSocket:
    def recv(self, _size):
        return b""

    def close(self):
        pass


@pytest.fixture
def server():
    return CoordinatorServer(CoordinatorSpec(
        name="sm-coordinator", heartbeat_interval=0.05, miss_limit=2))


@pytest.fixture
def conn(server):
    conn = Connection(server, _DeadSocket())
    server._conns.append(conn)
    return conn


def _call(op, **params):
    return frames.CALL, frames.encode_json({"op": op, **params})


def _exchange(server, conn, *sent):
    """Feed frames, drain them, and return the decoded replies."""
    for ftype, payload in sent:
        conn.decoder.feed(frames.encode_frame(ftype, payload))
    server._drain_frames(conn)
    decoder = frames.FrameDecoder()
    decoder.feed(bytes(conn.out))
    conn.out.clear()
    replies = []
    while True:
        frame = decoder.next_frame()
        if frame is None:
            return replies
        ftype, payload = frame
        replies.append(
            (ftype, frames.decode_error(payload) if ftype == frames.ERROR
             else frames.decode_json(payload, what="RESULT")))


def _assert_still_serving(server, conn):
    assert not conn.closing and not conn.closed
    [(ftype, result)] = _exchange(server, conn, _call("ping", echo=1))
    assert ftype == frames.RESULT and result["echo"] == 1


def test_call_answers_result_and_counts_the_rpc(server, conn):
    [(ftype, result)] = _exchange(
        server, conn, _call("register", name="w0", port=7))
    assert ftype == frames.RESULT
    assert result["generation"] == 1 and not result["reregistered"]
    assert server.rpcs_served == 1


@pytest.mark.parametrize("sent,match", [
    (_call("no-such-op"), "unknown coordinator op 'no-such-op'"),
    (_call("register"), "register requires a worker name"),
    ((frames.DATA, b"chunk"),
     "coordinator speaks CALL/RESULT only; got DATA"),
], ids=["unknown-op", "typed-op-error", "non-call-frame"])
def test_typed_cluster_error_keeps_the_connection(server, conn, sent, match):
    [(ftype, (kind, message))] = _exchange(server, conn, sent)
    assert ftype == frames.ERROR
    assert kind == "ClusterProtocolError" and match in message
    _assert_still_serving(server, conn)


def test_peer_gone_is_typed_and_keeps_the_connection(server, conn):
    [(ftype, (kind, message))] = _exchange(
        server, conn, _call("alloc_channels", sender="d", receiver="ghost"))
    assert (ftype, kind) == (frames.ERROR, "PeerGoneError")
    assert "never registered" in message
    _assert_still_serving(server, conn)


def test_unexpected_exception_answers_error_and_closes(server, conn):
    [(ftype, (kind, _message))] = _exchange(
        server, conn, _call("register", name="w0", port="not-a-port"),
        _call("ping"))  # never served: the connection is already closing
    assert (ftype, kind) == (frames.ERROR, "ValueError")
    assert conn.closing
    assert server._records == {}


def test_corrupt_frame_answers_error_and_closes(server, conn):
    raw = bytearray(frames.encode_frame(*_call("ping")))
    raw[-1] ^= 0xFF
    conn.decoder.feed(bytes(raw))
    [(ftype, (kind, _message))] = _exchange(server, conn)
    assert (ftype, kind) == (frames.ERROR, "FrameCorruptionError")
    assert conn.closing and server.rpcs_served == 0


def test_bye_closes_without_a_reply(server, conn):
    assert _exchange(server, conn, (frames.BYE, b"")) == []
    assert conn.closed and conn not in server._conns


def test_malformed_telemetry_is_typed_but_liveness_is_booked(server, conn):
    [(_, registered)] = _exchange(
        server, conn, _call("register", name="w0", port=7))
    record = server._records["w0"]
    record.last_heartbeat -= 60.0
    record.alive = False
    stale = record.last_heartbeat
    [(ftype, (kind, message))] = _exchange(server, conn, _call(
        "heartbeat", name="w0", generation=registered["generation"],
        telemetry="not-a-mapping"))
    assert (ftype, kind) == (frames.ERROR, "ClusterProtocolError")
    assert "telemetry payload rejected" in message
    assert record.alive and record.last_heartbeat > stale
    assert server.telemetry.payloads_rejected == 1
    _assert_still_serving(server, conn)


def test_tick_marks_a_silent_worker_dead_without_a_monitor_thread(
        server, conn):
    threads_before = threading.active_count()
    _exchange(server, conn, _call("register", name="w0", port=7))
    registered_at = server._records["w0"].last_heartbeat
    deadline = server.spec.heartbeat_interval * server.spec.miss_limit

    server._tick(now=registered_at + deadline / 2)
    assert server._records["w0"].alive

    # Inside the sweep cadence: the tick is rate-limited, not per-poll.
    sweep_due = server._next_sweep
    server._tick(now=sweep_due - 1e-6)
    assert server._next_sweep == sweep_due

    server._tick(now=registered_at + deadline + 1.0)
    assert not server._records["w0"].alive
    assert server.deaths_detected == 1
    [(_, looked_up)] = _exchange(server, conn, _call("lookup", name="w0"))
    assert looked_up["found"] and not looked_up["alive"]
    assert threading.active_count() == threads_before


def test_tick_flags_exactly_the_slow_worker_edge_triggered(monkeypatch):
    """Real sampler payloads ride heartbeat CALLs; the loop tick runs the
    detection; the ``events`` op is the driver's cursor-paged feed."""
    # A 10 s heartbeat keeps every injected ``now`` inside the liveness
    # deadline; a one-sample window makes each beat the whole series.
    monkeypatch.setattr(live, "WINDOW", 1)
    server = CoordinatorServer(CoordinatorSpec(
        name="sm-coordinator", heartbeat_interval=10.0))
    conn = Connection(server, _DeadSocket())
    server._conns.append(conn)
    workers = {}
    for name in ("w0", "w1", "w2", "w3"):
        [(_, registered)] = _exchange(
            server, conn, _call("register", name=name, port=7))
        registry = MetricsRegistry()
        workers[name] = (registered["generation"], registry,
                         TelemetrySampler(registry))

    def beat(**latency):
        for name, (generation, registry, sampler) in workers.items():
            for _ in range(live.STRAGGLER_MIN_SAMPLES):
                registry.observe(LATENCY_SERIES, latency.get(name, 0.002))
            [(ftype, result)] = _exchange(server, conn, _call(
                "heartbeat", name=name, generation=generation,
                telemetry=sampler.sample()))
            assert ftype == frames.RESULT
            sampler.ack(result["telemetry_seq"])

    def events(since=0):
        [(_, result)] = _exchange(server, conn, _call("events", since=since))
        return result["events"]

    now = server._records["w0"].last_heartbeat
    beat(w3=0.05)
    server._tick(now=now)
    [flagged] = events()
    assert (flagged["event"], flagged["worker"]) == ("straggler", "w3")
    assert events(since=flagged["seq"]) == []

    server._tick(now=server._next_sweep)  # still slow: edge, not level
    assert events(since=flagged["seq"]) == []

    beat()
    server._tick(now=server._next_sweep)
    [recovered] = events(since=flagged["seq"])
    assert (recovered["event"], recovered["worker"]) == ("recovered", "w3")
    assert all(r.alive for r in server._records.values())


def test_connection_stalled_mid_frame_times_out(server, conn):
    """Idle connections live forever; one that stops halfway through a
    frame is failed after ``read_timeout``."""
    conn.last_activity -= server.spec.read_timeout + 1.0
    server._reap_stalled()
    assert not conn.closing  # idle, not stalled
    conn.decoder.feed(frames.encode_frame(*_call("ping"))[:5])
    server._drain_frames(conn)
    server._reap_stalled()
    [(ftype, (kind, message))] = _exchange(server, conn)
    assert (ftype, kind) == (frames.ERROR, "TransportTimeout")
    assert "stalled" in message and conn.closing
