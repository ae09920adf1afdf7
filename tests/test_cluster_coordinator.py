"""Coordinator protocol tests (LocalCoordinator: in-thread, no spawns).

Covers the membership/channel-assignment contract of §14: registration
generations, heartbeat liveness, typed errors that keep the connection,
the reserved channel id, and the coordinator-restart drill where a
heartbeating worker re-registers against the fresh incarnation.
"""

import time

import pytest

from repro.cluster import (
    RESERVED_CHANNEL_ID,
    ClusterProtocolError,
    CoordinatorClient,
    CoordinatorSpec,
    CoordinatorUnavailableError,
    LocalCoordinator,
    PeerGoneError,
    WorkerMembership,
)


def _wait(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while True:
        if predicate():
            return
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(interval)


@pytest.fixture
def coordinator():
    spec = CoordinatorSpec(name="t-coordinator",
                           heartbeat_interval=0.05, miss_limit=2)
    with LocalCoordinator(spec) as coord:
        yield coord


@pytest.fixture
def client(coordinator):
    with CoordinatorClient(coordinator.host, coordinator.port) as c:
        yield c


class TestRegistration:
    def test_register_assigns_monotonic_generations(self, client):
        g1 = client.call("register", name="w0", port=1)["generation"]
        g2 = client.call("register", name="w1", port=2)["generation"]
        assert 0 < g1 < g2

    def test_reregistration_bumps_generation(self, client):
        first = client.call("register", name="w0", port=1)
        again = client.call("register", name="w0", port=1)
        assert not first["reregistered"]
        assert again["reregistered"]
        assert again["generation"] > first["generation"]

    def test_register_reports_heartbeat_interval(self, client):
        result = client.call("register", name="w0", port=1)
        assert result["heartbeat_interval"] == pytest.approx(0.05)

    def test_lookup_unknown_vs_dead(self, client):
        assert client.call("lookup", name="ghost")["found"] is False
        gen = client.call("register", name="w0", port=1)["generation"]
        client.call("report_dead", name="w0", generation=gen)
        record = client.call("lookup", name="w0")
        # A vanished peer answers "dead", never "unknown": senders must be
        # able to tell a casualty from a name that never existed.
        assert record["found"] is True
        assert record["alive"] is False


class TestHeartbeats:
    def test_wrong_generation_is_unknown(self, client):
        gen = client.call("register", name="w0", port=1)["generation"]
        assert client.call("heartbeat", name="w0",
                           generation=gen)["known"] is True
        assert client.call("heartbeat", name="w0",
                           generation=gen + 1)["known"] is False

    def test_heartbeat_revives_declared_dead_worker(self, client):
        gen = client.call("register", name="w0", port=1)["generation"]
        client.call("report_dead", name="w0", generation=gen)
        assert client.call("lookup", name="w0")["alive"] is False
        beat = client.call("heartbeat", name="w0", generation=gen)
        assert beat["known"] and beat["alive"]
        assert client.call("lookup", name="w0")["alive"] is True

    def test_silence_marks_dead(self, client):
        client.call("register", name="w0", port=1)
        # interval 0.05 x miss_limit 2: silence beyond ~0.1s is death.
        _wait(lambda: client.call("lookup", name="w0")["alive"] is False)
        stats = client.call("stats")
        assert stats["deaths_detected"] >= 1

    def test_stale_death_report_ignored(self, client):
        client.call("register", name="w0", port=1)
        fresh = client.call("register", name="w0", port=1)["generation"]
        stale = client.call("report_dead", name="w0", generation=fresh - 1)
        assert stale["marked"] is False
        assert client.call("lookup", name="w0")["alive"] is True


class TestChannelAssignment:
    def test_ids_unique_and_never_reserved(self, client):
        client.call("register", name="w0", port=1)
        ids = []
        for _ in range(3):
            ids.extend(client.call("alloc_channels", sender="driver",
                                   receiver="w0", count=4)["channel_ids"])
        assert len(set(ids)) == len(ids) == 12
        assert RESERVED_CHANNEL_ID == 0
        assert RESERVED_CHANNEL_ID not in ids

    def test_alloc_for_unregistered_receiver_is_peer_gone(self, client):
        with pytest.raises(PeerGoneError) as excinfo:
            client.call("alloc_channels", sender="driver", receiver="ghost")
        assert excinfo.value.peer == "ghost"

    def test_alloc_for_dead_receiver_is_peer_gone(self, client):
        gen = client.call("register", name="w0", port=1)["generation"]
        client.call("report_dead", name="w0", generation=gen)
        with pytest.raises(PeerGoneError):
            client.call("alloc_channels", sender="driver", receiver="w0")


class TestTypedErrors:
    def test_unknown_op_is_protocol_error_and_keeps_connection(self, client):
        with pytest.raises(ClusterProtocolError):
            client.call("no-such-op")
        # Unlike workers, the coordinator answers typed errors without
        # hanging up: the same connection serves the next call.
        assert client.call("ping")["op"] == "ping"

    def test_register_without_name_is_protocol_error(self, client):
        with pytest.raises(ClusterProtocolError):
            client.call("register")
        assert client.call("ping")["op"] == "ping"


class TestCoordinatorRestart:
    def test_worker_reregisters_against_fresh_coordinator(self):
        """Beats are driven explicitly — the unit the worker's event loop
        calls — so the drill is deterministic: no heartbeat cadence to
        sleep on."""
        spec = CoordinatorSpec(name="t-coordinator",
                               heartbeat_interval=0.05, miss_limit=2)
        first = LocalCoordinator(spec)
        membership = WorkerMembership(
            "w0", "127.0.0.1", 12345, first.host, first.port,
            connect_attempts=1)
        try:
            first_generation = membership.register()
            assert first_generation > 0
            membership.beat_once()
            assert membership.heartbeats_sent == 1
            assert membership.reregistrations == 0

            # The coordinator dies and a fresh (empty) one takes over the
            # same port.  The first beat finds the old connection dead and
            # drops it; the next one reconnects and — unknown to the fresh
            # incarnation — registers again rather than raising.
            port = first.port
            first.stop()
            replacement = LocalCoordinator(
                CoordinatorSpec(name="t-coordinator-2", port=port,
                                heartbeat_interval=0.05, miss_limit=2))
            try:
                membership.beat_once()
                membership.beat_once()
                assert membership.reregistrations == 1
                with CoordinatorClient(replacement.host,
                                       replacement.port) as probe:
                    record = probe.call("lookup", name="w0")
                assert record["alive"] is True
                assert record["generation"] == membership.generation
            finally:
                replacement.stop()
        finally:
            membership.stop()

    def test_stop_deregisters_and_silences_later_beats(self, coordinator,
                                                       client):
        membership = WorkerMembership(
            "w0", "127.0.0.1", 12345, coordinator.host, coordinator.port)
        membership.register()
        membership.stop()
        assert client.call("lookup", name="w0")["alive"] is False
        membership.beat_once()  # stopped: no reconnect, no re-register
        assert membership.heartbeats_sent == 0
        assert client.call("lookup", name="w0")["alive"] is False


class TestStop:
    def test_stop_returns_within_a_tick_with_a_client_connected(self):
        """No accept poll to wait out and no per-connection thread to
        join: the loop sees the flag on its next tick and hangs up."""
        coord = LocalCoordinator(CoordinatorSpec(name="t-stop"))
        client = CoordinatorClient(coord.host, coord.port)
        assert client.call("ping")["op"] == "ping"
        started = time.monotonic()
        coord.stop()
        assert time.monotonic() - started < 1.0
        with pytest.raises(CoordinatorUnavailableError):
            client.call("ping")
        client.close()


class TestBeatNeverRaises:
    def test_unexpected_coordinator_error_costs_one_beat(self, coordinator,
                                                         monkeypatch):
        """An op that blows up at the coordinator answers an untyped ERROR
        and hangs up; the beat that drew it must not propagate into the
        worker's event loop — it drops the client and the next beat
        reconnects."""
        membership = WorkerMembership(
            "w0", "127.0.0.1", 12345, coordinator.host, coordinator.port)
        membership.register()

        def boom(server, call):
            raise ValueError("boom")

        monkeypatch.setitem(type(coordinator.loop)._OPS, "heartbeat", boom)
        membership.beat_once()
        assert membership.heartbeats_sent == 0
        monkeypatch.undo()
        membership.beat_once()
        assert membership.heartbeats_sent == 1
        membership.stop()


class TestHeartbeatJitter:
    def test_next_wait_spreads_within_twenty_percent(self):
        """N workers spawned in one burst must not beat the coordinator
        in lockstep: every heartbeat period is the coordinator-dictated
        interval ±20%, and the samples genuinely spread."""
        import random

        membership = WorkerMembership(
            "jitter-w", "127.0.0.1", 1, "127.0.0.1", 2)
        membership.heartbeat_interval = 1.0
        membership._rng = random.Random(1234)
        waits = [membership.next_wait() for _ in range(500)]
        assert all(0.8 <= w <= 1.2 for w in waits)
        assert max(waits) - min(waits) > 0.2  # not a constant cadence

    def test_jitter_tracks_coordinator_interval(self):
        """The spread scales with the interval the coordinator dictated
        at registration, not a hard-coded default."""
        import random

        membership = WorkerMembership(
            "jitter-w2", "127.0.0.1", 1, "127.0.0.1", 2)
        membership.heartbeat_interval = 0.05
        membership._rng = random.Random(99)
        waits = [membership.next_wait() for _ in range(200)]
        assert all(0.04 <= w <= 0.06 for w in waits)
