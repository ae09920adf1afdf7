"""Fleet-level tests against real coordinator + worker processes.

The failure matrix of §14, end to end: a worker killed mid-broadcast
fails *only* its own delivery (typed ``PeerGoneError``), a restarted
worker re-HELLOs under a fresh generation and its channel resyncs with a
forced FULL, and strict workers refuse epochs on channels the
coordinator never assigned (including the reserved id 0).
"""

import pytest

from repro.cluster import (
    ClusterConfigError,
    ClusterProtocolError,
    Fleet,
    PeerGoneError,
)
from repro.delta.channel import DeltaSendChannel
from repro.cluster.fleet import FleetChannel
from repro.policy import AlwaysFull
from repro.transport.client import WorkerClient
from repro.transport.errors import RemoteWorkerError, TransportError
from repro.transport.digest import semantic_graph_digest


def _graph(runtime, payloads=None):
    from tests.conftest import make_list

    # Big enough that mutating one node keeps the delta path cheaper than
    # a FULL resend (the policy would otherwise fall back to FULL).
    if payloads is None:
        payloads = range(200)
    return runtime.jvm.pin(make_list(runtime.jvm, payloads)).address


class TestFleetTransfers:
    def test_broadcast_and_peer_shuffle(self, make_fleet, transport_driver):
        harness = make_fleet(2)
        fleet = Fleet.connect(transport_driver, harness.coordinator.host,
                              harness.coordinator.port)
        try:
            root = _graph(transport_driver)
            epoch1 = fleet.broadcast([root])
            assert epoch1.delivered == 2 and not epoch1.failures
            assert {r.mode for r in epoch1.receipts.values()} == {"full"}
            assert len(set(epoch1.digests().values())) == 1

            # Mutate and go again: every channel must ride the delta path
            # yet still converge on one digest.
            transport_driver.jvm.set_field(root, "payload", 99)
            epoch2 = fleet.broadcast([root])
            assert {r.mode for r in epoch2.receipts.values()} == {"delta"}
            digests = set(epoch2.digests().values())
            assert len(digests) == 1 and None not in digests

            # Peer shuffle, all pairs: each worker ships its copy straight
            # to the other; the receiver's digest must equal the sender's.
            w0, w1 = harness.worker_names
            expected = semantic_graph_digest(transport_driver.jvm, [root])
            for src, dst in ((w0, w1), (w1, w0)):
                roots = epoch2.receipts[src].roots
                first = fleet.peer_transfer(src, dst, roots)
                assert first["mode"] == "full" and first["digest_match"]
                again = fleet.peer_transfer(src, dst, roots)
                assert again["mode"] == "delta" and again["digest_match"]
                assert first["digest"] == expected

            # The cached channels were opened under the fleet's policy:
            # asking for another is refused, not answered with the cached
            # channel (and a DELTA).
            for other in ("always_full", AlwaysFull()):
                with pytest.raises(ClusterConfigError, match="under policy"):
                    fleet.channel_to(w0, policy=other)
            assert fleet.channel_to(w0, policy=fleet.policy) \
                is fleet.channel_to(w0)
        finally:
            fleet.close()


class _ClosingClient:
    """A cached client whose ``close`` raises ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def close(self):
        raise self.exc


class _Coordinator:
    def close(self):
        pass


class TestFleetTeardown:
    """Dropping a client absorbs only a dead socket's ``OSError``; any
    other failure in ``WorkerClient.close`` is a bug and propagates."""

    def test_drop_client_absorbs_only_oserror(self):
        fleet = Fleet(None, _Coordinator())
        fleet._clients["w0"] = (1, _ClosingClient(OSError("reset")))
        fleet._drop_client("w0")
        assert "w0" not in fleet._clients
        fleet._clients["w1"] = (1, _ClosingClient(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            fleet._drop_client("w1")

    def test_close_absorbs_only_oserror(self):
        fleet = Fleet(None, _Coordinator())
        fleet._clients["w0"] = (1, _ClosingClient(OSError("reset")))
        fleet.close()
        assert not fleet._clients
        fleet._clients["w1"] = (1, _ClosingClient(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            fleet.close()


class _DeadWireClient:
    """Connects fine; every epoch delivery dies on the wire."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.deliveries = self.reconnects = 0
        self.admitted = []

    def deliver_epoch(self, frame, channel_id, epoch, digest=True):
        self.deliveries += 1
        raise TransportError("connection reset")

    def close(self):
        pass

    def connect(self):
        self.reconnects += 1
        return self

    def admit_channel(self, channel_id):
        self.admitted.append(channel_id)


class _AliveCoordinator:
    """Lists the worker alive at ``generation``; records what is asked."""

    def __init__(self, generation):
        self.generation = generation
        self.calls = []

    def call(self, op, **params):
        self.calls.append(op)
        if op == "lookup":
            return {"found": True, "alive": True,
                    "generation": self.generation}
        if op == "alloc_channels":
            return {"channel_ids": [4243]}
        return {}


class TestFleetChannelRetry:
    """One ``FleetChannel.send`` recovers at most once: a worker that
    accepts the reconnect but drops every send ends as ``PeerGoneError``
    after ``report_dead``, with no second recovery (in-process fakes)."""

    def _channel(self, runtime, coordinator):
        fleet = Fleet(runtime, coordinator)
        client = _DeadWireClient(runtime)
        channel = FleetChannel(fleet, "w0", client, generation=1,
                               policy=None, channel_id=4242)
        return fleet, client, channel

    def test_same_generation_retries_once(self, transport_driver):
        coordinator = _AliveCoordinator(generation=1)
        _, client, channel = self._channel(transport_driver, coordinator)
        root = _graph(transport_driver, range(5))
        try:
            with pytest.raises(PeerGoneError, match="again after recovery"):
                channel.send([root])
            assert client.reconnects == 1
            assert client.deliveries == 2
            assert coordinator.calls == ["lookup", "report_dead"]
        finally:
            channel.close()

    def test_restarted_generation_resyncs_once(self, transport_driver):
        coordinator = _AliveCoordinator(generation=2)
        fleet, client, channel = self._channel(transport_driver, coordinator)
        replacement = _DeadWireClient(transport_driver)
        fleet._clients["w0"] = (2, replacement)
        root = _graph(transport_driver, range(5))
        try:
            with pytest.raises(PeerGoneError) as excinfo:
                channel.send([root])
            assert excinfo.value.generation == 2
            assert channel.resyncs == 1
            assert channel.substrate is replacement
            assert replacement.admitted == [4243]
            assert channel.channel_id == 4243
            assert (client.deliveries, replacement.deliveries) == (1, 1)
            assert client.reconnects == replacement.reconnects == 0
            assert coordinator.calls == [
                "lookup", "lookup", "alloc_channels", "report_dead"]
        finally:
            channel.close()


class TestFleetFailures:
    def test_kill_restart_resync(self, make_fleet, transport_driver):
        harness = make_fleet(3)
        fleet = Fleet.connect(transport_driver, harness.coordinator.host,
                              harness.coordinator.port)
        try:
            root = _graph(transport_driver)
            assert fleet.broadcast([root]).delivered == 3
            victim = harness.worker_names[-1]
            survivors = harness.worker_names[:-1]

            # Kill mid-run: survivors complete, the casualty surfaces as
            # a typed PeerGoneError — never as a failed broadcast.
            harness.kill_worker(victim)
            after_kill = fleet.broadcast([root])
            assert after_kill.delivered == 2
            assert sorted(after_kill.receipts) == survivors
            assert set(after_kill.failures) == {victim}
            error = after_kill.failures[victim]
            assert isinstance(error, PeerGoneError)
            assert error.peer == victim

            # Restart: re-HELLO bumps the generation; the victim's channel
            # recovers with a forced FULL while survivors stay on deltas.
            old_generation = harness.generation_of(victim)
            harness.restart_worker(victim)
            assert harness.generation_of(victim) > old_generation
            transport_driver.jvm.set_field(root, "payload", 42)
            after_restart = fleet.broadcast([root])
            assert after_restart.delivered == 3 and not after_restart.failures
            assert after_restart.receipts[victim].mode == "full"
            assert all(after_restart.receipts[name].mode == "delta"
                       for name in survivors)
            assert fleet._channels[victim].resyncs >= 1
            digests = set(after_restart.digests().values())
            assert len(digests) == 1 and None not in digests
        finally:
            fleet.close()


class TestStrictChannels:
    def _client(self, harness, transport_driver, worker):
        handle = harness.workers[worker]
        client = WorkerClient(transport_driver, handle.host, handle.port,
                              connect_attempts=3)
        client.connect()
        return client

    def test_unassigned_and_reserved_channels_refused(
            self, make_fleet, transport_driver):
        harness = make_fleet(1)
        worker = harness.worker_names[0]
        root = _graph(transport_driver)

        # Channel id 0 is reserved coordinator-wide: even admitting it is
        # a protocol violation.
        client = self._client(harness, transport_driver, worker)
        with pytest.raises(RemoteWorkerError) as excinfo:
            client.admit_channel(0)
        assert excinfo.value.kind == "ClusterProtocolError"
        client.close()

        # An epoch on a channel the coordinator never assigned must be
        # refused before any payload is consumed.
        for channel_id in (0, 777):
            channel = DeltaSendChannel(transport_driver, worker,
                                       channel_id=channel_id)
            frame = channel.send([root])
            client = self._client(harness, transport_driver, worker)
            with pytest.raises(RemoteWorkerError) as excinfo:
                client.send_epoch(frame, channel_id, epoch=1)
            assert excinfo.value.kind == "ClusterProtocolError"
            client.close()

        # The same epoch sails through once the channel is admitted.
        client = self._client(harness, transport_driver, worker)
        client.admit_channel(777)
        channel = DeltaSendChannel(transport_driver, worker, channel_id=777)
        result = client.send_epoch(channel.send([root]), 777, epoch=1)
        assert result["digest"] == semantic_graph_digest(
            transport_driver.jvm, [root])
        client.close()

        # A fleet channel refused the same way raises the cluster's own
        # type, and — the refusal being that channel's alone — sends its
        # next admitted epoch on the connection it already had: no
        # coordinator lookup, no redial.
        fleet = Fleet.connect(transport_driver, harness.coordinator.host,
                              harness.coordinator.port)
        try:
            channel = fleet.channel_to(worker)
            admitted = channel.channel_id
            assert channel.send([root]).mode == "full"
            conn = channel.substrate._require_conn()
            rpcs = []
            real_call = fleet.coordinator.call
            fleet.coordinator.call = lambda op, **params: (
                rpcs.append(op), real_call(op, **params))[1]
            channel.recover(channel.substrate, channel_id=778)
            with pytest.raises(ClusterProtocolError, match="never admitted"):
                channel.send([root])
            channel.recover(channel.substrate, channel_id=admitted)
            receipt = channel.send([root], digest=True)
            assert receipt.mode == "full"
            assert receipt.digest == semantic_graph_digest(
                transport_driver.jvm, [root])
            assert channel.substrate._require_conn() is conn
            assert rpcs == []
        finally:
            fleet.close()
