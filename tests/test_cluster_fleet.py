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
from repro.exchange.capabilities import ChannelCapabilities
from repro.policy import PolicyEngine
from repro.transport.client import WorkerClient
from repro.transport.errors import RemoteWorkerError
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

            # The cached channels were opened delta-capable under the
            # fleet's engine: asking for anything else is refused, not
            # answered with the cached channel (and a DELTA).
            with pytest.raises(ClusterConfigError, match="delta=False"):
                fleet.broadcast(
                    [root], requested=ChannelCapabilities(delta=False))
            with pytest.raises(ClusterConfigError, match="policy engine"):
                fleet.channel_to(w0, policy=PolicyEngine("always_full"))
            assert fleet.channel_to(w0, policy=fleet.engine) \
                is fleet.channel_to(w0)
        finally:
            fleet.close()


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

        # An EPOCH on a channel the coordinator never assigned must be
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
            conn = channel.client._require_conn()
            rpcs = []
            real_call = fleet.coordinator.call
            fleet.coordinator.call = lambda op, **params: (
                rpcs.append(op), real_call(op, **params))[1]
            channel.recover(channel.client, channel_id=778)
            with pytest.raises(ClusterProtocolError, match="never admitted"):
                channel.send([root])
            channel.recover(channel.client, channel_id=admitted)
            receipt = channel.send([root], digest=True)
            assert receipt.mode == "full"
            assert receipt.digest == semantic_graph_digest(
                transport_driver.jvm, [root])
            assert channel.client._require_conn() is conn
            assert rpcs == []
        finally:
            fleet.close()
