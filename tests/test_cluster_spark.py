"""The SparkContext fleet seam: broadcast fan-out and p2p shuffle routing
ride a real coordinator + worker fleet next to the simulated cluster, and
a fleet casualty demotes fetches without failing the job."""

import pytest

from repro.cluster import Fleet
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.serial import KryoSerializer
from repro.spark.context import SparkContext

from tests.conftest import sample_classpath


@pytest.fixture
def fleet_spark(make_fleet, transport_driver):
    """A 3-node simulated cluster whose context routes through a live
    2-worker fleet (nodes map onto fleet workers round-robin)."""
    harness = make_fleet(2)
    fleet = Fleet.connect(transport_driver, harness.coordinator.host,
                          harness.coordinator.port)
    classpath = sample_classpath()
    cluster = Cluster(lambda name: JVM(name, classpath=classpath),
                      worker_count=3)
    sc = SparkContext(cluster, KryoSerializer(registration_required=False),
                      default_parallelism=4, fleet=fleet)
    yield sc, harness
    fleet.close()


def _events(sc, kind):
    return [r["details"] for r in sc.events.as_dicts()
            if r["kind"] == kind]


class TestFleetSeam:
    def test_broadcast_lands_on_every_fleet_worker(self, fleet_spark):
        sc, harness = fleet_spark
        result = sc.broadcast({"lookup": [1, 2, 3]})
        assert result.value == {"lookup": [1, 2, 3]}
        assert result.fleet_delivered == 2
        (event,) = _events(sc, "fleet_broadcast")
        assert event["delivered"] == 2 and event["failed"] == []

    def test_shuffle_routes_peer_to_peer(self, fleet_spark):
        sc, harness = fleet_spark
        pairs = [(i % 5, i) for i in range(40)]
        out = dict(sc.parallelize(pairs).reduce_by_key(
            lambda a, b: a + b).collect())
        assert out == {k: sum(i for i in range(40) if i % 5 == k)
                       for k in range(5)}
        assert sc.shuffle.fleet_routes > 0
        assert sc.shuffle.fleet_route_failures == 0
        assert sc.shuffle.fleet_route_bytes > 0
        routed = _events(sc, "fleet_shuffle_route")
        assert len(routed) == sc.shuffle.fleet_routes
        # Every route crosses two *distinct* fleet workers — same-worker
        # pairs and local fetches never touch the fabric.
        assert all(e["src"] != e["dst"] for e in routed)

    def test_dead_fleet_worker_demotes_not_fails(self, fleet_spark):
        sc, harness = fleet_spark
        harness.kill_worker(harness.worker_names[-1])
        pairs = [(i % 5, i) for i in range(40)]
        out = dict(sc.parallelize(pairs).reduce_by_key(
            lambda a, b: a + b).collect())
        # The job's answer is untouched by the fleet casualty ...
        assert out == {k: sum(i for i in range(40) if i % 5 == k)
                       for k in range(5)}
        # ... the lost routes are demoted to the simulated path, visibly.
        assert sc.shuffle.fleet_route_failures > 0
        assert _events(sc, "fleet_route_failed")
