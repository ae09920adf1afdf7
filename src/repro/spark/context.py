"""SparkContext: the driver-side entry point of the RDD engine."""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro import obs
from repro.exchange.service import Exchange
from repro.jvm.marshal import from_heap, to_heap
from repro.net.cluster import Cluster, Node
from repro.serial.base import Serializer
from repro.serial.java_serializer import JavaSerializer
from repro.simtime import Category
from repro.spark.closure import ClosureShipper
from repro.spark.events import EventLog
from repro.spark.rdd import ParallelizedRDD, RDD
from repro.spark.shuffle import ShuffleService


@dataclasses.dataclass(frozen=True)
class SparkConfig:
    """Engine knobs (the relevant subset of spark.* configuration).

    The per-record op cost calibrates the computation share of runtime so
    that S/D lands near the paper's ~30% under Kryo/Java (Figure 3).
    """

    #: Simulated seconds of user computation per record per narrow op.
    record_op_cost: float = 2200e-9
    #: Simulated seconds per comparison in the sort-based shuffle.
    sort_compare_cost: float = 60e-9
    #: Serializer-independent per-record shuffle-write machinery
    #: (SerializationStream wrapper, batching, spill bookkeeping): charged
    #: to serialization for every serializer, which is why Spark-level S/D
    #: ratios between libraries are far more compressed than JSBS
    #: micro-benchmark ratios (paper Table 2 vs Figure 7).
    record_ser_overhead: float = 800e-9
    #: Serializer-independent per-record shuffle-read machinery.
    record_des_overhead: float = 350e-9
    #: Simulated sender threads per map task.  Each reduce bucket is
    #: written by thread (bucket mod threads), exercising Skyway's
    #: per-thread buffers and shared-object handling (paper §4.2).
    shuffle_threads: int = 1
    #: Map-side combine for reduceByKey (Spark default: on).
    map_side_combine: bool = True


@dataclasses.dataclass(frozen=True)
class Broadcast:
    """A broadcast variable: the driver's value, readable on any executor."""

    value: Any
    wire_bytes: int
    #: Real fleet workers the payload also landed on (0 without a fleet).
    fleet_delivered: int = 0


class SparkContext:
    """The driver program's handle on the cluster.

    ``serializer`` is the *data* serializer (``spark.serializer``); closures
    always use the Java serializer, as in the paper's experimental setup.
    """

    _id_counter = itertools.count()

    def __init__(
        self,
        cluster: Cluster,
        serializer: Serializer,
        default_parallelism: Optional[int] = None,
        config: Optional[SparkConfig] = None,
        exchange: Optional[Exchange] = None,
        fleet=None,
    ) -> None:
        self.cluster = cluster
        self.serializer = serializer
        #: The data-movement substrate.  Default: the in-process loopback
        #: exchange over the simulated wire; pass
        #: ``Exchange.socket(cluster, clients)`` to move broadcast blobs,
        #: epochs and parallel streams through real worker processes.
        self.exchange = (exchange if exchange is not None
                         else Exchange.loopback(cluster))
        #: The N-node fabric seam (:class:`repro.cluster.fleet.Fleet`).
        #: When set, broadcast payloads fan out to every registered fleet
        #: worker and remote shuffle fetches route peer-to-peer between
        #: fleet workers instead of bouncing through the driver.
        self.fleet = fleet
        self._fleet_names: Optional[List[str]] = None
        self.config = config if config is not None else SparkConfig()
        self.default_parallelism = (
            default_parallelism
            if default_parallelism is not None
            else 2 * len(cluster.workers)
        )
        self.app_id = next(self._id_counter)
        self._rdd_ids = itertools.count()
        self.shuffle = ShuffleService(self)
        self.closures = ClosureShipper(self)
        self.events = EventLog()
        #: (stage, partition) pairs executed, for test introspection.
        self.tasks_run = 0
        # The engine's event ledger feeds the obs snapshot; app_id keys
        # the source so concurrent contexts don't collide.
        obs.registry().register_source(
            f"spark.events.app{self.app_id}", self.events.as_dicts
        )

    # -- RDD creation -----------------------------------------------------------

    def parallelize(
        self, data: Iterable[Any], num_partitions: Optional[int] = None
    ) -> RDD:
        items = list(data)
        n = num_partitions if num_partitions is not None else self.default_parallelism
        n = max(1, min(n, max(1, len(items))))
        return ParallelizedRDD(self, items, n)

    def text_file(self, lines: Sequence[str], num_partitions: Optional[int] = None) -> RDD:
        """The moral equivalent of ``sc.textFile``: a pre-read line list."""
        return self.parallelize(list(lines), num_partitions)

    # -- infrastructure used by RDDs -----------------------------------------------

    def next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def broadcast(self, value: Any) -> "Broadcast":
        """Ship a read-only value to every executor once (Spark broadcast
        variables travel through the closure/JavaSerializer path)."""
        serializer = JavaSerializer()
        driver = self.cluster.driver
        with obs.span("spark.broadcast",
                      clock=driver.clock, app=self.app_id) as sp:
            addr = to_heap(driver.jvm, value)
            with obs.span("send.serialize", clock=driver.clock), \
                    driver.clock.phase(Category.SERIALIZATION):
                data = serializer.serialize(driver.jvm, addr)
            sp.set(wire_bytes=len(data), workers=len(self.cluster.workers))
            for worker in self.cluster.workers:
                self.exchange.transfer_blob(driver, worker, data)
                with obs.span("recv.deserialize", clock=worker.clock,
                              worker=worker.name), \
                        worker.clock.phase(Category.DESERIALIZATION):
                    reader = serializer.new_reader(worker.jvm, data)
                    received = reader.read_object()
                    local = from_heap(worker.jvm, received)
                    reader.close()
            fleet_delivered = 0
            if self.fleet is not None:
                # The fabric seam: the same payload lands on every live
                # fleet worker process; a dead peer never fails the
                # broadcast (survivors complete, casualties are logged).
                fleet_result = self.fleet.broadcast_blob(data)
                fleet_delivered = fleet_result.delivered
                sp.set(fleet_delivered=fleet_delivered,
                       fleet_failed=len(fleet_result.failures))
                self.events.emit(
                    "fleet_broadcast", bytes=len(data),
                    delivered=fleet_delivered,
                    failed=sorted(fleet_result.failures),
                )
        return Broadcast(value, len(data), fleet_delivered)

    def send(self, roots, policy=None, workers=None, requested=None):
        """Ship driver-heap object graphs to the workers, mode per the
        policy plane: each ``push()`` plans every worker's epoch (full,
        delta, kernel traversal, parallel streams, digest) from that
        channel's live signals — no per-call mode flags.  ``policy``
        accepts a name (``"adaptive"``, ``"crossover"``, ``"full"``,
        ``"delta"``), a :class:`~repro.policy.policies.DecisionTable`, or
        a shared :class:`~repro.policy.engine.PolicyEngine`; default
        adaptive.  Returns a :class:`~repro.spark.send.PolicySend`."""
        from repro.spark.send import PolicySend

        return PolicySend(
            self.cluster, roots, policy=policy, exchange=self.exchange,
            workers=workers, requested=requested,
        )

    def node_for_partition(self, partition: int) -> Node:
        workers = self.cluster.workers
        return workers[partition % len(workers)]

    def fleet_worker_for(self, node: Node) -> Optional[str]:
        """The fleet worker standing in for a simulated node (round-robin
        by worker index), or None when no fleet is attached."""
        if self.fleet is None:
            return None
        if self._fleet_names is None:
            self._fleet_names = sorted(
                record["name"] for record in self.fleet.workers()
            )
        if not self._fleet_names:
            return None
        workers = self.cluster.workers
        try:
            index = workers.index(node)
        except ValueError:  # the driver node has no fleet twin
            return None
        return self._fleet_names[index % len(self._fleet_names)]

    def charge_compute(self, node: Node, records: int, ops: int = 1) -> None:
        node.clock.charge(records * ops * self.config.record_op_cost)
