"""The sort-based shuffle (paper §2.2: "Tungsten sort was used").

Map side, per map partition: records are sorted by key, split into
per-reducer buckets, materialized as heap object graphs, serialized with
the configured data serializer into one disk file per (map, reduce) pair.
Reduce side, per reduce partition: every map's bucket file is fetched —
local or remote (the Figure 3(b) "Local/Remote Bytes" distinction) — and
deserialized back into records.

Phase accounting matches the paper's breakdown exactly:

* sorting and bucketing → computation (map node);
* turning records into bytes → serialization (map node);
* writing bucket files → write I/O (map node);
* fetching files → read I/O + network (reduce node);
* turning bytes back into records → deserialization (reduce node).

When the serializer is Skyway, each map task opens a shuffling phase
(``shuffle_start``), mirroring the paper's one-line integration point.

With a fleet attached to the context (:mod:`repro.cluster`), every bucket
file is mirrored onto the map node's fleet worker (``put_blob``) and a
*remote* fetch also routes the bytes peer-to-peer between the two fleet
workers — worker A pushes straight to worker B, CRC-checked against the
simulated bucket, never bouncing through the driver.  A dead peer demotes
that one fetch to the simulated path (with a ``fleet_route_failed``
event); the shuffle itself never fails on a fleet casualty.
"""

from __future__ import annotations

import itertools
import math
import zlib
from typing import Any, Dict, List, Sequence, Tuple, TYPE_CHECKING

from repro.jvm.marshal import from_heap, to_heap
from repro.simtime import Category
from repro.spark.partitioner import HashPartitioner, stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.cluster import Node
    from repro.spark.context import SparkContext

Record = Tuple[Any, Any]


class ShuffleService:
    """Writes and serves shuffle files across the cluster."""

    def __init__(self, sc: "SparkContext") -> None:
        self.sc = sc
        self._ids = itertools.count()
        #: shuffle id -> {(map_partition, reduce_partition): (node, file)}
        self._index: Dict[int, Dict[Tuple[int, int], Tuple["Node", str]]] = {}
        self.records_shuffled = 0
        self.bytes_shuffled = 0
        #: Fleet routing tallies (zero without a fleet on the context).
        self.fleet_routes = 0
        self.fleet_route_bytes = 0
        self.fleet_route_failures = 0

    def new_shuffle_id(self) -> int:
        return next(self._ids)

    # ------------------------------------------------------------------
    # map side
    # ------------------------------------------------------------------

    def write_map_output(
        self,
        shuffle_id: int,
        map_partition: int,
        records: Sequence[Record],
        partitioner: HashPartitioner,
    ) -> None:
        sc = self.sc
        node = sc.node_for_partition(map_partition)
        jvm = node.jvm

        # Sort by key hash (Tungsten sorts binary prefixes), charged as
        # comparisons to computation.
        n = len(records)
        if n > 1:
            node.clock.charge(
                n * max(1.0, math.log2(n)) * sc.config.sort_compare_cost,
                Category.COMPUTATION,
            )
        ordered = sorted(records, key=lambda kv: stable_hash(kv[0]))

        buckets: List[List[Record]] = [[] for _ in range(partitioner.num_partitions)]
        for key, value in ordered:
            buckets[partitioner.partition_of(key)].append((key, value))

        files = self._index.setdefault(shuffle_id, {})
        if jvm.skyway is not None and self.sc.serializer.name == "skyway":
            # The paper's integration point: mark the shuffling phase.
            jvm.skyway.shuffle_start()
        for reduce_partition, bucket in enumerate(buckets):
            thread_id = reduce_partition % max(1, self.sc.config.shuffle_threads)
            data = self._serialize_bucket(node, bucket, thread_id)
            filename = f"shuffle-{sc.app_id}-{shuffle_id}-{map_partition}-{reduce_partition}"
            node.disk.write_file(filename, data)
            files[(map_partition, reduce_partition)] = (node, filename)
            self._mirror_to_fleet(node, filename, data)
            self.records_shuffled += len(bucket)
            self.bytes_shuffled += len(data)
            sc.events.emit(
                "shuffle_write", shuffle_id=shuffle_id,
                map_partition=map_partition,
                reduce_partition=reduce_partition,
                node=node.name, records=len(bucket), bytes=len(data),
            )

    def _serialize_bucket(self, node: "Node", bucket: Sequence[Record],
                          thread_id: int = 0) -> bytes:
        jvm = node.jvm
        with node.clock.phase(Category.COMPUTATION):
            # Records exist as objects before serialization in real Spark;
            # materialization is charged as (cheap) computation here.
            pins = [jvm.pin(to_heap(jvm, record, charge=True)) for record in bucket]
        try:
            with node.clock.phase(Category.SERIALIZATION):
                node.clock.charge(len(pins) * self.sc.config.record_ser_overhead)
                stream = self.sc.serializer.new_stream(jvm, thread_id=thread_id)
                for pin in pins:
                    stream.write_object(pin.address)
                return stream.close()
        finally:
            for pin in pins:
                jvm.unpin(pin)

    # ------------------------------------------------------------------
    # reduce side
    # ------------------------------------------------------------------

    def read_reduce_input(
        self, shuffle_id: int, reduce_partition: int, num_map_partitions: int
    ) -> List[Record]:
        sc = self.sc
        dst = sc.node_for_partition(reduce_partition)
        out: List[Record] = []
        files = self._index.get(shuffle_id, {})
        for map_partition in range(num_map_partitions):
            entry = files.get((map_partition, reduce_partition))
            if entry is None:
                continue
            src, filename = entry
            data = self._fetch(src, dst, filename)
            sc.events.emit(
                "shuffle_fetch", shuffle_id=shuffle_id,
                map_partition=map_partition,
                reduce_partition=reduce_partition,
                src=src.name, dst=dst.name, bytes=len(data),
                remote=src is not dst,
            )
            out.extend(self._deserialize_bucket(dst, data))
        return out

    def _mirror_to_fleet(self, node: "Node", filename: str,
                         data: bytes) -> None:
        """Land the bucket bytes on the map node's fleet worker, so a
        later remote fetch can route peer-to-peer.  Best-effort: a fleet
        casualty here only disables p2p for this bucket."""
        sc = self.sc
        worker = sc.fleet_worker_for(node)
        if worker is None:
            return
        from repro.transport.errors import ClusterError

        try:
            sc.fleet.put_blob(worker, filename, data)
        except ClusterError as exc:
            self.fleet_route_failures += 1
            sc.events.emit(
                "fleet_route_failed", op="put_blob", worker=worker,
                file=filename, error=type(exc).__name__,
            )

    def _fetch(self, src: "Node", dst: "Node", filename: str) -> bytes:
        data = bytes(src.disk.open(filename).data)
        # The reducer pays the read; remote fetches also pay the network
        # (folded into read I/O in reports, as in the paper).
        dst.clock.charge(dst.disk._cost.disk_read(len(data)), Category.READ_IO)
        dst.disk.bytes_read += len(data)
        self.sc.cluster.transfer(src, dst, len(data))
        if src is not dst:
            self._route_via_fleet(src, dst, filename, data)
        return data

    def _route_via_fleet(self, src: "Node", dst: "Node", filename: str,
                         data: bytes) -> None:
        """The p2p mirror of a remote fetch: the source node's fleet
        worker pushes the bucket straight to the destination's, and the
        peer's CRC must match the simulated bytes.  A gone peer demotes
        this one fetch to the simulated path; the shuffle completes."""
        sc = self.sc
        src_worker = sc.fleet_worker_for(src)
        dst_worker = sc.fleet_worker_for(dst)
        if src_worker is None or dst_worker is None \
                or src_worker == dst_worker:
            return
        from repro.transport.errors import ClusterError

        try:
            result = sc.fleet.peer_blob(src_worker, dst_worker, filename)
        except ClusterError as exc:
            self.fleet_route_failures += 1
            sc.events.emit(
                "fleet_route_failed", op="peer_blob", src=src_worker,
                dst=dst_worker, file=filename, error=type(exc).__name__,
            )
            return
        if result["crc32"] != zlib.crc32(data):
            raise RuntimeError(
                f"fleet p2p route delivered different bytes for "
                f"{filename}: peer CRC {result['crc32']:#x}, "
                f"simulated {zlib.crc32(data):#x}"
            )
        self.fleet_routes += 1
        self.fleet_route_bytes += len(data)
        sc.events.emit(
            "fleet_shuffle_route", src=src_worker, dst=dst_worker,
            file=filename, bytes=len(data),
        )

    def _deserialize_bucket(self, node: "Node", data: bytes) -> List[Record]:
        jvm = node.jvm
        records: List[Record] = []
        with node.clock.phase(Category.DESERIALIZATION):
            reader = self.sc.serializer.new_reader(jvm, data)
            try:
                while reader.has_next():
                    records.append(from_heap(jvm, reader.read_object()))
            finally:
                reader.close()
            node.clock.charge(len(records) * self.sc.config.record_des_overhead)
        return records
