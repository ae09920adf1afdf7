"""The Flink batch engine: typed DataSets over the simulated cluster.

Execution mirrors the Spark engine's accounting but with Flink semantics:
rows are typed tuples, shuffles at joins and group-bys, and the data
serializer is either the **built-in** per-field serializer (with lazy
deserialization of accessed fields only) or **Skyway** (rows travel as heap
object graphs).  Flink "falls back to the Kryo serializer when encountering
a type with neither a Flink-customized nor a user-defined serializer" — the
engine keeps that fallback for non-row payloads.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import re

from repro.jvm.marshal import Obj, from_heap, to_heap_many
from repro.flink.types import FieldKind
from repro.net.cluster import Cluster, Node
from repro.net.streams import ByteInputStream, ByteOutputStream
from repro.serial.base import Serializer
from repro.simtime import Category
from repro.spark.partitioner import stable_hash
from repro.flink.types import BuiltinRowSerializer, RowType

Row = Tuple[Any, ...]


class Table:
    """A named, typed input relation."""

    def __init__(self, row_type: RowType, rows: List[Row]) -> None:
        self.row_type = row_type
        self.rows = rows

    @property
    def name(self) -> str:
        return self.row_type.name

    def __len__(self) -> int:
        return len(self.rows)


class FlinkEnvironment:
    """Cluster-bound execution environment.

    ``mode`` selects the data serializer: "builtin" (Flink's optimized
    per-field serializers) or "skyway" (requires Skyway runtimes attached
    to the cluster JVMs).
    """

    def __init__(
        self,
        cluster: Cluster,
        mode: str = "builtin",
        parallelism: Optional[int] = None,
        skyway_serializer: Optional[Serializer] = None,
        record_op_cost: float = 150e-9,
        sort_compare_cost: float = 24e-9,
        channel_overhead: float = 1.2e-6,
        network_overlap: float = 0.85,
    ) -> None:
        if mode not in ("builtin", "skyway"):
            raise ValueError(f"unknown serializer mode: {mode}")
        self.cluster = cluster
        self.mode = mode
        self.parallelism = (
            parallelism if parallelism is not None else 2 * len(cluster.workers)
        )
        self.skyway_serializer = skyway_serializer
        self.record_op_cost = record_op_cost
        self.sort_compare_cost = sort_compare_cost
        #: Per-channel setup/teardown cost (Flink result partitions are
        #: network channels, not Spark-style per-reducer disk files).
        self.channel_overhead = channel_overhead
        #: Fraction of transfer time hidden by Flink's pipelined shuffle
        #: (producers stream into channels while consumers drain them).
        self.network_overlap = network_overlap
        self._shuffle_ids = itertools.count()
        self.bytes_shuffled = 0
        self.rows_shuffled = 0

    # -- sources --------------------------------------------------------------

    def from_table(self, table: Table) -> "DataSet":
        partitions: List[List[Row]] = [[] for _ in range(self.parallelism)]
        for i, row in enumerate(table.rows):
            partitions[i % self.parallelism].append(row)
        return DataSet(self, table.row_type, partitions)

    # -- infrastructure ----------------------------------------------------------

    def node_for(self, partition: int) -> Node:
        workers = self.cluster.workers
        return workers[partition % len(workers)]

    def charge_compute(self, node: Node, rows: int) -> None:
        node.clock.charge(rows * self.record_op_cost, Category.COMPUTATION)

    # -- the shuffle -----------------------------------------------------------------

    def shuffle(
        self,
        dataset: "DataSet",
        key_fn: Callable[[Row], Any],
        accessed_fields: Optional[Sequence[int]] = None,
    ) -> List[List[Row]]:
        """Repartition rows by key hash through the serializer path.

        ``accessed_fields``: the downstream operator's field usage — what
        lazy deserialization charges for under the built-in serializer.
        """
        shuffle_id = next(self._shuffle_ids)
        n = self.parallelism
        cost = self.cluster.cost_model
        # Produce side: bucket, serialize into result-partition channels.
        channels: Dict[Tuple[int, int], Tuple[Node, bytes]] = {}
        for p, rows in enumerate(dataset.partitions):
            node = self.node_for(p)
            if rows:
                node.clock.charge(
                    len(rows) * max(1.0, math.log2(len(rows)))
                    * self.sort_compare_cost,
                    Category.COMPUTATION,
                )
            buckets: List[List[Row]] = [[] for _ in range(n)]
            for row in rows:
                buckets[stable_hash(key_fn(row)) % n].append(row)
            for r, bucket in enumerate(buckets):
                data = self._serialize_bucket(node, dataset.row_type, bucket)
                # Batch results spill through the channel's write buffer.
                node.clock.charge(
                    self.channel_overhead
                    + len(data) * cost.disk_write_per_byte,
                    Category.WRITE_IO,
                )
                channels[(p, r)] = (node, data)
                self.bytes_shuffled += len(data)
                self.rows_shuffled += len(bucket)

        # Consume side: drain channels (pipelined: most transfer time is
        # hidden behind production/consumption) + deserialize.
        out: List[List[Row]] = []
        for r in range(n):
            dst = self.node_for(r)
            rows: List[Row] = []
            for p in range(len(dataset.partitions)):
                src, data = channels[(p, r)]
                dst.clock.charge(
                    self.channel_overhead
                    + len(data) * cost.disk_read_per_byte,
                    Category.READ_IO,
                )
                if src is not dst:
                    dst.remote_bytes_fetched += len(data)
                    dst.clock.charge(
                        (1.0 - self.network_overlap)
                        * cost.network_transfer(len(data)),
                        Category.NETWORK,
                    )
                else:
                    dst.local_bytes_fetched += len(data)
                rows.extend(
                    self._deserialize_bucket(
                        dst, dataset.row_type, data, accessed_fields
                    )
                )
            out.append(rows)
        return out

    def _serialize_bucket(
        self, node: Node, row_type: RowType, bucket: List[Row]
    ) -> bytes:
        jvm = node.jvm
        if self.mode == "builtin":
            serializer = BuiltinRowSerializer(row_type)
            out = ByteOutputStream()
            with node.clock.phase(Category.SERIALIZATION):
                out.write_varint(len(bucket))
                for row in bucket:
                    serializer.write_row(out, row, jvm)
            return out.getvalue()
        # Skyway: rows become typed heap objects (Flink rows are POJOs with
        # primitive fields, not boxed tuples) and move heap-to-heap.
        # Repeated strings (flags, priorities) are shared, as interned
        # literals are on a real heap.
        assert self.skyway_serializer is not None
        class_name = _ensure_row_class(jvm, row_type)
        with node.clock.phase(Category.COMPUTATION):
            objs = [
                Obj(class_name,
                    {f"c{i}": _field_value(row_type, i, v)
                     for i, v in enumerate(row)})
                for row in bucket
            ]
            addrs = to_heap_many(jvm, objs, charge=True)
            pins = [jvm.pin(a) for a in addrs]
        try:
            with node.clock.phase(Category.SERIALIZATION):
                stream = self.skyway_serializer.new_stream(jvm)
                for pin in pins:
                    stream.write_object(pin.address)
                return stream.close()
        finally:
            for pin in pins:
                jvm.unpin(pin)

    def _deserialize_bucket(
        self,
        node: Node,
        row_type: RowType,
        data: bytes,
        accessed_fields: Optional[Sequence[int]],
    ) -> List[Row]:
        jvm = node.jvm
        if self.mode == "builtin":
            serializer = BuiltinRowSerializer(row_type)
            rows: List[Row] = []
            with node.clock.phase(Category.DESERIALIZATION):
                inp = ByteInputStream(data)
                count = inp.read_varint()
                for _ in range(count):
                    rows.append(serializer.read_row(inp, jvm, accessed_fields))
            return rows
        assert self.skyway_serializer is not None
        rows = []
        with node.clock.phase(Category.DESERIALIZATION):
            reader = self.skyway_serializer.new_reader(jvm, data)
            try:
                while reader.has_next():
                    back = from_heap(jvm, reader.read_object())
                    rows.append(_row_from_obj(row_type, back))
            finally:
                reader.close()
        return rows


class DataSet:
    """A typed, partitioned collection of rows."""

    def __init__(
        self, env: FlinkEnvironment, row_type: RowType,
        partitions: List[List[Row]],
    ) -> None:
        self.env = env
        self.row_type = row_type
        self.partitions = partitions

    # -- narrow ops -------------------------------------------------------------

    def filter(self, predicate: Callable[[Row], bool]) -> "DataSet":
        out = []
        for p, rows in enumerate(self.partitions):
            self.env.charge_compute(self.env.node_for(p), len(rows))
            out.append([row for row in rows if predicate(row)])
        return DataSet(self.env, self.row_type, out)

    def project(self, indices: Sequence[int], name: Optional[str] = None) -> "DataSet":
        new_type = self.row_type.project(indices, name)
        out = []
        for p, rows in enumerate(self.partitions):
            self.env.charge_compute(self.env.node_for(p), len(rows))
            out.append([tuple(row[i] for i in indices) for row in rows])
        return DataSet(self.env, new_type, out)

    # -- wide ops ----------------------------------------------------------------

    def join(
        self,
        other: "DataSet",
        left_key: int,
        right_key: int,
        accessed_left: Optional[Sequence[int]] = None,
        accessed_right: Optional[Sequence[int]] = None,
        name: Optional[str] = None,
    ) -> "DataSet":
        """Repartition-hash join; result rows are left fields + right fields."""
        left_parts = self.env.shuffle(self, lambda r: r[left_key], accessed_left)
        right_parts = self.env.shuffle(other, lambda r: r[right_key], accessed_right)
        joined_type = self.row_type.concat(other.row_type, name)
        out: List[List[Row]] = []
        for p in range(self.env.parallelism):
            node = self.env.node_for(p)
            left_rows = left_parts[p]
            right_rows = right_parts[p]
            self.env.charge_compute(node, len(left_rows) + len(right_rows))
            with node.clock.phase(Category.COMPUTATION):
                table: Dict[Any, List[Row]] = {}
                for row in left_rows:
                    table.setdefault(row[left_key], []).append(row)
                joined = []
                for row in right_rows:
                    for lrow in table.get(row[right_key], ()):
                        joined.append(tuple(lrow) + tuple(row))
            out.append(joined)
        return DataSet(self.env, joined_type, out)

    def group_by(
        self,
        key: Callable[[Row], Any],
        accessed_fields: Optional[Sequence[int]] = None,
    ) -> "GroupedDataSet":
        parts = self.env.shuffle(self, key, accessed_fields)
        return GroupedDataSet(self.env, self.row_type, parts, key)

    def union(self, other: "DataSet") -> "DataSet":
        """Concatenate two datasets of the same schema (no shuffle)."""
        if [k for _, k in self.row_type.fields] != [k for _, k in other.row_type.fields]:
            raise TypeError(
                f"union of incompatible schemas: {self.row_type.name} vs "
                f"{other.row_type.name}"
            )
        merged = [list(rows) for rows in self.partitions]
        for i, rows in enumerate(other.partitions):
            merged[i % len(merged)].extend(rows)
        return DataSet(self.env, self.row_type, merged)

    def first(self, n: int) -> List[Row]:
        """First n rows in partition order (Flink's first(n))."""
        out: List[Row] = []
        for rows in self.partitions:
            if len(out) >= n:
                break
            out.extend(rows)
        return out[:n]

    # -- sinks --------------------------------------------------------------------

    def collect(self) -> List[Row]:
        out: List[Row] = []
        for p, rows in enumerate(self.partitions):
            node = self.env.node_for(p)
            self.env.cluster.transfer(node, self.env.cluster.driver,
                                      48 * max(1, len(rows)))
            out.extend(rows)
        return out

    def count(self) -> int:
        return sum(len(rows) for rows in self.partitions)


class GroupedDataSet:
    """Result of group_by: per-key aggregation on the reduce side."""

    def __init__(
        self,
        env: FlinkEnvironment,
        row_type: RowType,
        partitions: List[List[Row]],
        key: Callable[[Row], Any],
    ) -> None:
        self.env = env
        self.row_type = row_type
        self.partitions = partitions
        self.key = key

    def aggregate(
        self,
        fn: Callable[[Any, List[Row]], Row],
        new_type: RowType,
    ) -> DataSet:
        """``fn(key, rows) -> result row`` per group."""
        out: List[List[Row]] = []
        for p, rows in enumerate(self.partitions):
            node = self.env.node_for(p)
            self.env.charge_compute(node, len(rows))
            with node.clock.phase(Category.COMPUTATION):
                groups: Dict[Any, List[Row]] = {}
                for row in rows:
                    groups.setdefault(self.key(row), []).append(row)
                out.append([fn(k, v) for k, v in groups.items()])
        return DataSet(self.env, new_type, out)


# ---------------------------------------------------------------------------
# typed row classes for the Skyway path
# ---------------------------------------------------------------------------

_KIND_DESCRIPTOR = {
    FieldKind.LONG: "J",
    FieldKind.INT: "I",
    FieldKind.DATE: "I",
    FieldKind.DOUBLE: "D",
    FieldKind.STRING: "Ljava.lang.String;",
}


def _row_class_name(row_type: RowType) -> str:
    safe = re.sub(r"[^A-Za-z0-9_]", "_", row_type.name)
    return f"repro.flink.rows.{safe}_{row_type.arity}"


def _ensure_row_class(jvm, row_type: RowType) -> str:
    """Define (once) the POJO row class for a schema: positional field
    names ``c0..cN`` with primitive descriptors per field kind."""
    name = _row_class_name(row_type)
    if name not in jvm.classpath:
        jvm.classpath.define(
            name,
            [(f"c{i}", _KIND_DESCRIPTOR[kind])
             for i, (_, kind) in enumerate(row_type.fields)],
        )
    return name


def _field_value(row_type: RowType, index: int, value: Any) -> Any:
    kind = row_type.fields[index][1]
    if kind is FieldKind.STRING:
        return value
    if kind is FieldKind.DOUBLE:
        return float(value)
    return int(value)


def _row_from_obj(row_type: RowType, obj: "Obj") -> Row:
    out = []
    for i, (_, kind) in enumerate(row_type.fields):
        raw = obj.fields[f"c{i}"]
        if kind is FieldKind.DOUBLE:
            out.append(float(raw))
        elif kind is FieldKind.STRING:
            out.append(raw)
        else:
            out.append(int(raw))
    return tuple(out)
