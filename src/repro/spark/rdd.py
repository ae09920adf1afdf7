"""RDDs: lazily evaluated, partitioned collections with lineage.

Narrow transformations (map/filter/flatMap/mapValues/mapPartitions) pipeline
within a stage on the partition's executor node.  Wide transformations
(reduceByKey/groupByKey/join/distinct/sortByKey) introduce a shuffle
dependency: computing a reduce partition forces every parent partition's map
output first (a stage boundary).  ``cache()`` keeps computed partitions on
their executor, as iterative workloads (PageRank) rely on.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.simtime import Category
from repro.spark.partitioner import HashPartitioner

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext

Record = Any
Pair = Tuple[Any, Any]


class RDD:
    """Base class: lineage node with ``num_partitions`` partitions."""

    def __init__(self, sc: "SparkContext", num_partitions: int) -> None:
        self.sc = sc
        self.id = sc.next_rdd_id()
        self.num_partitions = num_partitions
        self._cached = False
        self._cache_store: Dict[int, List[Record]] = {}

    # -- to be provided by subclasses ----------------------------------------

    def compute(self, partition: int) -> List[Record]:
        raise NotImplementedError

    # -- evaluation -----------------------------------------------------------

    def partition_values(self, partition: int) -> List[Record]:
        if self._cached and partition in self._cache_store:
            self.sc.events.emit("cache_hit", rdd=self.id, partition=partition)
            return self._cache_store[partition]
        values = self.compute(partition)
        self.sc.tasks_run += 1
        self.sc.events.emit(
            "task", rdd=self.id, partition=partition,
            node=self.sc.node_for_partition(partition).name,
            records=len(values), op=type(self).__name__,
        )
        if self._cached:
            self._cache_store[partition] = values
        return values

    def describe(self) -> str:
        """A lineage description (Spark's toDebugString): this RDD and its
        ancestry, one per line, marking shuffle boundaries and caching."""
        lines: List[str] = []
        self._describe_into(lines, depth=0)
        return "\n".join(lines)

    def _describe_into(self, lines: List[str], depth: int) -> None:
        label = getattr(self, "name", None) or getattr(self, "op_name", None) \
            or type(self).__name__
        cached = " [cached]" if self._cached else ""
        lines.append(f"{'  ' * depth}({self.num_partitions}) "
                     f"#{self.id} {label}{cached}")
        for parent in self._parents():
            parent._describe_into(lines, depth + 1)

    def _parents(self) -> List["RDD"]:
        out: List[RDD] = []
        for attr in ("parent", "left", "right",
                     "left_shuffled", "right_shuffled"):
            node = getattr(self, attr, None)
            if node is not None:
                out.append(node)
        return out

    def cache(self) -> "RDD":
        self._cached = True
        return self

    # -- narrow transformations --------------------------------------------------

    def map(self, fn: Callable[[Record], Record], name: str = "map") -> "RDD":
        return MappedRDD(self, lambda it: [fn(x) for x in it], name, ops_per_record=1)

    def flat_map(self, fn: Callable[[Record], Iterable[Record]],
                 name: str = "flatMap") -> "RDD":
        def apply(items: List[Record]) -> List[Record]:
            out: List[Record] = []
            for item in items:
                out.extend(fn(item))
            return out
        return MappedRDD(self, apply, name, ops_per_record=1)

    def filter(self, fn: Callable[[Record], bool], name: str = "filter") -> "RDD":
        return MappedRDD(self, lambda it: [x for x in it if fn(x)], name, 1)

    def map_values(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda kv: (kv[0], fn(kv[1])), name="mapValues")

    def map_partitions(
        self, fn: Callable[[List[Record]], List[Record]], name: str = "mapPartitions"
    ) -> "RDD":
        return MappedRDD(self, fn, name, ops_per_record=1)

    # -- wide transformations ---------------------------------------------------

    def reduce_by_key(
        self, fn: Callable[[Any, Any], Any], num_partitions: Optional[int] = None
    ) -> "RDD":
        return ShuffledRDD(self, num_partitions, combiner=fn, op_name="reduceByKey")

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        return ShuffledRDD(self, num_partitions, combiner=None, op_name="groupByKey")

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        keyed = self.map(lambda x: (x, None), name="distinct-key")
        reduced = keyed.reduce_by_key(lambda a, b: a, num_partitions)
        return reduced.map(lambda kv: kv[0], name="distinct-unkey")

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        return JoinedRDD(self, other, num_partitions)

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self, other)

    def aggregate_by_key(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """Per-key aggregation with distinct in-partition and merge
        functions (Spark's aggregateByKey): seq folds values into the
        accumulator map-side, comb merges accumulators reduce-side."""
        seeded = self.map(lambda kv: (kv[0], seq_fn(zero, kv[1])),
                          name="aggregate-seed")
        return ShuffledRDD(seeded, num_partitions, combiner=comb_fn,
                           op_name="aggregateByKey")

    def sort_by_key(self, ascending: bool = True,
                    num_partitions: Optional[int] = None) -> "RDD":
        """Total ordering via shuffle + per-partition sort + driver-side
        concatenation order (range partitioning simplified to hash
        partitions sorted at collect)."""
        shuffled = ShuffledRDD(self, num_partitions, combiner=None,
                               op_name="sortByKey", flatten_groups=True)
        return shuffled.map_partitions(
            lambda records: sorted(records, key=lambda kv: kv[0],
                                   reverse=not ascending),
            name="sort-partition",
        )

    def cogroup(self, other: "RDD",
                num_partitions: Optional[int] = None) -> "RDD":
        """(key, ([left values], [right values])) for every key present on
        either side (Spark's cogroup / CoGroupedRDD)."""
        tagged = self.map(lambda kv: (kv[0], (0, kv[1])), name="cogroup-l") \
            .union(other.map(lambda kv: (kv[0], (1, kv[1])), name="cogroup-r"))
        grouped = tagged.group_by_key(num_partitions)

        def split(kv):
            key, tagged_values = kv
            left = [v for tag, v in tagged_values if tag == 0]
            right = [v for tag, v in tagged_values if tag == 1]
            return (key, (left, right))

        return grouped.map(split, name="cogroup-split")

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Deterministic Bernoulli sample (seeded per partition)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")

        def sample_partition(records: List[Record]) -> List[Record]:
            import random as _random
            rng = _random.Random(seed)
            return [r for r in records if rng.random() < fraction]

        return self.map_partitions(sample_partition, name="sample")

    # -- actions ------------------------------------------------------------------

    def collect(self) -> List[Record]:
        """Gather all partitions at the driver (the paper's ``collect``)."""
        out: List[Record] = []
        for p in range(self.num_partitions):
            values = self.partition_values(p)
            node = self.sc.node_for_partition(p)
            # Results return to the driver through the data serializer path
            # in real Spark; the volume is tiny next to shuffles, so only
            # network movement is modeled here.
            self.sc.cluster.transfer(node, self.sc.cluster.driver,
                                     64 * max(1, len(values)))
            out.extend(values)
        return out

    def count(self) -> int:
        total = 0
        for p in range(self.num_partitions):
            total += len(self.partition_values(p))
        return total

    def take(self, n: int) -> List[Record]:
        """First n records, scanning partitions until satisfied (Spark
        launches incremental jobs; computed partitions stop early here)."""
        out: List[Record] = []
        for p in range(self.num_partitions):
            if len(out) >= n:
                break
            out.extend(self.partition_values(p))
        return out[:n]

    def first(self) -> Record:
        result = self.take(1)
        if not result:
            raise ValueError("first() on an empty RDD")
        return result[0]

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        sentinel = object()
        acc: Any = sentinel
        for p in range(self.num_partitions):
            for value in self.partition_values(p):
                acc = value if acc is sentinel else fn(acc, value)
        if acc is sentinel:
            raise ValueError("reduce of empty RDD")
        return acc


class ParallelizedRDD(RDD):
    """Driver-provided data, range-partitioned across executors."""

    def __init__(self, sc: "SparkContext", items: List[Record], n: int) -> None:
        super().__init__(sc, n)
        self._slices: List[List[Record]] = [[] for _ in range(n)]
        for i, item in enumerate(items):
            self._slices[i % n].append(item)

    def compute(self, partition: int) -> List[Record]:
        return list(self._slices[partition])


class MappedRDD(RDD):
    """A pipelined narrow transformation."""

    def __init__(
        self,
        parent: RDD,
        apply: Callable[[List[Record]], List[Record]],
        name: str,
        ops_per_record: int,
    ) -> None:
        super().__init__(parent.sc, parent.num_partitions)
        self.parent = parent
        self.apply = apply
        self.name = name
        self.ops_per_record = ops_per_record

    def compute(self, partition: int) -> List[Record]:
        inputs = self.parent.partition_values(partition)
        node = self.sc.node_for_partition(partition)
        self.sc.closures.ship(self.id, self.id, self.name, node)
        self.sc.charge_compute(node, len(inputs), self.ops_per_record)
        with node.clock.phase(Category.COMPUTATION):
            return self.apply(inputs)


class UnionRDD(RDD):
    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(left.sc, left.num_partitions + right.num_partitions)
        self.left = left
        self.right = right

    def compute(self, partition: int) -> List[Record]:
        if partition < self.left.num_partitions:
            return self.left.partition_values(partition)
        return self.right.partition_values(partition - self.left.num_partitions)


class ShuffledRDD(RDD):
    """A wide dependency: map outputs are shuffled and (optionally)
    combined; produces ``(key, value)`` or ``(key, [values])`` records."""

    def __init__(
        self,
        parent: RDD,
        num_partitions: Optional[int],
        combiner: Optional[Callable[[Any, Any], Any]],
        op_name: str,
        flatten_groups: bool = False,
    ) -> None:
        n = num_partitions if num_partitions is not None else parent.num_partitions
        super().__init__(parent.sc, n)
        self.parent = parent
        self.combiner = combiner
        self.op_name = op_name
        self.flatten_groups = flatten_groups
        self.partitioner = HashPartitioner(n)
        self._shuffle_id: Optional[int] = None

    # -- map stage ---------------------------------------------------------------

    def _ensure_map_outputs(self) -> int:
        if self._shuffle_id is not None:
            return self._shuffle_id
        self._shuffle_id = self.sc.shuffle.new_shuffle_id()
        for p in range(self.parent.num_partitions):
            records = self.parent.partition_values(p)
            node = self.sc.node_for_partition(p)
            self.sc.closures.ship(self.id, self.id, f"{self.op_name}-map", node)
            if self.combiner is not None and self.sc.config.map_side_combine:
                records = self._combine(records, node)
            self.sc.shuffle.write_map_output(
                self._shuffle_id, p, records, self.partitioner
            )
        return self._shuffle_id

    def _combine(self, records: Sequence[Pair], node) -> List[Pair]:
        self.sc.charge_compute(node, len(records))
        with node.clock.phase(Category.COMPUTATION):
            acc: Dict[Any, Any] = {}
            for key, value in records:
                if key in acc:
                    acc[key] = self.combiner(acc[key], value)  # type: ignore[misc]
                else:
                    acc[key] = value
            return list(acc.items())

    # -- reduce stage -----------------------------------------------------------

    def compute(self, partition: int) -> List[Record]:
        shuffle_id = self._ensure_map_outputs()
        node = self.sc.node_for_partition(partition)
        self.sc.closures.ship(self.id, self.id, f"{self.op_name}-reduce", node)
        records = self.sc.shuffle.read_reduce_input(
            shuffle_id, partition, self.parent.num_partitions
        )
        self.sc.charge_compute(node, len(records))
        with node.clock.phase(Category.COMPUTATION):
            if self.combiner is not None:
                acc: Dict[Any, Any] = {}
                for key, value in records:
                    if key in acc:
                        acc[key] = self.combiner(acc[key], value)
                    else:
                        acc[key] = value
                return list(acc.items())
            if self.flatten_groups:
                return records
            groups: Dict[Any, List[Any]] = {}
            for key, value in records:
                groups.setdefault(key, []).append(value)
            return list(groups.items())


class JoinedRDD(RDD):
    """Inner join of two pair RDDs (both sides shuffle)."""

    def __init__(self, left: RDD, right: RDD, num_partitions: Optional[int]) -> None:
        n = num_partitions if num_partitions is not None else max(
            left.num_partitions, right.num_partitions
        )
        super().__init__(left.sc, n)
        # Tag records so one shuffle carries both sides, like Spark's
        # CoGroupedRDD over a shared partitioner.
        self.left_shuffled = ShuffledRDD(
            left.map(lambda kv: (kv[0], (0, kv[1])), name="join-tag-left"),
            n, combiner=None, op_name="join-left", flatten_groups=True,
        )
        self.right_shuffled = ShuffledRDD(
            right.map(lambda kv: (kv[0], (1, kv[1])), name="join-tag-right"),
            n, combiner=None, op_name="join-right", flatten_groups=True,
        )

    def compute(self, partition: int) -> List[Record]:
        left = self.left_shuffled.partition_values(partition)
        right = self.right_shuffled.partition_values(partition)
        node = self.sc.node_for_partition(partition)
        self.sc.charge_compute(node, len(left) + len(right))
        with node.clock.phase(Category.COMPUTATION):
            left_groups: Dict[Any, List[Any]] = {}
            for key, (_, value) in left:
                left_groups.setdefault(key, []).append(value)
            out: List[Record] = []
            for key, (_, value) in right:
                for lv in left_groups.get(key, ()):
                    out.append((key, (lv, value)))
            return out
