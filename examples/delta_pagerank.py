#!/usr/bin/env python
"""Delta transfer: ship an iterative algorithm's state as epochs.

Builds a heap-resident vertex graph on the Spark driver, distributes it to
the workers through the one send front door — ``sc.send(graph)`` — and
runs incremental PageRank.  Nobody picks a transfer mode here: the policy
plane plans each worker's epoch from live signals.  The first push goes
FULL (no receiver state), each ~2%-mutation superstep ships DELTA (only
the objects the write barrier saw written), a full rank sweep still rides
DELTA (it writes vertex objects, not the adjacency arrays), and when the
last step rewrites every vertex and adjacency list the policy reverts to
a plain full send on its own.

Run:  python examples/delta_pagerank.py
"""

from repro.apps.incremental import (
    IncrementalPageRank,
    build_vertex_graph,
    install_incremental_classes,
    read_ranks,
)
from repro.core.adapter import SkywaySerializer
from repro.core.runtime import attach_skyway
from repro.datasets import GRAPH_PROFILES, generate_graph
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.spark.context import SparkContext
from repro.types.corelib import standard_classpath


def main() -> None:
    # 1. A Skyway cluster whose class path knows the vertex schema.
    classpath = install_incremental_classes(standard_classpath())
    cluster = Cluster(lambda name: JVM(name, classpath=classpath),
                      worker_count=2)
    attach_skyway(cluster.driver.jvm,
                  [w.jvm for w in cluster.workers], cluster=cluster)
    sc = SparkContext(cluster, SkywaySerializer())

    # 2. The algorithm state lives on the driver heap: one DeltaVertex per
    #    vertex, mutated in place through the typed field API.
    driver = cluster.driver.jvm
    edges = generate_graph(GRAPH_PROFILES["LJ"], scale=0.15)
    graph = build_vertex_graph(driver, edges)
    pagerank = IncrementalPageRank(driver, graph)

    # 3. One front door, no mode flags: the engine plans every epoch.
    broadcast = sc.send(graph)
    report = broadcast.push()
    full_bytes = report.wire_bytes
    print(f"epoch 1 bootstrap : {report.wire_bytes:>7} bytes "
          f"({'+'.join(sorted(set(report.modes.values())))})")

    for superstep in range(1, 6):
        written = pagerank.step(active_fraction=0.02)
        report = broadcast.push()
        print(f"epoch {report.epoch} superstep : {report.wire_bytes:>7} bytes "
              f"({'+'.join(sorted(set(report.modes.values())))}, "
              f"{written} vertices written)")

    # 4. A full rank sweep writes only the vertex objects' rank slots:
    #    the epoch still ships just those objects, a fraction of the graph.
    written = pagerank.step(active_fraction=1.0)
    report = broadcast.push()
    print(f"epoch {report.epoch} rank sweep: {report.wire_bytes:>7} bytes "
          f"({'+'.join(sorted(set(report.modes.values())))}, "
          f"{written} vertices written)")
    assert set(report.modes.values()) == {"delta"}

    # 5. Saturate the mutation rate: another sweep plus a pass that
    #    rewrites every adjacency list in sorted order (the out-neighbour
    #    order PageRank ignores).  The policy falls back on its own.
    pagerank.step(active_fraction=1.0)
    heap = driver.heap
    vertices = driver.get_field(graph, "vertices")
    for v in range(driver.get_field(graph, "n")):
        adj = driver.get_field(heap.read_element(vertices, v), "adj")
        out = sorted(heap.read_element(adj, i)
                     for i in range(heap.array_length(adj)))
        for i, dst in enumerate(out):
            heap.write_element(adj, i, dst)
    report = broadcast.push()
    print(f"epoch {report.epoch} saturated : {report.wire_bytes:>7} bytes "
          f"({'+'.join(sorted(set(report.modes.values())))} — "
          f"automatic fallback)")
    assert set(report.modes.values()) == {"full"}

    # 6. Every worker holds the driver's exact rank vector, at the same
    #    local address across all delta epochs (patch-in-place).
    expected = read_ranks(driver, graph)
    for worker in cluster.workers:
        local = broadcast.value_on(worker)
        assert read_ranks(worker.jvm, local) == expected
    print(f"rank vectors identical on {len(cluster.workers)} workers: True")

    stats = next(iter(broadcast.channel_stats().values()))
    saved = 1 - stats.bytes_total / (full_bytes / 2 * len(broadcast.pushes))
    print(f"wire bytes vs full-every-epoch: {stats.bytes_total} vs "
          f"{full_bytes // 2 * len(broadcast.pushes)} per worker "
          f"({saved:.0%} saved)")
    broadcast.close()


if __name__ == "__main__":
    main()
