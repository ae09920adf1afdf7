"""Tests for heap-resident incremental PageRank/CC and their delta wiring."""

import pytest

from repro.apps.incremental import (
    IncrementalConnectedComponents,
    IncrementalPageRank,
    build_vertex_graph,
    install_incremental_classes,
    read_labels,
    read_ranks,
)
from repro.core.adapter import SkywaySerializer
from repro.core.runtime import attach_skyway
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.spark.context import SparkContext
from repro.types.classdef import ClassPath
from repro.types.corelib import install_core_classes

EDGES = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (5, 6)]


def reference_pagerank(edges, n, iterations, damping=0.85):
    out = {v: [] for v in range(n)}
    for u, v in edges:
        out[u].append(v)
    ranks = [1.0] * n
    for _ in range(iterations):
        incoming = [0.0] * n
        for u in range(n):
            if out[u]:
                share = ranks[u] / len(out[u])
                for v in out[u]:
                    incoming[v] += share
        ranks = [(1 - damping) + damping * incoming[v] for v in range(n)]
    return ranks


@pytest.fixture
def classpath_delta():
    return install_incremental_classes(install_core_classes(ClassPath()))


@pytest.fixture
def jvm_delta(classpath_delta):
    return JVM("apps-jvm", classpath=classpath_delta)


class TestVertexGraph:
    def test_structure(self, jvm_delta):
        jvm = jvm_delta
        graph = build_vertex_graph(jvm, EDGES)
        assert jvm.get_field(graph, "n") == 7
        assert read_ranks(jvm, graph) == [1.0] * 7
        assert read_labels(jvm, graph) == list(range(7))

    def test_adjacency_preserved(self, jvm_delta):
        jvm = jvm_delta
        graph = build_vertex_graph(jvm, EDGES)
        vertices = jvm.get_field(graph, "vertices")
        v0 = jvm.heap.read_element(vertices, 0)
        adj = jvm.get_field(v0, "adj")
        out0 = sorted(
            jvm.heap.read_element(adj, i)
            for i in range(jvm.heap.array_length(adj))
        )
        assert out0 == [1, 3]


class TestIncrementalPageRank:
    def test_full_sweep_matches_reference(self, jvm_delta):
        jvm = jvm_delta
        graph = build_vertex_graph(jvm, EDGES)
        pin = jvm.pin(graph)
        pagerank = IncrementalPageRank(jvm, graph)
        # In-place sweeps (Gauss–Seidel order) and the synchronous
        # reference (Jacobi) share a unique fixed point; compare there.
        for _ in range(200):
            pagerank.step(active_fraction=1.0)
        expected = reference_pagerank(EDGES, 7, iterations=400)
        got = read_ranks(jvm, graph)
        assert got == pytest.approx(expected, abs=1e-6)
        jvm.unpin(pin)

    def test_active_fraction_bounds_writes(self, jvm_delta):
        jvm = jvm_delta
        graph = build_vertex_graph(jvm, EDGES)
        pagerank = IncrementalPageRank(jvm, graph)
        written = pagerank.step(active_fraction=1 / 7)
        assert written <= 1

    def test_rotating_window_covers_all_vertices(self, jvm_delta):
        jvm = jvm_delta
        graph = build_vertex_graph(jvm, EDGES)
        pagerank = IncrementalPageRank(jvm, graph)
        for _ in range(7):
            pagerank.step(active_fraction=1 / 7)
        # After n steps of 1/n, every rank was recomputed at least once:
        # vertex 5 has no in-edges, so its rank hit the damping floor.
        ranks = read_ranks(jvm, graph)
        assert ranks[5] == pytest.approx(0.15)


class TestIncrementalCC:
    def test_labels_converge_to_component_minima(self, jvm_delta):
        jvm = jvm_delta
        graph = build_vertex_graph(jvm, EDGES)
        cc = IncrementalConnectedComponents(jvm, graph)
        steps = cc.run_to_convergence()
        assert steps < 64
        assert read_labels(jvm, graph) == [0, 0, 0, 0, 0, 5, 5]

    def test_quiescent_after_convergence(self, jvm_delta):
        jvm = jvm_delta
        graph = build_vertex_graph(jvm, EDGES)
        cc = IncrementalConnectedComponents(jvm, graph)
        cc.run_to_convergence()
        assert cc.step() == 0


class TestDeltaBroadcast:
    def make_cluster(self, classpath, workers=2):
        cluster = Cluster(lambda name: JVM(name, classpath=classpath),
                          worker_count=workers)
        attach_skyway(cluster.driver.jvm,
                      [w.jvm for w in cluster.workers], cluster=cluster)
        return cluster

    def test_workers_track_driver_state(self, classpath_delta):
        cluster = self.make_cluster(classpath_delta)
        sc = SparkContext(cluster, SkywaySerializer())
        driver = cluster.driver.jvm
        graph = build_vertex_graph(driver, EDGES)
        cc = IncrementalConnectedComponents(driver, graph)
        broadcast = sc.send(graph, policy="crossover")

        first = broadcast.push()
        assert set(first.modes.values()) == {"full"}
        while cc.step():
            report = broadcast.push()
            assert set(report.modes.values()) <= {"full", "delta"}
        final = broadcast.push()

        expected = read_labels(driver, graph)
        for worker in cluster.workers:
            local = broadcast.value_on(worker)
            assert read_labels(worker.jvm, local) == expected
        assert broadcast.wire_bytes > 0
        broadcast.close()

    def test_delta_epochs_cheaper_than_bootstrap(self, classpath_delta):
        cluster = self.make_cluster(classpath_delta, workers=1)
        sc = SparkContext(cluster, SkywaySerializer())
        driver = cluster.driver.jvm
        edges = [(i, (i + 1) % 120) for i in range(120)]  # one big ring
        graph = build_vertex_graph(driver, edges)
        pagerank = IncrementalPageRank(driver, graph)
        broadcast = sc.send(graph, policy="crossover")
        bootstrap = broadcast.push()
        pagerank.step(active_fraction=0.02)
        update = broadcast.push()
        assert set(update.modes.values()) == {"delta"}
        assert update.wire_bytes < bootstrap.wire_bytes / 5
        broadcast.close()
