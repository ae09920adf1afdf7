"""End-to-end policy plane: ``sc.send`` over the loopback cluster, the
adaptive policy against the static policies, and the per-channel
mutation-rate / bytes-per-epoch gauges."""

import pytest

from repro import obs
from repro.apps.incremental import (
    IncrementalPageRank,
    build_vertex_graph,
    install_incremental_classes,
    read_ranks,
)
from repro.core.adapter import SkywaySerializer
from repro.core.runtime import attach_skyway
from repro.delta.channel import DeltaSendChannel
from repro.exchange import Exchange
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.policy import AdaptivePolicy
from repro.spark.context import SparkContext
from repro.types.classdef import ClassPath
from repro.types.corelib import install_core_classes

# A ring alone is a PageRank fixed point (every rank stays 1.0, nothing
# ever dirties); the hub/spoke edges make every sweep move real bytes.
N = 120
EDGES = (
    [(i, (i + 1) % N) for i in range(N)]
    + [(0, j) for j in range(2, 40)]
    + [(j, 0) for j in range(40, 80)]
)


def rewrite_adjacency(jvm, graph):
    """Store every adjacency slot again: after a full rank sweep, every
    vertex and every non-empty adjacency array has been written."""
    heap = jvm.heap
    vertices = jvm.get_field(graph, "vertices")
    for v in range(jvm.get_field(graph, "n")):
        adj = jvm.get_field(heap.read_element(vertices, v), "adj")
        for i in range(heap.array_length(adj)):
            heap.write_element(adj, i, heap.read_element(adj, i))


@pytest.fixture
def classpath():
    return install_incremental_classes(install_core_classes(ClassPath()))


def make_context(classpath, workers=2):
    cluster = Cluster(lambda name: JVM(name, classpath=classpath),
                      worker_count=workers)
    attach_skyway(cluster.driver.jvm,
                  [w.jvm for w in cluster.workers], cluster=cluster)
    return cluster, SparkContext(cluster, SkywaySerializer())


class TestPolicySend:
    def test_adaptive_lifecycle_with_parity(self, classpath):
        """Bootstrap FULL, sparse step delta, saturated step FULL — the
        worker copy byte-tracks the driver at every point."""
        cluster, sc = make_context(classpath)
        driver = cluster.driver.jvm
        graph = build_vertex_graph(driver, EDGES)
        pagerank = IncrementalPageRank(driver, graph)
        send = sc.send(graph)
        try:
            bootstrap = send.push()
            assert set(bootstrap.modes.values()) == {"full"}

            pagerank.step(active_fraction=0.02)
            sparse = send.push()
            assert set(sparse.modes.values()) == {"delta"}
            assert sparse.wire_bytes < bootstrap.wire_bytes / 5

            pagerank.step(active_fraction=1.0)
            saturated = send.push()
            assert set(saturated.modes.values()) == {"full"}

            expected = read_ranks(driver, graph)
            for worker in cluster.workers:
                local = send.value_on(worker)
                assert read_ranks(worker.jvm, local) == expected
        finally:
            send.close()

    def test_adaptive_bytes_match_best_static_with_digest_parity(
            self, classpath):
        """At 1% mutation and at saturation (every vertex's rank and
        adjacency written) the adaptive policy ships within 6% + 512 B of
        the cheapest other policy, and every policy's receiver holds the
        same graph.  One worker per policy under one pinned channel id, so
        the frames differ only by policy.

        In between, a rank-only 100% sweep pins the 0.5 byte crossover:
        exact dirty cards ship only the written vertex objects, so the
        always-delta epoch is about half a full one (6,253 B against
        12,230 B), yet both crossover policies still go FULL: crossover
        because the estimate exceeds half the resident bytes, adaptive
        because the encoded frame overruns that half as its budget."""
        policies = ("adaptive", "always_delta", "always_full", "crossover")
        cluster, _ = make_context(classpath, workers=len(policies))
        driver = cluster.driver.jvm
        graph = build_vertex_graph(driver, EDGES)
        pagerank = IncrementalPageRank(driver, graph)
        exchange = Exchange(cluster)
        channels = {
            policy: exchange.channel_to(worker.name, policy=policy,
                                        channel_id=7700)
            for policy, worker in zip(policies, cluster.workers)
        }
        try:
            for channel in channels.values():
                assert channel.send([graph]).mode == "full"  # bootstrap
            for step in ("sparse", "rank_sweep", "saturated"):
                pagerank.step(active_fraction=0.01 if step == "sparse"
                              else 1.0)
                if step == "saturated":
                    rewrite_adjacency(driver, graph)
                receipts = {policy: channel.send([graph], digest=True)
                            for policy, channel in channels.items()}
                assert len({r.digest for r in receipts.values()}) == 1
                if step == "rank_sweep":
                    assert {receipts[p].mode for p in
                            ("adaptive", "crossover")} == {"full"}, receipts
                    assert (receipts["always_delta"].wire_bytes
                            < 0.6 * receipts["always_full"].wire_bytes), \
                        receipts
                    continue
                adaptive = receipts.pop("adaptive").wire_bytes
                best = min(r.wire_bytes for r in receipts.values())
                assert adaptive <= best * 1.06 + 512, (step, receipts)
        finally:
            exchange.close()

    def test_no_call_site_picks_a_mode(self, classpath):
        """Every epoch's mode comes out of the policy: the push reports
        and the channel's last_plan agree, and the decision count equals
        pushes x workers."""
        cluster, sc = make_context(classpath)
        driver = cluster.driver.jvm
        graph = build_vertex_graph(driver, EDGES)
        send = sc.send(graph, policy="crossover")
        try:
            send.push()
            send.push()
            counters = obs.registry().snapshot()["counters"]
            assert sum(v for k, v in counters.items()
                       if k.startswith("policy.decisions{")) == \
                2 * len(cluster.workers)
            for name, metrics in send.metrics().items():
                plan = metrics["last_plan"]
                assert plan is not None
                assert plan["policy"] == "crossover"
                assert plan["mode"] == send.pushes[-1].modes[name]
        finally:
            send.close()

    def test_shared_engine_across_sends(self, classpath):
        """One stateless policy shared by two sends' channels: pushes
        interleave at different mutation rates, and each channel's
        (mode, reason) sequence equals the one it produces alone."""
        def run(shared, which):
            cluster, sc = make_context(classpath, workers=1)
            driver = cluster.driver.jvm
            graphs = [build_vertex_graph(driver, EDGES) for _ in range(2)]
            ranks = [IncrementalPageRank(driver, g) for g in graphs]
            sends = [sc.send(g, policy=shared) for g in graphs]
            seen = {0: [], 1: []}
            try:
                assert all(s.policy is shared for s in sends)
                for rates in ((0.0, 0.0), (0.02, 1.0), (1.0, 0.02),
                              (0.02, 0.02), (1.0, 1.0)):
                    for i in which:
                        if rates[i]:
                            ranks[i].step(active_fraction=rates[i])
                        sends[i].push()
                        (plan,) = [m["last_plan"] for m in
                                   sends[i].metrics().values()]
                        seen[i].append((plan["mode"], plan["reason"]))
            finally:
                for send in sends:
                    send.close()
            return seen

        together = run(AdaptivePolicy(), (0, 1))
        assert together[0] != together[1]
        assert together[0] == run(AdaptivePolicy(), (0,))[0]
        assert together[1] == run(AdaptivePolicy(), (1,))[1]

    def test_reassign_forgets_the_old_channel_id(self, classpath):
        """A channel that adopts a fresh id (worker restart) restarts its
        history: the next observation seeds the EWMA and the regime is
        unset; its next epoch is a forced FULL under the new id."""
        cluster, _ = make_context(classpath, workers=1)
        driver = cluster.driver.jvm
        graph = build_vertex_graph(driver, EDGES)
        pagerank = IncrementalPageRank(driver, graph)
        channel = DeltaSendChannel(driver.skyway, "worker-0",
                                   policy="adaptive", channel_id=9001)
        try:
            channel.send([graph])
            pagerank.step(active_fraction=0.02)
            channel.send([graph])
            assert channel.last_plan.reason == "delta"
            assert channel.byte_fraction_ewma is not None
            assert channel.regime == "delta"
            channel.reassign(9002)
            assert (channel.byte_fraction_ewma, channel.regime) == \
                (None, None)
            channel.send([graph])
            assert channel.last_plan.reason == "forced"
            assert channel.channel_id == 9002
            pagerank.step(active_fraction=0.02)
            plan = channel.plan_next([graph])
            # Seeded by this one observation, not blended with the old id's.
            assert channel.byte_fraction_ewma == (
                plan.estimated_bytes / channel.record.total_bytes)
            assert plan.reason == "delta" and channel.regime == "delta"
        finally:
            channel.close()

    def test_send_requires_skyway(self, classpath):
        cluster = Cluster(lambda name: JVM(name, classpath=classpath),
                          worker_count=1)
        sc = SparkContext(cluster, SkywaySerializer())
        with pytest.raises(RuntimeError, match="attach_skyway"):
            sc.send(1234)


class TestChannelGauges:
    def test_mutation_and_bytes_gauges_registered(self, classpath):
        obs.reset()
        try:
            cluster, sc = make_context(classpath)
            driver = cluster.driver.jvm
            graph = build_vertex_graph(driver, EDGES)
            pagerank = IncrementalPageRank(driver, graph)
            send = sc.send(graph)
            send.push()
            pagerank.step(active_fraction=0.02)
            send.push()

            gauges = obs.registry().snapshot()["gauges"]
            for worker in cluster.workers:
                labels = f"{{destination={worker.name},substrate=loopback}}"
                per_epoch = gauges[f"exchange.bytes_per_epoch{labels}"]
                assert per_epoch > 0
                assert f"exchange.mutation_rate{labels}" in gauges
            send.close()
        finally:
            obs.reset()
