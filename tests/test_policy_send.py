"""End-to-end policy plane: ``sc.send`` over the loopback cluster, the
adaptive engine against the static policies, and the per-channel
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
from repro.exchange import Exchange
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.policy import PolicyEngine
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
        """At 1% and at 100% mutation the adaptive engine ships within
        6% + 512 B of the cheapest other policy, and every policy's
        receiver holds the same graph.  One worker per policy under one
        pinned channel id, so the frames differ only by policy."""
        policies = ("adaptive", "delta", "full", "crossover")
        cluster, _ = make_context(classpath, workers=len(policies))
        driver = cluster.driver.jvm
        graph = build_vertex_graph(driver, EDGES)
        pagerank = IncrementalPageRank(driver, graph)
        exchange = Exchange.loopback(cluster)
        channels = {
            policy: exchange.channel_to(worker.name, policy=policy,
                                        channel_id=7700)
            for policy, worker in zip(policies, cluster.workers)
        }
        try:
            for channel in channels.values():
                assert channel.send([graph]).mode == "full"  # bootstrap
            for fraction in (0.01, 1.0):
                pagerank.step(active_fraction=fraction)
                receipts = {policy: channel.send([graph], digest=True)
                            for policy, channel in channels.items()}
                assert len({r.digest for r in receipts.values()}) == 1
                adaptive = receipts.pop("adaptive").wire_bytes
                best = min(r.wire_bytes for r in receipts.values())
                assert adaptive <= best * 1.06 + 512, (fraction, receipts)
        finally:
            exchange.close()

    def test_no_call_site_picks_a_mode(self, classpath):
        """Every epoch's mode comes out of the engine: the push reports
        and the channel's last_plan agree, and the decision count equals
        pushes x workers."""
        cluster, sc = make_context(classpath)
        driver = cluster.driver.jvm
        graph = build_vertex_graph(driver, EDGES)
        send = sc.send(graph, policy="crossover")
        try:
            send.push()
            send.push()
            assert send.engine.decisions == 2 * len(cluster.workers)
            for name, metrics in send.metrics().items():
                plan = metrics["last_plan"]
                assert plan is not None
                assert plan["policy"] == "crossover"
                assert plan["mode"] == send.pushes[-1].modes[name]
        finally:
            send.close()

    def test_shared_engine_across_sends(self, classpath):
        cluster, sc = make_context(classpath)
        driver = cluster.driver.jvm
        engine = PolicyEngine("adaptive")
        a = sc.send(build_vertex_graph(driver, EDGES), policy=engine)
        b = sc.send(build_vertex_graph(driver, EDGES), policy=engine)
        try:
            assert a.engine is engine and b.engine is engine
            a.push()
            b.push()
            # One engine, distinct per-channel histories.
            assert len(engine.snapshot()["channels"]) == \
                2 * len(cluster.workers)
        finally:
            a.close()
            b.close()

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
