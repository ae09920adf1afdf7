"""Registry-source lifecycle: every owner deregisters on close, and the
GC source never pins a heap alive."""

import gc as pygc

from repro import obs
from repro.core.runtime import attach_skyway
from repro.exchange import Exchange
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.serial.java_serializer import JavaSerializer
from repro.spark.context import SparkContext

from tests.conftest import sample_classpath


def make_cluster(workers: int = 1) -> Cluster:
    classpath = sample_classpath()
    return Cluster(lambda name: JVM(name, classpath=classpath),
                   worker_count=workers)


def exchange_sources():
    return [n for n in obs.registry().source_names()
            if n.startswith("exchange.")]


def test_channel_close_deregisters_source():
    cluster = make_cluster()
    attach_skyway(cluster.driver.jvm, [w.jvm for w in cluster.workers],
                  cluster=cluster)
    exchange = Exchange(cluster)
    assert exchange_sources() == []
    channel = exchange.channel_to("worker-0")
    (name,) = exchange_sources()
    assert name.startswith("exchange.loopback.worker-0#")
    src = obs.registry().snapshot()["sources"][name]
    assert src["wire_bytes"] == 0 and src["sends"] == 0
    channel.close()
    assert exchange_sources() == []
    channel.close()  # idempotent


def test_exchange_close_deregisters_all_channels():
    cluster = make_cluster(workers=2)
    attach_skyway(cluster.driver.jvm, [w.jvm for w in cluster.workers],
                  cluster=cluster)
    exchange = Exchange(cluster)
    exchange.channel_to("worker-0")
    exchange.channel_to("worker-1")
    assert len(exchange_sources()) == 2
    exchange.close()
    assert exchange_sources() == []


def test_spark_context_registers_event_source():
    cluster = make_cluster()
    sc = SparkContext(cluster, JavaSerializer())
    name = f"spark.events.app{sc.app_id}"
    assert name in obs.registry().source_names()
    sc.events.emit("task", node="worker-0")
    src = obs.registry().snapshot()["sources"][name]
    assert src == [{"kind": "task", "details": {"node": "worker-0"}}]


def test_jvm_gc_source_reports_stats():
    jvm = JVM("obs-gc-probe", classpath=sample_classpath(),
              young_bytes=48 * 1024, old_bytes=256 * 1024)
    names = [n for n in obs.registry().source_names()
             if n.startswith("gc.obs-gc-probe#")]
    assert len(names) == 1
    for _ in range(3000):  # enough churn to force at least one scavenge
        jvm.new_instance("Day2D")
    src = obs.registry().snapshot()["sources"][names[0]]
    assert src["jvm"] == "obs-gc-probe"
    assert src["minor_collections"] >= 1
    assert src["sim_seconds"] > 0


def test_jvm_gc_source_does_not_pin_the_heap():
    jvm = JVM("obs-pin-probe", classpath=sample_classpath())
    (name,) = [n for n in obs.registry().source_names()
               if n.startswith("gc.obs-pin-probe#")]
    del jvm
    pygc.collect()
    assert obs.registry().snapshot()["sources"][name] == {"collected": True}
