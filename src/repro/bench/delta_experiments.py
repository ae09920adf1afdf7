"""Delta-transfer experiment runners (the Skyway-Delta evaluation).

Two experiments, both over heap-resident vertex graphs built from the
Table 1 graph profiles:

* :func:`run_delta_iterative` — iterative PageRank shipping its rank
  state to every worker each superstep, once with delta transfer and once
  with the baseline (a full Skyway send every epoch).  Reports wire bytes
  and simulated cluster time for both modes.
* :func:`run_mutation_sweep` — one update epoch at each mutation rate,
  recording the epoch's wire bytes and the policy's full/delta decision;
  the high-mutation points document the automatic fallback.

The baseline reuses the same send machinery with a policy whose
crossover is below zero, so every epoch takes the full-send path — both
modes charge identical application and bookkeeping costs, and the
difference is purely the transfer strategy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.apps.incremental import (
    IncrementalPageRank,
    build_vertex_graph,
    install_incremental_classes,
    read_ranks,
)
from repro.core.runtime import attach_skyway
from repro.datasets import GRAPH_PROFILES, generate_graph
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.policy import CrossoverPolicy
from repro.spark.send import PolicySend
from repro.types.corelib import standard_classpath

#: A crossover below zero makes every epoch fail the pre-encode gate:
#: the policy degenerates to the paper's behaviour (full send per epoch).
FULL_EVERY_EPOCH = CrossoverPolicy(byte_crossover=-1.0)


@dataclasses.dataclass
class IterativeRun:
    """One mode's totals over an iterative run."""

    mode: str
    wire_bytes: int
    sim_seconds: float
    epoch_bytes: List[int]
    epoch_modes: List[str]
    final_ranks: List[float]


def _make_cluster(workers: int) -> Cluster:
    classpath = install_incremental_classes(standard_classpath())
    cluster = Cluster(lambda name: JVM(name, classpath=classpath),
                      worker_count=workers)
    attach_skyway(cluster.driver.jvm, [w.jvm for w in cluster.workers],
                  cluster=cluster)
    return cluster


def _run_mode(
    *,
    graph_key: str,
    scale: float,
    iterations: int,
    mutation: float,
    workers: int,
    policy,
    mode: str,
    seed: int = 42,
) -> IterativeRun:
    cluster = _make_cluster(workers)
    driver = cluster.driver.jvm
    edges = generate_graph(GRAPH_PROFILES[graph_key], seed=seed, scale=scale)
    graph = build_vertex_graph(driver, edges)
    pagerank = IncrementalPageRank(driver, graph)
    broadcast = PolicySend(cluster, graph, policy=policy)

    epoch_bytes: List[int] = []
    epoch_modes: List[str] = []
    report = broadcast.push()  # epoch 1: bootstrap (always full)
    epoch_bytes.append(report.wire_bytes)
    epoch_modes.append("+".join(sorted(set(report.modes.values()))))
    for _ in range(iterations):
        pagerank.step(active_fraction=mutation)
        report = broadcast.push()
        epoch_bytes.append(report.wire_bytes)
        epoch_modes.append("+".join(sorted(set(report.modes.values()))))

    # Every worker must hold the driver's exact rank vector.
    driver_ranks = read_ranks(driver, graph)
    for worker in cluster.workers:
        worker_ranks = read_ranks(worker.jvm, broadcast.value_on(worker))
        if worker_ranks != driver_ranks:
            raise AssertionError(
                f"{mode}: worker {worker.name} rank vector diverged"
            )

    run = IterativeRun(
        mode=mode,
        wire_bytes=broadcast.wire_bytes,
        sim_seconds=cluster.total_clock().total(),
        epoch_bytes=epoch_bytes,
        epoch_modes=epoch_modes,
        final_ranks=driver_ranks,
    )
    broadcast.close()
    return run


def run_delta_iterative(
    graph_key: str = "LJ",
    scale: float = 0.2,
    iterations: int = 8,
    mutation: float = 0.01,
    workers: int = 2,
) -> Dict[str, object]:
    """Delta vs full-every-epoch over one iterative PageRank run."""
    full = _run_mode(
        graph_key=graph_key, scale=scale, iterations=iterations,
        mutation=mutation, workers=workers,
        policy=FULL_EVERY_EPOCH, mode="full-every-epoch",
    )
    delta = _run_mode(
        graph_key=graph_key, scale=scale, iterations=iterations,
        mutation=mutation, workers=workers,
        policy="crossover", mode="delta",
    )
    if full.final_ranks != delta.final_ranks:
        raise AssertionError("modes computed different rank vectors")
    return {
        "graph": graph_key,
        "iterations": iterations,
        "mutation_fraction": mutation,
        "workers": workers,
        "vertices": len(full.final_ranks),
        "full_wire_bytes": full.wire_bytes,
        "delta_wire_bytes": delta.wire_bytes,
        "bytes_ratio": full.wire_bytes / delta.wire_bytes,
        "full_sim_seconds": full.sim_seconds,
        "delta_sim_seconds": delta.sim_seconds,
        "time_ratio": full.sim_seconds / delta.sim_seconds,
        "full_epoch_bytes": full.epoch_bytes,
        "delta_epoch_bytes": delta.epoch_bytes,
        "delta_epoch_modes": delta.epoch_modes,
    }


def run_mutation_sweep(
    graph_key: str = "LJ",
    scale: float = 0.2,
    fractions: Optional[List[float]] = None,
    workers: int = 1,
) -> List[Dict[str, object]]:
    """One update epoch at each mutation rate; documents the fallback."""
    if fractions is None:
        fractions = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0]
    rows: List[Dict[str, object]] = []
    for fraction in fractions:
        cluster = _make_cluster(workers)
        driver = cluster.driver.jvm
        edges = generate_graph(GRAPH_PROFILES[graph_key], scale=scale)
        graph = build_vertex_graph(driver, edges)
        pagerank = IncrementalPageRank(driver, graph)
        broadcast = PolicySend(cluster, graph, policy="crossover")

        bootstrap = broadcast.push()
        pagerank.step(active_fraction=fraction)
        update = broadcast.push()

        channel = next(iter(broadcast._channels.values()))
        rows.append({
            "mutation_fraction": fraction,
            "full_bytes": bootstrap.wire_bytes,
            "update_bytes": update.wire_bytes,
            "update_vs_full": update.wire_bytes / bootstrap.wire_bytes,
            "mode": channel.last_plan.mode,
            "reason": channel.last_plan.reason,
            "objects_patched": channel.stats.objects_patched,
            "wasted_encode_bytes": channel.stats.wasted_encode_bytes,
        })
        broadcast.close()
    return rows
