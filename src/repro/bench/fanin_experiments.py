"""B-FANIN — fan-in concurrency: one worker, a thousand delta channels.

The scaling test of the worker's event loop
(:mod:`repro.transport.aserve`).  Per channel count (16/128/1024 full,
8/32 smoke), one worker process receives C concurrent delta channels
pipelined over *one* mux connection, each carrying its own ~24-node
ListNode chain:

* **epoch 1** bootstraps every channel FULL;
* one field per chain is mutated;
* **epoch 2** must ride the delta path on every channel.

Both epochs are digest-gated per channel: the worker's reported semantic
digest must equal the digest the driver computed over its own heap before
sending — 2·C independent graphs, so any cross-channel mixup in the mux
demultiplexer shows up as a digest mismatch, not a hang.  Latency is
trailer-flush → RESULT per channel: the time until the sender holds the
ack.

``fanin_checks_pass`` is the CI gate: every digest matches, every channel
is acked, epoch 2 is all-delta, and the worker sustains the largest
channel count.  Full-scale results land in
``benchmarks/results/fanin.{txt,json}``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.delta.channel import DeltaSendChannel
from repro.delta.wire import FRAME_DELTA, FRAME_FULL
from repro.transport.client import MuxEpochClient
from repro.transport.bootstrap import MB, build_runtime
from repro.transport.client import WorkerHandle
from repro.transport.digest import semantic_graph_digest
from repro.transport.testing import SAMPLE_FACTORY
from repro.transport.worker import WorkerSpec

DEFAULT_CHANNELS = (16, 128, 1024)
SMOKE_CHANNELS = (8, 32)
#: Nodes per per-channel ListNode chain.  Long enough that mutating one
#: field keeps the mutation rate well under the delta policy's FULL
#: crossover, small enough that 1024 chains stay cheap to build.
LIST_NODES = 24

_KIND_NAMES = {FRAME_FULL: "full", FRAME_DELTA: "delta"}


def _make_chain(jvm, node_count: int, seed: int) -> int:
    """One ListNode chain with channel-distinct payloads (so every
    channel's digest differs — cross-channel mixups can't cancel out)."""
    head = 0
    pin = jvm.pin(0)
    try:
        for i in reversed(range(node_count)):
            node = jvm.new_instance("ListNode")
            jvm.set_field(node, "payload", seed * 1_000 + i)
            jvm.set_field(node, "next", pin.address)
            pin.address = node
            head = node
        return head
    finally:
        jvm.unpin(pin)


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    """q-th percentile of a latency list, in milliseconds (nearest-rank)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, int(len(ordered) * q))
    return round(ordered[rank] * 1e3, 3)


def _epoch_jobs(
    driver, channels: List[DeltaSendChannel], heads: List[int],
) -> Tuple[List[Tuple[int, int, bytes]], List[str], List[str]]:
    """Serialize one epoch on every channel (driver-side, untimed) and
    return (jobs for the wire, expected digests, wire kinds)."""
    jobs = []
    expected = []
    kinds = []
    for channel, head in zip(channels, heads):
        frame = channel.send([head])
        jobs.append((channel.channel_id, channel.epoch, frame))
        expected.append(semantic_graph_digest(driver.jvm, [head]))
        kinds.append(_KIND_NAMES.get(frame[0], f"kind-{frame[0]}"))
    return jobs, expected, kinds


def _epoch_row(label: str, wall_s: float, latencies: List[float],
               digests_ok: int, acked: int, total: int,
               kinds: List[str]) -> Dict[str, object]:
    return {
        "label": label,
        "wall_s": round(wall_s, 4),
        "p50_ms": _percentile_ms(latencies, 0.50),
        "p99_ms": _percentile_ms(latencies, 0.99),
        "acked": acked,
        "digests_ok": digests_ok,
        "channels": total,
        "modes": sorted(set(kinds)),
    }


def _send_epochs(driver, handle, channels, heads,
                 row: Dict[str, object]) -> None:
    """Both epochs, all C channels multiplexed over one connection."""
    count = len(channels)
    started = time.perf_counter()
    mux = MuxEpochClient(driver, handle.host, handle.port,
                         node_name=driver.jvm.name, read_timeout=300.0,
                         connect_attempts=3)
    mux.connect()
    row["setup_s"] = round(time.perf_counter() - started, 4)
    try:
        for label in ("full", "delta"):
            jobs, expected, kinds = _epoch_jobs(driver, channels, heads)
            started = time.perf_counter()
            results = mux.send_epochs(jobs)
            wall = time.perf_counter() - started
            latencies = []
            ok = 0
            acked = 0
            for (channel_id, _epoch, _frame), want in zip(jobs, expected):
                outcome = results.get(channel_id)
                if outcome is None:
                    continue
                acked += 1
                if outcome["latency_s"] is not None:
                    latencies.append(outcome["latency_s"])
                if outcome["result"].get("digest") == want:
                    ok += 1
            row["epochs"].append(
                _epoch_row(label, wall, latencies, ok, acked, count, kinds))
            if label == "full":
                _mutate(driver, heads)
        stats = mux.stats()
        row["aserve"] = stats.get("aserve")
    finally:
        mux.close()


def _mutate(driver, heads: List[int]) -> None:
    """One field per chain — enough to dirty every channel's epoch record
    while keeping the mutation rate squarely in delta territory."""
    for head in heads:
        current = driver.jvm.get_field(head, "payload")
        driver.jvm.set_field(head, "payload", current + 10_000)


def _run_count(count: int, coordinator=None) -> Dict[str, object]:
    driver = build_runtime(f"fanin-driver-{count}", SAMPLE_FACTORY,
                           old_bytes=256 * MB)
    pins = []
    heads = []
    for i in range(count):
        head = _make_chain(driver.jvm, LIST_NODES, seed=i + 1)
        pins.append(driver.jvm.pin(head))
        heads.append(head)
    channels = [
        DeltaSendChannel(driver, f"fanin-{count}", channel_id=i + 1)
        for i in range(count)
    ]

    spec = WorkerSpec(
        name=f"fanin-{count}",
        classpath_factory=SAMPLE_FACTORY,
        read_timeout=300.0,
        old_bytes=256 * MB,
        listen_backlog=2048,
    )
    if coordinator is not None:
        # Live mode: the run's worker registers and heartbeats its
        # telemetry, so the run ends with a `repro.obs top` frame.
        spec = dataclasses.replace(
            spec, coordinator_host=coordinator.host,
            coordinator_port=coordinator.port,
        )
    handle = WorkerHandle.spawn(spec, startup_timeout=60.0)

    row: Dict[str, object] = {"channels": count, "epochs": []}
    try:
        _send_epochs(driver, handle, channels, heads, row)
        if coordinator is not None:
            row["live_top"] = _live_frame(coordinator)
    finally:
        handle.stop()
        for channel in channels:
            channel.close()
        for pin in pins:
            driver.jvm.unpin(pin)

    row["send_wall_s"] = round(
        sum(e["wall_s"] for e in row["epochs"]), 4)
    row["digests_ok"] = all(
        e["digests_ok"] == e["channels"] for e in row["epochs"])
    row["sustained"] = all(
        e["acked"] == e["channels"] for e in row["epochs"])
    return row


def _live_frame(coordinator) -> str:
    """One `repro.obs top` frame from the live coordinator (telemetry
    needs a heartbeat round to land the final epochs first)."""
    from repro.cluster.membership import CoordinatorClient
    from repro.obs.live import render_top

    time.sleep(0.3)
    with CoordinatorClient(coordinator.host, coordinator.port) as client:
        doc = client.call("telemetry")["telemetry"]
    return render_top(doc, alive=doc.get("alive"))


def run_fanin_experiment(
    channel_counts: Optional[Sequence[int]] = None,
    smoke: bool = False,
    live: bool = False,
) -> Dict[str, object]:
    """Returns a JSON-serializable result dict (see module docstring).
    ``live=True`` spins a coordinator so each run's worker streams
    telemetry; rows gain a rendered ``repro.obs top`` frame."""
    if channel_counts is None:
        channel_counts = SMOKE_CHANNELS if smoke else DEFAULT_CHANNELS
    coordinator = None
    if live:
        from repro.cluster.coordinator import (
            CoordinatorHandle,
            CoordinatorSpec,
        )

        coordinator = CoordinatorHandle.spawn(
            CoordinatorSpec(name="fanin-live-coordinator"),
            startup_timeout=30.0,
        )
    rows = []
    try:
        for count in channel_counts:
            rows.append(_run_count(count, coordinator=coordinator))
    finally:
        if coordinator is not None:
            coordinator.stop()
    return {
        "channel_counts": list(channel_counts),
        "list_nodes": LIST_NODES,
        "smoke": smoke,
        "live": live,
        "rows": rows,
        "checks": _checks(rows, max(channel_counts)),
    }


def _checks(rows: List[Dict[str, object]],
            max_count: int) -> Dict[str, bool]:
    largest = next((r for r in rows if r["channels"] == max_count), None)
    return {
        "digests_match_sender": all(r["digests_ok"] for r in rows),
        "every_channel_acked": all(r["sustained"] for r in rows),
        "epoch2_rides_delta": all(
            r["epochs"][1]["modes"] == ["delta"] for r in rows
            if len(r["epochs"]) > 1),
        "sustains_max_fanin": bool(
            largest is not None and largest["sustained"]
            and largest["digests_ok"]),
    }


def fanin_checks_pass(result: Dict[str, object]) -> bool:
    return all(result["checks"].values())


def format_fanin_report(result: Dict[str, object]) -> str:
    lines = [
        "B-FANIN — one worker, C concurrent delta channels over one "
        "mux connection",
        f"  {result['list_nodes']}-node chain per channel; channel counts "
        f"{result['channel_counts']}; epoch 1 FULL, epoch 2 delta",
        "",
        f"  {'ch':>5} {'setup_s':>8} "
        f"{'fullW_s':>8} {'fp50_ms':>8} {'fp99_ms':>8} "
        f"{'dltW_s':>8} {'dp50_ms':>8} {'dp99_ms':>8} "
        f"{'digest':>7}",
    ]
    for row in result["rows"]:
        full, delta = row["epochs"][0], row["epochs"][1]
        digest = "ok" if row["digests_ok"] and row["sustained"] else "FAIL"
        lines.append(
            f"  {row['channels']:>5} "
            f"{row['setup_s']:>8.3f} "
            f"{full['wall_s']:>8.3f} {full['p50_ms']:>8.2f} "
            f"{full['p99_ms']:>8.2f} "
            f"{delta['wall_s']:>8.3f} {delta['p50_ms']:>8.2f} "
            f"{delta['p99_ms']:>8.2f} {digest:>7}"
        )
    aserve = next(
        (r.get("aserve") for r in reversed(result["rows"])
         if r.get("aserve")), None)
    if aserve:
        lines += [
            "",
            f"  event loop (largest run): "
            f"{aserve.get('epochs_applied', 0)} epochs applied, "
            f"{aserve.get('reads_paused_total', 0)} read pauses, "
            f"queue-wait p50 "
            f"{aserve.get('queue_wait_p50_s', 0.0) * 1e3:.2f} ms / p99 "
            f"{aserve.get('queue_wait_p99_s', 0.0) * 1e3:.2f} ms",
        ]
    for row in result["rows"]:
        if row.get("live_top"):
            lines += ["", f"  -- live telemetry after "
                          f"{row['channels']} channels --"]
            lines += [f"  {l}" for l in row["live_top"].splitlines()]
    lines += [
        "",
        "  checks: " + "  ".join(
            f"{name}={'pass' if ok else 'FAIL'}"
            for name, ok in result["checks"].items()
        ),
    ]
    return "\n".join(lines)
