"""The ledger's fixed vocabulary: workload and metric names, units,
directions, bounds, and which end-to-end number each layer metric is
predicted to move.  ``BENCHMARK.json`` at the repo root is
:func:`benchmark_doc` written out; :func:`validate` is the name/limit
checker the self-tests run over both.

Every later performance or simplicity claim in this repo is judged with
these names, so they change only in a PR that claims no gain.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple

#: How long one run measures (seconds); the driver passes it as --seconds.
RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

WORKLOADS: List[Tuple[str, str]] = [
    ("inproc_full",
     "bulk graph through core sender/receiver and the digest with no "
     "wire, so a per-segment core gain must show here first"),
    ("socket_full",
     "the same bulk graph over loopback TCP to one worker: the whole "
     "byte path, exposing a gain that only looks good in-process"),
    ("delta_epochs",
     "1%-mutation delta epochs on one socket channel: delta and policy "
     "do the work, so a bulk gain that taxes small messages shows"),
    ("mux_fanin",
     "256 tiny channels over one mux connection: ~190 B deltas where "
     "per-epoch fixed cost dominates, the only use of the mux protocol"),
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: The call (or counter) the bench times from outside.
    timed_by: str
    #: Workloads whose traced run measures it ("all" = every workload);
    #: on any other workload the traced run prints 0.
    workloads: Tuple[str, ...]
    #: (end-to-end metric, workload) pairs it is predicted to move; empty
    #: means "none" and is said so in the README.
    moves: Tuple[Tuple[str, str], ...]


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25,
           "bench entry to first timed op: imports, runtimes, graph "
           "build, worker spawn, connect, warm-up, bootstrap epoch "
           "(median of three full set-ups in one run)"),
    Metric("ops_per_s", "1/s", "higher", 0.25,
           "acknowledged and verified ops / summed op wall-clock "
           "(mutation excluded; mux_fanin: epochs / (encode+ship))"),
    Metric("op_p50_ms", "ms", "lower", 0.25,
           "median op wall-clock, send call to ack held by the sender "
           "(mux_fanin: per-channel trailer flush to RESULT)"),
    Metric("wire_bytes_per_op", "B", "lower", 0.02,
           "framed bytes handed to the wire by the median op of the fixed "
           "op prefix; repeats exactly for a seed"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "driver ru_maxrss + worker VmHWM, read when the fixed op "
           "prefix completes"),
]

ALL = ("all",)
_BULK = ("inproc_full", "socket_full")


def _moves(metrics: Tuple[str, ...], workloads: Tuple[str, ...]):
    return tuple((m, w) for w in workloads for m in metrics)


PER_LAYER: List[Layer] = [
    Layer("heap.build_us_per_object", "us", "lower",
          "build_vertex_graph / objects (chain build on mux_fanin)", ALL,
          _moves(("setup_s",), ("inproc_full", "socket_full",
                                "delta_epochs", "mux_fanin"))),
    Layer("core.sender.us_per_object", "us", "lower",
          "SkywayObjectOutputStream.write_object + close, kernels on",
          ("inproc_full",),
          _moves(("op_p50_ms", "ops_per_s"), ("inproc_full",))),
    Layer("core.sender_interp.us_per_object", "us", "lower",
          "the same with use_kernels=False", ("inproc_full",), ()),
    Layer("core.receiver.us_per_object", "us", "lower",
          "SkywayObjectInputStream.accept", ("inproc_full",),
          _moves(("op_p50_ms",), _BULK)),
    Layer("transport.digest.us_per_object", "us", "lower",
          "graph_digest", ("inproc_full",), _moves(("op_p50_ms",), _BULK)),
    Layer("core.stream.bytes_per_object", "B", "lower",
          "stream bytes / objects (count)", ("inproc_full",),
          _moves(("wire_bytes_per_op",), _BULK)),
    Layer("transport.client.begin_ms", "ms", "lower",
          "WorkerClient.begin_graph", ("socket_full",),
          _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.client.write_s", "s", "lower",
          "GraphSendStream.write_object over the roots", ("socket_full",),
          _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.client.finish_wait_s", "s", "lower",
          "GraphSendStream.finish (flush + TRAILER to RESULT)",
          ("socket_full",), _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.pipeline.stall_s", "s", "lower",
          "client.metrics.stall_seconds delta per op", ("socket_full",),
          _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.pipeline.stalls", "count", "lower",
          "client.metrics.queue_full_stalls delta per op",
          ("socket_full",), _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.pipeline.chunks_per_op", "count", "lower",
          "client.metrics.chunks_sent delta per op", ("socket_full",),
          _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.frames_per_op", "count", "lower",
          "client.metrics.frames_sent delta per op", ("socket_full",),
          _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.worker.receive_s", "s", "lower",
          "client.stats() transport phase 'receive', delta per op",
          ("socket_full", "delta_epochs"),
          _moves(("op_p50_ms",), ("socket_full", "delta_epochs"))),
    Layer("transport.worker.digest_s", "s", "lower",
          "client.stats() transport phase 'digest', delta per op",
          ("socket_full", "delta_epochs"),
          _moves(("op_p50_ms",), ("socket_full", "delta_epochs"))),
    Layer("transport.pipeline.overlap_gain_s", "s", "higher",
          "store-and-forward op minus pipelined op", ("socket_full",),
          _moves(("op_p50_ms",), ("socket_full",))),
    Layer("transport.blob.mb_per_s", "MB/s", "higher",
          "WorkerClient.send_blob of wire_bytes_per_op random bytes",
          ("socket_full",), ()),
    Layer("transport.frames.encode_mb_per_s", "MB/s", "higher",
          "frames.encode_frame on 64 KiB chunks", ("socket_full",), ()),
    Layer("transport.frames.decode_mb_per_s", "MB/s", "higher",
          "FrameDecoder.feed + frames on 64 KiB chunks",
          ("socket_full",), ()),
    Layer("delta.mutate_ms", "ms", "lower",
          "the bench's own rank mutation (outside the op)",
          ("delta_epochs",), ()),
    Layer("policy.plan_us", "us", "lower",
          "DeltaSendChannel.plan_next (signals + decision)",
          ("delta_epochs",), _moves(("op_p50_ms",), ("delta_epochs",))),
    Layer("delta.encode_ms", "ms", "lower",
          "DeltaSendChannel.send(roots, plan=plan)", ("delta_epochs",),
          _moves(("op_p50_ms",), ("delta_epochs",))),
    Layer("transport.epoch.ship_ms", "ms", "lower",
          "WorkerClient.send_epoch", ("delta_epochs",),
          _moves(("op_p50_ms",), ("delta_epochs",))),
    Layer("delta.apply_ms", "ms", "lower",
          "captured frames replayed into an in-process "
          "DeltaReceiveEndpoint.receive", ("delta_epochs",),
          _moves(("op_p50_ms",), ("delta_epochs",))),
    Layer("exchange.overhead_ms", "ms", "lower",
          "untraced SocketGraphChannel.send p50 minus (plan+encode+ship) "
          "p50", ("delta_epochs",),
          _moves(("op_p50_ms",), ("delta_epochs",))),
    Layer("exchange.op_p90_ms", "ms", "lower",
          "90th percentile SocketGraphChannel.send", ("delta_epochs",),
          _moves(("op_p50_ms",), ("delta_epochs",))),
    Layer("delta.patch_amplification", "ratio", "lower",
          "channel.stats.objects_patched / objects mutated",
          ("delta_epochs",),
          _moves(("wire_bytes_per_op",), ("delta_epochs",))),
    Layer("delta.bytes_per_patched_object", "B", "lower",
          "channel.stats.bytes_delta / objects_patched", ("delta_epochs",),
          _moves(("wire_bytes_per_op",), ("delta_epochs",))),
    Layer("delta.fallback_share", "ratio", "lower",
          "channel.stats fallbacks / epochs (must stay 0)",
          ("delta_epochs",),
          _moves(("wire_bytes_per_op",), ("delta_epochs",))),
    Layer("delta.encode_us_per_epoch", "us", "lower",
          "256 tiny DeltaSendChannel.send per round / 256",
          ("mux_fanin",), _moves(("ops_per_s",), ("mux_fanin",))),
    Layer("transport.mux.ship_ms_per_round", "ms", "lower",
          "MuxEpochClient.send_epochs", ("mux_fanin",),
          _moves(("ops_per_s", "op_p50_ms"), ("mux_fanin",))),
    Layer("transport.mux.bytes_per_epoch", "B", "lower",
          "framed delta bytes / epochs (count)", ("mux_fanin",),
          _moves(("wire_bytes_per_op",), ("mux_fanin",))),
    Layer("transport.mux.op_p90_ms", "ms", "lower",
          "90th percentile trailer flush to RESULT", ("mux_fanin",),
          _moves(("op_p50_ms",), ("mux_fanin",))),
    Layer("transport.aserve.queue_wait_p50_ms", "ms", "lower",
          "mux.stats()['aserve']", ("mux_fanin",),
          _moves(("op_p50_ms",), ("mux_fanin",))),
    Layer("transport.aserve.queue_wait_p99_ms", "ms", "lower",
          "mux.stats()['aserve']", ("mux_fanin",),
          _moves(("op_p50_ms",), ("mux_fanin",))),
    Layer("transport.aserve.reads_paused", "count", "lower",
          "mux.stats()['aserve']", ("mux_fanin",),
          _moves(("op_p50_ms",), ("mux_fanin",))),
    Layer("transport.aserve.epochs_applied", "count", "higher",
          "mux.stats()['aserve']", ("mux_fanin",),
          _moves(("ops_per_s",), ("mux_fanin",))),
    Layer("transport.aserve.epoch_failures", "count", "lower",
          "mux.stats()['aserve'] (feeds failed ops)", ("mux_fanin",),
          _moves(("ops_per_s",), ("mux_fanin",))),
    Layer("obs.tracer.tax_pct", "%", "lower",
          "a few ops with repro.obs.enable() vs off",
          ("socket_full", "delta_epochs"), ()),
    Layer("simtime.seconds_per_op", "s", "lower",
          "driver SimClock charge of the median op of the prefix", ALL,
          ()),
    Layer("bench.failed_op_share", "ratio", "lower",
          "ops that raised, timed out, went un-acked or failed a check / "
          "ops attempted", ALL, ()),
    Layer("bench.trace_overhead_pct", "%", "lower",
          "traced pass op p50 vs untraced pass op p50", ALL, ()),
]

#: Counts taken over the fixed op prefix: same seed, same value, always.
EXACT_FOR_A_SEED = (
    "wire_bytes_per_op",
    "core.stream.bytes_per_object",
    "transport.pipeline.chunks_per_op",
    "transport.frames_per_op",
    "transport.mux.bytes_per_epoch",
    "simtime.seconds_per_op",
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
LAYER_NAMES = tuple(layer.name for layer in PER_LAYER)
END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)


def benchmark_doc() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": l.name, "unit": l.unit, "better": l.better}
            for l in PER_LAYER
        ],
    }


_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"}


def validate(doc: Dict[str, object]) -> List[str]:
    """Every way ``doc`` breaks the benchmark contract's names and limits
    (empty list = valid)."""
    errors: List[str] = []
    if set(doc) != _KEYS:
        errors.append(f"keys must be exactly {sorted(_KEYS)}")
        return errors
    workloads = doc["workloads"]
    end_to_end = doc["end_to_end"]
    per_layer = doc["per_layer"]
    if not 2 <= len(workloads) <= 8:
        errors.append("2 to 8 workloads")
    if not 1 <= len(end_to_end) <= 16:
        errors.append("1 to 16 end-to-end metrics")
    if not 1 <= len(per_layer) <= 128:
        errors.append("1 to 128 per-layer metrics")
    if not 1 <= len(doc["paths"]) <= 16:
        errors.append("1 to 16 paths")
    if not (isinstance(doc["run_seconds"], int)
            and 1 <= doc["run_seconds"] <= 60):
        errors.append("run_seconds is a whole number from 1 to 60")
    seen = set()
    for kind, rows, keys in (
        ("workload", workloads, {"name", "why"}),
        ("end_to_end", end_to_end, {"name", "unit", "better", "bound"}),
        ("per_layer", per_layer, {"name", "unit", "better"}),
    ):
        for row in rows:
            if set(row) != keys:
                errors.append(f"{kind} row keys must be {sorted(keys)}")
                continue
            name = row["name"]
            if not _NAME.match(name):
                errors.append(f"bad name {name!r}")
            if name in seen:
                errors.append(f"name {name!r} used twice")
            seen.add(name)
            if "why" in row and (len(row["why"]) > 200
                                 or "\n" in row["why"]):
                errors.append(f"{name}: why is one line of <= 200 chars")
            if "unit" in row and not _UNIT.match(row["unit"]):
                errors.append(f"{name}: bad unit {row['unit']!r}")
            if "better" in row and row["better"] not in ("lower", "higher"):
                errors.append(f"{name}: better is lower or higher")
            if "bound" in row and not 0 <= row["bound"] <= 0.25:
                errors.append(f"{name}: bound must be within [0, 0.25]")
    setup = [r for r in end_to_end if r.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    return errors


def validate_layers() -> List[str]:
    """Every layer row names a known workload and either known
    (end-to-end metric, workload) pairs or nothing ("none")."""
    errors: List[str] = []
    for layer in PER_LAYER:
        for workload in layer.workloads:
            if workload != "all" and workload not in WORKLOAD_NAMES:
                errors.append(f"{layer.name}: unknown workload {workload}")
        for metric, workload in layer.moves:
            if metric not in END_TO_END_NAMES:
                errors.append(f"{layer.name}: unknown metric {metric}")
            if workload not in WORKLOAD_NAMES:
                errors.append(f"{layer.name}: unknown workload {workload}")
    return errors


def measured_on(layer: Layer, workload: str) -> bool:
    return layer.workloads == ALL or workload in layer.workloads
