"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Regenerates any of the paper's tables/figures without pytest:

    python -m repro.bench table1
    python -m repro.bench fig3
    python -m repro.bench fig7 --quick
    python -m repro.bench fig8a --scale 0.02
    python -m repro.bench fig8b
    python -m repro.bench table2
    python -m repro.bench table4
    python -m repro.bench memory
    python -m repro.bench extra-bytes
    python -m repro.bench delta-iter
    python -m repro.bench delta-sweep
    python -m repro.bench transport
    python -m repro.bench kernels
    python -m repro.bench kernels --smoke   # CI parity gate, exits 1 on drift
    python -m repro.bench exchange
    python -m repro.bench exchange --smoke  # CI parity gate, exits 1 on drift
    python -m repro.bench fleet
    python -m repro.bench fleet --smoke     # 4-worker fabric gate, exits 1
    python -m repro.bench fanin
    python -m repro.bench fanin --smoke     # mux fan-in gate, exits 1
    python -m repro.bench policy
    python -m repro.bench policy --smoke    # adaptive-policy gate, exits 1
    python -m repro.bench all

The gated experiments write ``benchmarks/results/<name>.{txt,json}``;
with ``--smoke`` they write under ``benchmarks/results/smoke/`` instead.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

from repro import obs
from repro.bench.delta_experiments import run_delta_iterative, run_mutation_sweep
from repro.bench.exchange_experiments import (
    exchange_checks_pass,
    format_exchange_report,
    run_exchange_experiment,
)
from repro.bench.extra_bytes import average_composition, measure_extra_byte_composition
from repro.bench.fanin_experiments import (
    fanin_checks_pass,
    format_fanin_report,
    run_fanin_experiment,
)
from repro.bench.fleet_experiments import (
    fleet_checks_pass,
    format_fleet_report,
    run_fleet_experiment,
)
from repro.bench.flink_experiments import run_figure8b, summarize_table4
from repro.bench.kernel_experiments import (
    format_kernel_report,
    kernel_checks_pass,
    run_kernel_experiment,
)
from repro.bench.memory import measure_baddr_overhead
from repro.bench.policy_experiments import (
    format_policy_report,
    policy_checks_pass,
    run_policy_experiment,
)
from repro.bench.report import (
    format_breakdown_table,
    format_bytes_table,
    format_figure7,
    format_kv_section,
    format_normalized_table,
    format_table1,
)
from repro.bench.spark_experiments import (
    run_figure3,
    run_figure8a,
    summarize_table2,
)
from repro.bench.transport_experiments import (
    format_transport_report,
    run_transport_experiment,
)
from repro.datasets import table1_rows
from repro.jsbs.harness import run_jsbs
from repro.jsbs.libraries import LIBRARY_CATALOG


def cmd_table1(args) -> None:
    print(format_table1(table1_rows(scale=args.scale)))


def cmd_fig3(args) -> None:
    results = run_figure3(scale=args.scale)
    print(format_breakdown_table(
        {k: v.breakdown for k, v in results.items()},
        "Figure 3(a) — TriangleCounting / LiveJournal", "ms"))
    print()
    print(format_bytes_table(
        {k: (v.breakdown.local_bytes, v.breakdown.remote_bytes)
         for k, v in results.items()},
        "Figure 3(b) — bytes shuffled"))


def cmd_fig7(args) -> None:
    specs = LIBRARY_CATALOG
    if args.quick:
        keep = {"skyway", "colfer", "protostuff", "kryo-manual",
                "avro-generic", "thrift", "java-built-in"}
        specs = [s for s in LIBRARY_CATALOG if s.name in keep]
    print(format_figure7(run_jsbs(specs, nodes=5, objects=8, rounds=2)))


def cmd_fig8a(args) -> None:
    graphs = ("LJ", "OR", "UK", "TW") if args.full else ("LJ", "OR")
    results = run_figure8a(scale=args.scale, graphs=graphs, pr_iterations=2)
    combos = sorted({(r.app, r.graph) for r in results.values()})
    for app, graph in combos:
        rows = {s: results[(app, graph, s)].breakdown
                for s in ("java", "kryo", "skyway")}
        print(format_breakdown_table(rows, f"Figure 8(a) — {graph}-{app}", "ms"))
        print()
    print(format_normalized_table(summarize_table2(results),
                                  "Table 2 — normalized to the Java serializer"))


def cmd_fig8b(args) -> None:
    results = run_figure8b(micro_scale=args.scale if args.scale != 0.02 else 0.4)
    for query in ("QA", "QB", "QC", "QD", "QE"):
        rows = {m: results[(query, m)].breakdown for m in ("builtin", "skyway")}
        print(format_breakdown_table(rows, f"Figure 8(b) — {query}", "ms"))
        print()
    print(format_normalized_table(summarize_table4(results),
                                  "Table 4 — normalized to the built-in serializer"))


def cmd_table2(args) -> None:
    results = run_figure8a(scale=args.scale, graphs=("LJ", "OR"),
                           pr_iterations=2)
    print(format_normalized_table(summarize_table2(results),
                                  "Table 2 — normalized to the Java serializer"))


def cmd_table4(args) -> None:
    results = run_figure8b(micro_scale=0.4)
    print(format_normalized_table(summarize_table4(results),
                                  "Table 4 — normalized to the built-in serializer"))


def cmd_memory(args) -> None:
    overheads = measure_baddr_overhead(scale=max(args.scale, 0.1))
    avg = sum(overheads.values()) / len(overheads)
    print(format_kv_section(
        "baddr memory overhead (paper: 2.1%-21.8%, avg 15.4%)",
        {**{k: f"{v:.1%}" for k, v in overheads.items()},
         "average": f"{avg:.1%}"}))


def cmd_extra_bytes(args) -> None:
    per_app = measure_extra_byte_composition(scale=max(args.scale, 0.1))
    print(format_kv_section(
        "extra-byte composition (paper: headers 51% / padding 34% / pointers 15%)",
        {k: f"{v:.1%}" for k, v in average_composition(per_app).items()}))


def cmd_delta_iter(args) -> None:
    result = run_delta_iterative(scale=max(args.scale, 0.1))
    print(format_kv_section(
        "D-ITER — incremental PageRank, delta vs full-every-epoch",
        {
            "graph / iterations": f"{result['graph']} x{result['iterations']}"
                                  f" ({result['vertices']} vertices)",
            "mutation fraction": f"{result['mutation_fraction']:.0%}",
            "full wire bytes": result["full_wire_bytes"],
            "delta wire bytes": result["delta_wire_bytes"],
            "bytes ratio (full/delta)": f"{result['bytes_ratio']:.2f}x",
            "time ratio (full/delta)": f"{result['time_ratio']:.2f}x",
            "delta epoch modes": " ".join(result["delta_epoch_modes"]),
        }))


def cmd_delta_sweep(args) -> None:
    rows = run_mutation_sweep(scale=max(args.scale, 0.1))
    print(format_kv_section(
        "A-DELTA — one update epoch per mutation rate (fallback crossover)",
        {f"{row['mutation_fraction']:>4.0%} mutated":
         f"{row['update_bytes']:>8} bytes  {row['mode']:<5} "
         f"({row['reason']}, full would be {row['full_bytes']})"
         for row in rows}))


def cmd_transport(args) -> None:
    # The default --scale 0.02 maps to the full 80k-vertex (~8 MB) graph;
    # smaller scales shrink it proportionally for quick runs.
    vertices = max(2000, int(round(80_000 * args.scale / 0.02)))
    result = run_transport_experiment(vertices=vertices)
    print(format_transport_report(result))


def cmd_kernels(args) -> None:
    # --scale 0.02 maps to the full 40k-vertex graph; --smoke shrinks it
    # and turns the run into a pass/fail parity gate.
    vertices = max(1000, int(round(40_000 * args.scale / 0.02)))
    result = run_kernel_experiment(vertices=vertices, smoke=args.smoke)
    print(format_kernel_report(result))
    if not kernel_checks_pass(result):
        raise SystemExit("B-KERNEL parity check failed: kernel and "
                         "interpreted streams diverged")


def _results_dir(smoke: bool) -> Optional[pathlib.Path]:
    """Where this run's artifacts go, created on demand; ``None`` when not
    running from the repo tree.  ``benchmarks/results`` holds the committed
    full-scale artifacts; ``--smoke`` runs write under its git-ignored
    ``smoke/`` so a CI gate never overwrites them."""
    benchmarks = pathlib.Path(__file__).resolve().parents[3] / "benchmarks"
    if not benchmarks.is_dir():
        return None
    results = benchmarks / "results" / "smoke" if smoke \
        else benchmarks / "results"
    results.mkdir(parents=True, exist_ok=True)
    return results


def _publish_and_gate(name: str, args, result: dict, report: str,
                      passed: bool) -> None:
    """The shared tail of the gated experiments: print the report, write
    ``<name>.{txt,json}`` when running from the repo tree, and exit 1
    naming every check when the gate failed."""
    print(report)
    results_dir = _results_dir(args.smoke)
    if results_dir is not None:
        (results_dir / f"{name}.txt").write_text(report + "\n")
        (results_dir / f"{name}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True, default=str) + "\n"
        )
    if not passed:
        raise SystemExit(
            f"B-{name.upper()} gate failed: " + "  ".join(
                f"{check}={'pass' if ok else 'FAIL'}"
                for check, ok in result["checks"].items()
            )
        )


def cmd_exchange(args) -> None:
    # --scale 0.02 maps to the full 4k-vertex graph; --smoke shrinks it.
    vertices = max(800, int(round(4_000 * args.scale / 0.02)))
    result = run_exchange_experiment(vertices=vertices, smoke=args.smoke)
    _publish_and_gate("exchange", args, result,
                      format_exchange_report(result),
                      exchange_checks_pass(result))


def cmd_fleet(args) -> None:
    # --scale 0.02 maps to the full 1.5k-vertex graph; --smoke runs one
    # 4-worker fleet on a smaller graph as the CI gate.
    vertices = max(300, int(round(1_500 * args.scale / 0.02)))
    result = run_fleet_experiment(vertices=vertices, smoke=args.smoke,
                                  live=args.live)
    _publish_and_gate("fleet", args, result, format_fleet_report(result),
                      fleet_checks_pass(result))


def cmd_fanin(args) -> None:
    # Channel counts are fixed per tier (16/128/1024 full, 8/32 smoke):
    # B-FANIN measures connection fan-in, not graph size, so --scale
    # deliberately does not apply.
    result = run_fanin_experiment(smoke=args.smoke, live=args.live)
    _publish_and_gate("fanin", args, result, format_fanin_report(result),
                      fanin_checks_pass(result))


def cmd_policy(args) -> None:
    # --scale 0.02 maps to the full 4k-vertex graph; --smoke shrinks it
    # and drops the scenario sweep to the two headline operating points.
    vertices = max(500, int(round(4_000 * args.scale / 0.02)))
    result = run_policy_experiment(vertices=vertices, smoke=args.smoke)
    _publish_and_gate("policy", args, result, format_policy_report(result),
                      policy_checks_pass(result))


COMMANDS = {
    "table1": cmd_table1,
    "fig3": cmd_fig3,
    "fig7": cmd_fig7,
    "fig8a": cmd_fig8a,
    "fig8b": cmd_fig8b,
    "table2": cmd_table2,
    "table4": cmd_table4,
    "memory": cmd_memory,
    "extra-bytes": cmd_extra_bytes,
    "delta-iter": cmd_delta_iter,
    "delta-sweep": cmd_delta_sweep,
    "transport": cmd_transport,
    "kernels": cmd_kernels,
    "exchange": cmd_exchange,
    "fleet": cmd_fleet,
    "fanin": cmd_fanin,
    "policy": cmd_policy,
}


def _write_trace_artifacts(experiment: str, smoke: bool) -> None:
    """Export the enabled tracer's spans and the metrics snapshot next to
    the experiment's ``<name>.json`` output."""
    from repro.obs.export import to_chrome_trace

    tracer = obs.get_tracer()
    results_dir = _results_dir(smoke) if tracer is not None else None
    if results_dir is None:
        return
    doc = to_chrome_trace(tracer.spans(), trace_id=tracer.trace_id)
    trace_path = results_dir / f"{experiment}.trace.json"
    snap_path = results_dir / f"{experiment}.obs.json"
    trace_path.write_text(json.dumps(doc, indent=2) + "\n")
    snap_path.write_text(
        json.dumps(obs.snapshot(), indent=2, default=str) + "\n"
    )
    print(f"\ntrace: {trace_path}\nsnapshot: {snap_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Skyway paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=[*COMMANDS, "all"])
    parser.add_argument("--scale", type=float, default=0.02,
                        help="workload scale (default 0.02)")
    parser.add_argument("--quick", action="store_true",
                        help="fig7: run a reduced library catalog")
    parser.add_argument("--full", action="store_true",
                        help="fig8a: all four graphs (slow)")
    parser.add_argument("--smoke", action="store_true",
                        help="kernels/exchange/fleet/fanin/policy: reduced "
                             "workload, fail on parity drift")
    parser.add_argument("--live", action="store_true",
                        help="fleet/fanin: snapshot the fleet telemetry "
                             "plane (`repro.obs top` frames) into the "
                             "report")
    parser.add_argument("--trace", action="store_true",
                        help="run with tracing enabled and write "
                             "<experiment>.trace.json / <experiment>.obs.json "
                             "to benchmarks/results (results/smoke with "
                             "--smoke)")
    args = parser.parse_args(argv)

    if args.trace:
        obs.enable(process="driver")
    try:
        if args.experiment == "all":
            for name, fn in COMMANDS.items():
                print(f"\n{'#' * 70}\n# {name}\n{'#' * 70}")
                fn(args)
        else:
            COMMANDS[args.experiment](args)
    finally:
        if args.trace:
            _write_trace_artifacts(args.experiment, args.smoke)
            obs.reset()
    return 0


if __name__ == "__main__":
    sys.exit(main())
