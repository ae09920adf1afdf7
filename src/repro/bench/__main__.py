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
    python -m repro.bench all

Every number printed here is *simulated* time; wall-clock measurement
lives in ``benchmarks/ledger/`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.delta_experiments import run_delta_iterative, run_mutation_sweep
from repro.bench.extra_bytes import average_composition, measure_extra_byte_composition
from repro.bench.flink_experiments import run_figure8b, summarize_table4
from repro.bench.memory import measure_baddr_overhead
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
}


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
    args = parser.parse_args(argv)

    if args.experiment == "all":
        for name, fn in COMMANDS.items():
            print(f"\n{'#' * 70}\n# {name}\n{'#' * 70}")
            fn(args)
    else:
        COMMANDS[args.experiment](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
