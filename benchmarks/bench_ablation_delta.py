"""A-DELTA — ablation: delta transfer across the mutation-rate sweep.

Delta transfer is only a win while mutations are sparse; past the
policy's byte crossover the channel must revert to the paper's plain
full send on its own.  The sweep re-ranks a growing share of vertices.
Dirty cards are one word, so an epoch ships exactly the vertex objects
written: even the 100% point writes only ranks (a quarter of the graph's
bytes, the adjacency arrays stay clean) and rides DELTA.  The fallback
regime is driven where every object is written: the saturated steps of
``tests/test_policy_send.py`` (``test_adaptive_lifecycle_with_parity``
and ``test_adaptive_bytes_match_best_static_with_digest_parity``).
"""

from repro.bench.delta_experiments import run_mutation_sweep

from conftest import bench_scale, emit_json, publish


def _format_rows(rows) -> str:
    lines = [
        "A-DELTA — update-epoch bytes vs per-epoch mutation rate (LJ)",
        f"{'mutation':>10} {'mode':>6} {'bytes':>10} {'vs full':>9}  reason",
    ]
    for row in rows:
        lines.append(
            f"{row['mutation_fraction']:>10.0%} {row['mode']:>6} "
            f"{row['update_bytes']:>10} {row['update_vs_full']:>8.1%}  "
            f"{row['reason']}"
        )
    return "\n".join(lines)


def test_ablation_delta(benchmark):
    rows = benchmark.pedantic(
        lambda: run_mutation_sweep(
            graph_key="LJ",
            scale=bench_scale(0.2),
            fractions=[0.01, 0.05, 0.1, 0.25, 0.5, 1.0],
        ),
        rounds=1, iterations=1,
    )
    publish("ablation_delta", _format_rows(rows))
    emit_json("ablation_delta", rows)

    by_fraction = {row["mutation_fraction"]: row for row in rows}
    # Sparse mutation: a small delta epoch.
    assert by_fraction[0.01]["mode"] == "delta", rows
    assert by_fraction[0.01]["update_vs_full"] < 0.2, rows
    # Every rank written: exact dirty cards ship only the vertex objects,
    # below the 0.5 byte crossover, so the epoch stays DELTA and never
    # costs more than 10% over the baseline full epoch.
    assert by_fraction[1.0]["mode"] == "delta", rows
    assert by_fraction[1.0]["update_vs_full"] < 0.5, rows
    assert by_fraction[1.0]["update_bytes"] <= 1.1 * by_fraction[1.0]["full_bytes"], rows
    # Epoch bytes grow monotonically-ish with the mutation rate: the
    # saturated point costs more than the sparsest point.
    assert by_fraction[1.0]["update_bytes"] > by_fraction[0.01]["update_bytes"], rows
