"""B-FANIN — one worker, a thousand concurrent delta channels.

Per channel count (16/128/1024, scaled down by ``REPRO_BENCH_SCALE``), C
delta channels each bootstrap a FULL epoch and then ride a delta epoch
into one worker over one mux connection, digest-gated per channel against
the sender's heap.  The gate: every digest matches, every channel is
acked, epoch 2 is all-delta, and the worker sustains the largest fan-in.
"""

from repro.bench.fanin_experiments import (
    DEFAULT_CHANNELS,
    fanin_checks_pass,
    format_fanin_report,
    run_fanin_experiment,
)

from conftest import bench_scale, emit_json, publish


def test_fanin(benchmark):
    counts = [max(4, int(c * bench_scale())) for c in DEFAULT_CHANNELS]
    result = benchmark.pedantic(
        lambda: run_fanin_experiment(channel_counts=counts),
        rounds=1, iterations=1,
    )

    publish("fanin", format_fanin_report(result))
    emit_json("fanin", result)

    checks = result["checks"]
    assert checks["digests_match_sender"], (
        "a channel's worker-side digest diverged from the sender's heap"
    )
    assert checks["sustains_max_fanin"], (
        "the worker dropped channels at the largest fan-in"
    )
    assert fanin_checks_pass(result), f"B-FANIN gate failed: {checks}"
