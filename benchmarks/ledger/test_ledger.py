"""Self-tests of the perf ledger.

    python -m pytest benchmarks/ledger -q

Tier-1's ``testpaths`` does not collect this file: the ledger checks
itself, the tier-1 suite checks the program.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import compare
import inputs
import spans
import spec

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]


# -- the percentile rule -----------------------------------------------------

@pytest.mark.parametrize("samples, tail", [
    (8, None), (24, None), (99, None), (100, 90), (999, 90), (1000, 99),
])
def test_tail_percentile_needs_ten_samples_beyond_it(samples, tail):
    assert spans.tail_percentile(samples) == tail


def test_no_p90_from_24_samples_but_from_100():
    assert not spans.supports(24, 90)
    assert spans.supports(100, 90)
    assert not spans.supports(100, 99)


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert spans.median(values) == 2.5
    assert spans.percentile(values, 0) == 1.0
    assert spans.percentile(values, 100) == 4.0
    assert spans.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)


# -- span self time ----------------------------------------------------------

def _span(ident, name, start, end, parent=None, op=0):
    return {"id": ident, "name": name, "start": start, "end": end,
            "parent": parent, "op": op}


def test_self_time_nested_children():
    tree = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "send", 1.0, 5.0, parent=0),
        _span(2, "copy", 2.0, 3.0, parent=1),
        _span(3, "recv", 6.0, 9.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}
    assert sum(own.values()) == 10.0  # self times add up to the root


def test_self_time_partially_overlapping_children_count_once():
    tree = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "a", 1.0, 6.0, parent=0),
        _span(2, "b", 4.0, 8.0, parent=0),    # overlaps a on [4, 6]
        _span(3, "c", 9.0, 12.0, parent=0),   # sticks out of the parent
    ]
    own = spans.self_times(tree)
    # covered: [1, 8] and [9, 10] = 8 of the parent's 10 seconds
    assert own[0] == pytest.approx(2.0)
    assert spans.self_time_by_name(tree)["op"] == pytest.approx(2.0)


def test_recorder_links_parent_and_op():
    recorder = spans.SpanRecorder()
    with recorder.span("op", op=7):
        with recorder.span("layer"):
            pass
    outer, inner = recorder.spans
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert inner["op"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    with spans.NoTrace().span("anything"):
        pass


# -- names and limits --------------------------------------------------------

def test_spec_is_valid_and_benchmark_json_is_the_spec():
    doc = spec.benchmark_doc()
    assert spec.validate(doc) == []
    assert spec.validate_layers() == []
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    assert committed == doc
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_layer_says_what_it_moves_or_none():
    for layer in spec.PER_LAYER:
        assert layer.workloads, layer.name
        assert isinstance(layer.moves, tuple)  # () is the explicit "none"
    readme = (HERE / "README.md").read_text()
    for name in spec.LAYER_NAMES + spec.END_TO_END_NAMES:
        assert f"`{name}`" in readme, f"README does not define {name}"


def _broken(**changes):
    doc = spec.benchmark_doc()
    doc.update(changes)
    return spec.validate(doc)


def test_validator_rejects_what_the_contract_rejects():
    row = {"name": "x", "unit": "ms", "better": "lower"}
    assert _broken(workloads=[{"name": "only", "why": "one"}])
    assert _broken(workloads=[{"name": f"w{i}", "why": "w"}
                              for i in range(9)])
    assert _broken(end_to_end=[dict(row, name=f"m{i}", bound=0.1)
                               for i in range(17)])
    assert _broken(per_layer=[dict(row, name=f"l{i}") for i in range(129)])
    assert _broken(per_layer=[dict(row, name="bad name")])
    assert _broken(per_layer=[dict(row, name="x" * 65)])
    assert _broken(per_layer=[dict(row, unit="a unit")])
    assert _broken(per_layer=[dict(row), dict(row)])  # a name used twice
    assert _broken(end_to_end=[dict(row, name="setup_s", unit="s",
                                    bound=0.3)])
    assert _broken(end_to_end=[dict(row, bound=0.1)])  # no setup_s
    assert _broken(run_seconds=61)
    doc = spec.benchmark_doc()
    doc["extra"] = 1
    assert spec.validate(doc)


# -- deterministic inputs ----------------------------------------------------

_INPUT_DIGEST = """
import hashlib, sys
sys.path.insert(0, {here!r})
import inputs
blob = repr((inputs.ring_chord_edges(500, {seed}),
             inputs.mutation_picks(500, 5, {seed}, 3),
             inputs.chain_payloads(4, 6, {seed}),
             inputs.chain_mutations(4, 6, {seed}, 2)))
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def _input_digest(seed, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    done = subprocess.run(
        [sys.executable, "-c",
         _INPUT_DIGEST.format(here=str(HERE), seed=seed)],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    return done.stdout.strip()


def test_inputs_repeat_across_processes_and_differ_across_seeds():
    assert _input_digest(7, 1) == _input_digest(7, 2)
    assert _input_digest(7, 1) != _input_digest(8, 1)


def test_graph_has_uniform_out_degree_and_picks_are_distinct():
    edges = inputs.ring_chord_edges(100, 3)
    assert len(edges) == 200
    assert sorted(src for src, _ in edges) == sorted(list(range(100)) * 2)
    picks = inputs.mutation_picks(100, 10, 3, epoch=0)
    assert len({v for v, _ in picks}) == 10
    assert picks != inputs.mutation_picks(100, 10, 3, epoch=1)


# -- --compare ---------------------------------------------------------------

def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10) == "ok"
    worse = [v * 1.2 for v in steady]
    assert compare.verdict(steady, worse, "lower", 0.10) == "regressed"
    assert compare.verdict(steady, worse, "higher", 0.10) == "ok"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # noisy, but every run of B beats every run of A
    assert compare.verdict(noisy, [10.0, 14.0, 7.0, 12.0, 8.5],
                           "lower", 0.10) == "ok"
    assert compare.spread([5.0]) is None
    assert compare.worsening(100.0, 90.0, "higher") == pytest.approx(0.1)


# -- the one command, shrunken -----------------------------------------------

def _tree_digest(path):
    digest = hashlib.sha256()
    for item in sorted(path.rglob("*")):
        if item.is_file():
            digest.update(str(item.relative_to(path)).encode())
            digest.update(item.read_bytes())
    return digest.hexdigest()


def _session_members(session):
    """Pids, zombies included, whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == session:
                members.append(int(entry))
    return members


def test_smoke_runs_all_four_workloads_into_a_temp_dir(tmp_path):
    results = REPO / "benchmarks" / "results"
    before = ((REPO / "BENCHMARK.json").read_bytes(), _tree_digest(results))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    started = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, "benchmarks/ledger/run.py", "--smoke",
             "--out", str(tmp_path)],
            cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True) as done:
        stdout, stderr = done.communicate(timeout=120)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, stdout[-3000:] + stderr[-3000:]
    assert elapsed < 60.0
    # run.py led its own session; nothing it started may outlive it
    # (a worker, or multiprocessing's resource tracker).
    assert _session_members(done.pid) == []

    ledger = json.loads((tmp_path / "ledger.json").read_text())
    rows = {(r["workload"], r["trace"]): r for r in ledger["runs"]}
    assert sorted(rows) == sorted(
        (w, t) for w in spec.WORKLOAD_NAMES for t in (0, 1))
    for (workload, trace), row in rows.items():
        assert row["correct"] and row["failed"] == 0, (workload, trace)
        assert all(row["checks"].values()), row["checks"]
        names = spec.LAYER_NAMES if trace else spec.END_TO_END_NAMES
        assert sorted(row["metrics"]) == sorted(names)
        for key in ("git_sha", "python", "platform", "nproc", "seed"):
            assert key in row["provenance"]
        assert row["provenance"]["smoke"] is True
        assert row["samples"]
    for workload in spec.WORKLOAD_NAMES:
        untraced, traced = rows[(workload, 0)], rows[(workload, 1)]
        # two fresh processes, same seed: same inputs
        assert untraced["fingerprint"] == traced["fingerprint"]
        for metric in untraced["metrics"].values():
            assert metric["value"] > 0
        for layer in spec.PER_LAYER:
            value = traced["metrics"][layer.name]["value"]
            if not spec.measured_on(layer, workload):
                assert value == 0, (workload, layer.name)
        trace = json.loads((tmp_path / f"trace.{workload}.json").read_text())
        assert trace["spans"] and trace["op_wall_s"] > 0
        assert set(trace["spans"][0]) == {
            "id", "name", "start", "end", "parent", "op"}

    assert before == ((REPO / "BENCHMARK.json").read_bytes(),
                      _tree_digest(results))
