"""Tests for the experiment harness and report renderers."""

import pytest

from repro.bench.extra_bytes import average_composition, measure_extra_byte_composition
from repro.bench.flink_experiments import run_flink_query
from repro.bench.memory import measure_baddr_overhead
from repro.bench.report import (
    format_breakdown_table,
    format_bytes_table,
    format_kv_section,
    format_normalized_table,
    format_table1,
    geometric_mean,
)
from repro.bench.spark_experiments import (
    check_results_agree,
    run_spark_app,
    summarize_table2,
)
from repro.datasets import table1_rows
from repro.simtime import Breakdown


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geometric_mean([0.0, 2.0, 8.0]) == pytest.approx(4.0)


class TestRenderers:
    def test_breakdown_table_contains_components(self):
        rows = {"kryo": Breakdown(computation=1.0, serialization=0.5)}
        text = format_breakdown_table(rows, "T", "ms")
        assert "kryo" in text
        assert "Serialization" in text
        assert "1500.000" in text  # 1.5s total in ms

    def test_bytes_table(self):
        text = format_bytes_table({"java": (10, 20)}, "B")
        assert "10" in text and "30" in text

    def test_normalized_table_ranges(self):
        norms = {"Skyway": [
            {"overall": 0.5, "ser": 1.0, "write": 1.0, "des": 1.0,
             "read": 1.0, "size": 2.0},
            {"overall": 2.0, "ser": 1.0, "write": 1.0, "des": 1.0,
             "read": 1.0, "size": 2.0},
        ]}
        text = format_normalized_table(norms, "T2")
        assert "0.50 ~  2.00 (1.00)" in text

    def test_normalized_table_skips_infinite(self):
        norms = {"X": [{"overall": float("inf"), "ser": 1.0, "write": 1.0,
                        "des": 1.0, "read": 1.0, "size": 1.0}]}
        text = format_normalized_table(norms, "T")
        assert "-" in text

    def test_table1_renderer(self):
        text = format_table1(table1_rows(scale=0.02))
        assert "LiveJournal" in text and "Twitter-2010" in text

    def test_kv_section(self):
        text = format_kv_section("Title", {"a": 1.23456, "b": "x"})
        assert "Title" in text and "1.235" in text and "x" in text


class TestSparkRunners:
    def test_run_spark_app_returns_breakdown(self):
        result = run_spark_app("WC", "LJ", "kryo", scale=0.01)
        assert result.breakdown.total > 0
        assert result.breakdown.serialization > 0
        assert result.app == "WC"

    def test_summarize_table2_normalizes(self):
        runs = {}
        for s in ("java", "kryo"):
            runs[("WC", "LJ", s)] = run_spark_app("WC", "LJ", s, scale=0.01)
        summary = summarize_table2(runs)
        assert len(summary["Kryo"]) == 1
        assert summary["Skyway"] == []  # no skyway run provided
        assert 0 < summary["Kryo"][0]["overall"] < 1.5

    def test_check_results_agree_detects_mismatch(self):
        runs = {}
        for s in ("java", "kryo"):
            runs[("WC", "LJ", s)] = run_spark_app("WC", "LJ", s, scale=0.01)
        assert check_results_agree(runs) == []
        bad = dict(runs)
        import dataclasses
        bad[("WC", "LJ", "kryo")] = dataclasses.replace(
            bad[("WC", "LJ", "kryo")], result_digest="corrupted")
        assert check_results_agree(bad) == [("WC", "LJ")]


class TestFlinkRunner:
    def test_run_flink_query_both_modes(self):
        for mode in ("builtin", "skyway"):
            result = run_flink_query("QA", mode, micro_scale=0.2)
            assert result.rows > 0
            assert result.breakdown.total > 0


class TestMemoryAndBytes:
    def test_baddr_overhead_in_plausible_band(self):
        overheads = measure_baddr_overhead(apps=("PR", "TC"), scale=0.1)
        for app, v in overheads.items():
            assert 0.0 < v < 0.35, app
        # Array-heavy TC amortizes headers better than tuple-heavy PR.
        assert overheads["TC"] < overheads["PR"]

    def test_extra_byte_composition_sums_to_one(self):
        per_app = measure_extra_byte_composition(apps=("PR",), scale=0.05)
        comp = average_composition(per_app)
        assert comp["headers"] + comp["padding"] + comp["pointers"] == \
            pytest.approx(1.0)
        assert comp["headers"] > comp["pointers"]

