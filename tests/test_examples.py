"""Smoke tests: every example script must run end-to-end.

Examples are part of the public deliverable; these tests import each
script's ``main`` and run it (fast paths), asserting on key output lines.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

#: ``examples/heterogeneous_cluster.py``'s whole stdout: object counts,
#: bytes and simulated CPU of a homogeneous and a converting send.
HETEROGENEOUS_CLUSTER_OUTPUT = """\
Same graph, homogeneous vs heterogeneous destination formats

homogeneous (24-byte headers both sides):
  objects sent      : 18
  transferred bytes : 880
  sender CPU (us)   : 1.12
  receiver CPU (us) : 0.39
  payload intact    : True

heterogeneous (receiver uses 16-byte headers; sender converts):
  objects sent      : 18
  transferred bytes : 736
  sender CPU (us)   : 1.15
  receiver CPU (us) : 0.38
  payload intact    : True

Note: the heterogeneous transfer ships fewer bytes (no baddr word per clone)
and its extra conversion cost lands on the sender only (paper §3.1).
"""


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Received Date [year=2018 month=3 day=24]" in out
        assert "YES" in out  # hashcode preserved

    def test_heterogeneous_cluster(self, capsys):
        load_example("heterogeneous_cluster").main()
        assert capsys.readouterr().out == HETEROGENEOUS_CLUSTER_OUTPUT

    def test_jsbs_shootout_quick(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["jsbs_shootout.py", "--quick"])
        load_example("jsbs_shootout").main()
        out = capsys.readouterr().out
        assert "skyway" in out
        assert "slower than Skyway" in out

    def test_memory_pressure(self, capsys):
        load_example("memory_pressure").main()
        out = capsys.readouterr().out
        assert "reclaimed" in out
        assert "2 buffers still retained" in out

    def test_figure2_date_parsing(self, capsys):
        load_example("figure2_date_parsing").main()
        out = capsys.readouterr().out
        assert "parsed 240 date strings" in out
        assert "closures shipped" in out

    def test_delta_pagerank(self, capsys):
        load_example("delta_pagerank").main()
        out = capsys.readouterr().out
        assert "bootstrap" in out and "delta" in out
        assert "rank sweep" in out and "automatic fallback" in out
        assert "rank vectors identical on 2 workers: True" in out

    @pytest.mark.slow
    def test_spark_pagerank(self, capsys):
        load_example("spark_pagerank").main()
        out = capsys.readouterr().out
        assert "PageRank" in out and "skyway" in out

    @pytest.mark.slow
    def test_flink_queries(self, capsys):
        load_example("flink_queries").main()
        out = capsys.readouterr().out
        assert "QA" in out and "Skyway" in out
