"""``python -m repro.obs`` through ``main(argv)``, on library-written files."""

import json

import pytest

from repro import obs
from repro.obs.__main__ import main
from repro.obs.export import to_chrome_trace


def _dump(path, doc):
    path.write_text(json.dumps(doc, default=str))
    return str(path)


def test_trace_validates_and_rejects_an_unclosed_span(tmp_path, capsys):
    tracer = obs.enable("cli")
    with obs.span("closed"):
        pass
    good = _dump(tmp_path / "good.json",
                 to_chrome_trace(tracer.spans(), trace_id=tracer.trace_id))
    obs.start_span("dangling")
    bad = _dump(tmp_path / "bad.json",
                to_chrome_trace(tracer.spans(), trace_id=tracer.trace_id))
    assert main(["trace", good]) == 0
    assert "ok: 1 spans" in capsys.readouterr().out
    assert main(["trace", bad]) == 1
    assert "INVALID:" in capsys.readouterr().out


def test_report_and_diff_read_obs_snapshots(tmp_path, capsys):
    obs.enable("cli")
    with obs.span("send.traverse"):
        obs.registry().counter("cli.sends")
    old = _dump(tmp_path / "old.json", obs.snapshot())
    obs.registry().counter("cli.sends")
    new = _dump(tmp_path / "new.json", obs.snapshot())
    assert main(["report", old]) == 0
    assert "send.traverse" in capsys.readouterr().out
    assert main(["report", "--json", old]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["diff", old, new]) == 0
    assert "cli.sends" in capsys.readouterr().out


def test_help_lists_exactly_the_three_subcommands(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "{report,trace,diff}" in capsys.readouterr().out
