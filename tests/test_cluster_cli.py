"""``python -m repro.cluster`` through ``main(argv)``, on a library-written
telemetry document."""

import json

from repro.cluster.__main__ import main
from repro.obs.live import FleetTelemetry, LATENCY_SERIES, TelemetrySampler
from repro.obs.registry import MetricsRegistry


def _dump(path, doc):
    path.write_text(json.dumps(doc, default=str))
    return str(path)


def test_top_reads_a_fleet_document(tmp_path, capsys):
    registry = MetricsRegistry()
    registry.observe(LATENCY_SERIES, 0.004)
    fleet = FleetTelemetry()
    fleet.ingest("w0", 1, TelemetrySampler(registry).sample())
    doc = _dump(tmp_path / "telemetry.json", fleet.document())
    assert main(["top", "--snapshot", doc, "--once"]) == 0
    assert "w0" in capsys.readouterr().out
    command = ["top", "--once"]
    both = command + ["--snapshot", doc, "--coordinator", "127.0.0.1:1"]
    assert main(command) == main(both) == 2  # neither source; both
    assert "exactly one of" in capsys.readouterr().err
