"""The fleet-telemetry end-to-end smoke (``repro.obs live-smoke``).

One scripted scenario exercising the whole telemetry plane against real
processes — what the CI ``obs-live-smoke`` job runs:

1. spin a coordinator + N strict workers (telemetry on), one of them
   behind a paced wire (``throttle_mbps`` on its driver channel only);
2. broadcast a mutating graph for a few epochs: every worker's
   epoch-receive series streams back on heartbeats, and the coordinator
   must flag *exactly* the paced worker as a straggler;
3. SIGKILL a healthy worker: its postmortem (final series + the
   flight-recorder dump its last heartbeat carried) must still be
   readable from the coordinator after death is detected;
4. render the ``top`` table and the Prometheus exposition from the live
   document, and line-validate the exposition;
5. the overhead gate: an A/B pair of single-worker fleets (telemetry on
   vs off) runs the same epoch loop; the min-of-epochs wall time may
   differ by at most ``overhead_limit`` (3 % default).

Artifacts land in ``<out_dir>/live.{json,prom}`` and ``live-top.txt``
(the CLI defaults to the git-ignored ``benchmarks/results/smoke/``).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, List, Optional

from repro.apps.incremental import IncrementalPageRank, build_vertex_graph
from repro.cluster.fleet import Fleet
from repro.cluster.harness import FleetHarness
from repro.obs.export import prometheus_text, validate_prometheus
from repro.obs.live import render_top
from repro.transport.bootstrap import MB, build_runtime
from repro.transport.testing import SAMPLE_FACTORY, irregular_edges

DEFAULT_WORKERS = 4
DEFAULT_EPOCHS = 6
DEFAULT_VERTICES = 500
#: The induced straggler's wire pace.  A delta epoch of the smoke graph
#: is a few tens of KB — ~60 ms at this rate versus sub-millisecond
#: loopback for the healthy workers, far past the 3× median rule.
STRAGGLER_WIRE_MBPS = 4.0
MUTATION_FRACTION = 0.10
#: Seconds allowed for heartbeat-carried samples to land and the
#: coordinator's monitor sweep to run detection (≈ 2 heartbeat windows).
SETTLE_SECONDS = 0.3


def _wait_until(predicate, timeout: float, poll: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


def _straggler_leg(workers: int, vertices: int, epochs: int,
                   notes: List[str]) -> Dict[str, object]:
    """The main scenario: paced worker flagged, postmortem survives."""
    driver = build_runtime("live-smoke-driver", SAMPLE_FACTORY,
                           old_bytes=128 * MB)
    pin = driver.jvm.pin(
        build_vertex_graph(driver.jvm, irregular_edges(vertices)))
    graph = pin.address
    pagerank = IncrementalPageRank(driver.jvm, graph)

    out: Dict[str, object] = {"workers": workers, "epochs": epochs}
    with FleetHarness(workers, name="livesmoke", read_timeout=120.0,
                      heartbeat_interval=0.1,
                      straggler_min_samples=3) as harness:
        fleet = Fleet.connect(driver, harness.coordinator.host,
                              harness.coordinator.port, read_timeout=120.0)
        try:
            names = harness.worker_names
            slow = names[-1]
            out["paced_worker"] = slow
            # Channels are cached per worker: opening the paced one first
            # pins its throttle for every later broadcast.
            fleet.channel_to(slow, throttle_mbps=STRAGGLER_WIRE_MBPS)

            events: List[dict] = []
            for _ in range(epochs):
                result = fleet.broadcast([graph])
                events.extend(result.stragglers)
                pagerank.step(active_fraction=MUTATION_FRACTION)
                time.sleep(SETTLE_SECONDS)
            # Detection runs on the coordinator's monitor cadence; give
            # it up to two more heartbeat windows to fire.
            _wait_until(
                lambda: events.extend(fleet.new_stragglers()) or any(
                    e["event"] == "straggler" for e in events),
                timeout=2 * 0.1 * harness.size,
            )
            flagged = sorted({e["worker"] for e in events
                              if e["event"] == "straggler"})
            out["straggler_events"] = events
            out["flagged"] = flagged
            notes.append(f"flagged={flagged} (paced worker: {slow})")

            doc = fleet.telemetry()
            out["telemetry_doc"] = doc
            out["top_text"] = render_top(doc)
            prom = prometheus_text(doc)
            out["prometheus_text"] = prom
            out["prometheus_problems"] = validate_prometheus(prom)

            # -- kill a *healthy* worker; its telemetry must outlive it.
            victim = names[0]
            out["victim"] = victim
            harness.kill_worker(victim)
            dead = _wait_until(
                lambda: not fleet.lookup(victim)["alive"], timeout=10.0)
            out["victim_declared_dead"] = dead
            postmortem = fleet.postmortem(victim)
            out["postmortem_found"] = postmortem is not None
            if postmortem is not None:
                out["postmortem_samples"] = postmortem["samples"]
                out["postmortem_recorder_entries"] = len(
                    postmortem["recorder"])
                out["postmortem_window_len"] = len(
                    postmortem.get("window", []))
                out["postmortem_epochs"] = postmortem["counters"].get(
                    "worker.epochs", 0)
            out["rollups"] = doc.get("rollups", {})
            return out
        finally:
            fleet.close()
            driver.jvm.unpin(pin)


def _overhead_leg(telemetry: bool, vertices: int,
                  epochs: int) -> Dict[str, object]:
    """One leg of the A/B overhead measure: a single-worker fleet runs
    the same delta-epoch loop; min-of-epochs damps scheduler noise."""
    suffix = "on" if telemetry else "off"
    driver = build_runtime(f"live-ab-{suffix}", SAMPLE_FACTORY,
                           old_bytes=128 * MB)
    pin = driver.jvm.pin(
        build_vertex_graph(driver.jvm, irregular_edges(vertices)))
    graph = pin.address
    pagerank = IncrementalPageRank(driver.jvm, graph)
    per_epoch: List[float] = []
    with FleetHarness(1, name=f"liveab{suffix}", read_timeout=120.0,
                      heartbeat_interval=0.1,
                      telemetry=telemetry) as harness:
        fleet = Fleet.connect(driver, harness.coordinator.host,
                              harness.coordinator.port, read_timeout=120.0)
        try:
            fleet.broadcast([graph])  # FULL bootstrap, not timed
            for _ in range(epochs):
                pagerank.step(active_fraction=MUTATION_FRACTION)
                started = time.perf_counter()
                fleet.broadcast([graph])
                per_epoch.append(time.perf_counter() - started)
        finally:
            fleet.close()
            driver.jvm.unpin(pin)
    return {
        "telemetry": telemetry,
        "epochs": len(per_epoch),
        "min_epoch_seconds": min(per_epoch),
        "mean_epoch_seconds": sum(per_epoch) / len(per_epoch),
    }


def run_live_smoke(
    out_dir: Optional[pathlib.Path] = None,
    workers: int = DEFAULT_WORKERS,
    vertices: int = DEFAULT_VERTICES,
    epochs: int = DEFAULT_EPOCHS,
    overhead_epochs: int = 30,
    overhead_limit: float = 0.03,
) -> Dict[str, object]:
    """Run the whole scenario; returns a JSON-serializable result dict."""
    notes: List[str] = []
    main = _straggler_leg(workers, vertices, epochs, notes)

    leg_on = _overhead_leg(True, vertices, overhead_epochs)
    leg_off = _overhead_leg(False, vertices, overhead_epochs)
    base = leg_off["min_epoch_seconds"]
    overhead = (leg_on["min_epoch_seconds"] - base) / base if base > 0 else 0.0
    notes.append(
        f"overhead: telemetry {leg_on['min_epoch_seconds'] * 1e3:.2f} ms "
        f"vs off {base * 1e3:.2f} ms per epoch "
        f"({overhead * 100:+.2f}%, limit {overhead_limit * 100:.0f}%)"
    )

    checks = {
        "straggler_flagged": any(
            e["event"] == "straggler" for e in main["straggler_events"]),
        "straggler_exactly_paced": main["flagged"] == [main["paced_worker"]],
        "top_renders": all(
            name in main["top_text"]
            for name in main["telemetry_doc"]["workers"]),
        "prometheus_valid": not main["prometheus_problems"],
        "postmortem_survives_death": bool(
            main.get("victim_declared_dead")
            and main.get("postmortem_found")
            and main.get("postmortem_samples", 0) > 0
            and main.get("postmortem_recorder_entries", 0) > 0
            and main.get("postmortem_epochs", 0) > 0),
        "telemetry_overhead_ok": overhead <= overhead_limit,
    }

    result: Dict[str, object] = {
        "workers": workers,
        "vertices": vertices,
        "epochs": epochs,
        "paced_worker": main["paced_worker"],
        "flagged": main["flagged"],
        "victim": main["victim"],
        "postmortem_samples": main.get("postmortem_samples", 0),
        "postmortem_recorder_entries": main.get(
            "postmortem_recorder_entries", 0),
        "overhead": {
            "telemetry_on": leg_on, "telemetry_off": leg_off,
            "relative": overhead, "limit": overhead_limit,
        },
        "straggler_events": main["straggler_events"],
        "rollups": main["rollups"],
        "checks": checks,
        "notes": notes,
        "artifacts": [],
    }

    if out_dir is not None:
        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        doc_path = out_dir / "live.json"
        payload = dict(result)
        payload["telemetry_doc"] = main["telemetry_doc"]
        doc_path.write_text(json.dumps(payload, indent=2, default=str))
        prom_path = out_dir / "live.prom"
        prom_path.write_text(main["prometheus_text"])
        top_path = out_dir / "live-top.txt"
        top_path.write_text(main["top_text"] + "\n")
        result["artifacts"] = [str(doc_path), str(prom_path), str(top_path)]
    return result


def live_checks_pass(result: Dict[str, object]) -> bool:
    return all(result["checks"].values())
