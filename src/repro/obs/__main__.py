"""``python -m repro.obs`` — observability artifacts from the terminal.

* ``report <snapshot.json>`` — the paper-style phase breakdown: spans
  rolled up by name, then the per-channel exchange ledgers byte-exact;
  ``--json`` prints the same numbers machine-readable;
* ``trace <trace.json>`` — validate an exported Chrome trace (all spans
  closed, parents resolve and contain, one trace id); exit 1 on problems;
* ``diff <old.json> <new.json>`` — numeric deltas between two snapshots
  (``--json`` for the structured form);
* ``top`` — the live fleet table: polls a coordinator's ``telemetry`` op
  (``--coordinator host:port``) or renders a saved telemetry document
  (``--snapshot file``); ``--once`` prints one frame, ``--json`` dumps
  the raw document;
* ``export --prometheus`` — Prometheus text exposition from an obs
  snapshot or a live coordinator's telemetry document;
* ``smoke [--out DIR]`` — run the end-to-end traced scenario (loopback +
  socket epochs + broadcast), export trace/snapshot JSON, self-check;
* ``live-smoke [--out DIR]`` — spin a real 4-worker fleet, induce a
  straggler on a paced wire, verify detection / postmortem / export /
  overhead; the CI ``obs-live-smoke`` job runs exactly this.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.obs.export import (
    diff_data,
    phase_report_data,
    prometheus_text,
    render_diff,
    render_phase_report,
    validate_chrome_trace,
    validate_prometheus,
)


def _load(path: str) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def _emit(doc: dict) -> int:
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    snapshot = _load(args.snapshot)
    if args.json:
        return _emit(phase_report_data(snapshot))
    print(render_phase_report(snapshot))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    doc = _load(args.trace)
    problems = validate_chrome_trace(doc)
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else []
    spans = [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    print(f"ok: {len(spans)} spans, trace "
          f"{doc.get('otherData', {}).get('trace_id', '?')}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    if args.json:
        return _emit(diff_data(_load(args.old), _load(args.new)))
    print(render_diff(_load(args.old), _load(args.new)))
    return 0


# ---------------------------------------------------------------------------
# live front ends
# ---------------------------------------------------------------------------

def _parse_hostport(value: str) -> tuple:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected host:port, got {value!r}")
    return host, int(port)


def _fetch_telemetry(coordinator: tuple, include_window: bool = False) -> dict:
    """One ``telemetry`` RPC round-trip (document + alive map)."""
    from repro.cluster.membership import CoordinatorClient

    host, port = coordinator
    with CoordinatorClient(host, port) as client:
        result = client.call("telemetry", include_window=include_window)
    return result["telemetry"]


def _telemetry_snapshot(path: str) -> dict:
    """Load a telemetry document from disk, unwrapping known carriers.

    Accepts either a raw ``fleet_telemetry`` document or an artifact
    that embeds one (the live-smoke ``live.json`` keeps its frame under
    ``telemetry_doc``), so every file the tooling writes round-trips.
    """
    data = _load(path)
    if data.get("kind") != "fleet_telemetry":
        for key in ("telemetry_doc", "telemetry"):
            inner = data.get(key)
            if isinstance(inner, dict) and \
                    inner.get("kind") == "fleet_telemetry":
                return inner
    return data


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.live import render_top

    if (args.coordinator is None) == (args.snapshot is None):
        print("top: give exactly one of --coordinator or --snapshot",
              file=sys.stderr)
        return 2

    def frame() -> dict:
        if args.snapshot is not None:
            return _telemetry_snapshot(args.snapshot)
        return _fetch_telemetry(args.coordinator)

    once = args.once or args.json or args.snapshot is not None
    try:
        while True:
            doc = frame()
            if args.json:
                return _emit(doc)
            text = render_top(doc, alive=doc.get("alive"))
            if not once:
                # Clear + home, like top(1): one repaint per interval.
                sys.stdout.write("\x1b[2J\x1b[H")
            print(text)
            sys.stdout.flush()
            if once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if (args.coordinator is None) == (args.snapshot is None):
        print("export: give exactly one of --coordinator or --snapshot",
              file=sys.stderr)
        return 2
    if args.snapshot is not None:
        doc = _telemetry_snapshot(args.snapshot)
    else:
        doc = _fetch_telemetry(args.coordinator)
    text = prometheus_text(doc)
    problems = validate_prometheus(text)
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out} "
              f"({len(text.splitlines())} lines)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.obs.smoke import obs_checks_pass, run_obs_smoke

    result = run_obs_smoke(out_dir=pathlib.Path(args.out),
                           vertices=args.vertices)
    print(render_phase_report(result.pop("snapshot")))
    print()
    for name, ok in result["checks"].items():
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    for problem in result["trace_errors"]:
        print(f"  trace problem: {problem}")
    print(f"  spans={result['spans']} worker_spans={result['worker_spans']} "
          f"trace={result['trace_id']}")
    if "trace_path" in result:
        print(f"  wrote {result['trace_path']}")
        print(f"  wrote {result['snapshot_path']}")
    return 0 if obs_checks_pass(result) else 1


def _cmd_live_smoke(args: argparse.Namespace) -> int:
    from repro.obs.live_smoke import live_checks_pass, run_live_smoke

    result = run_live_smoke(
        out_dir=pathlib.Path(args.out),
        workers=args.workers,
        epochs=args.epochs,
        overhead_epochs=args.overhead_epochs,
        overhead_limit=args.overhead_limit,
    )
    for name, ok in result["checks"].items():
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    for line in result.get("notes", []):
        print(f"  {line}")
    for path in result.get("artifacts", []):
        print(f"  wrote {path}")
    return 0 if live_checks_pass(result) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability reports, live fleet telemetry, trace "
                    "validation, and the traced smoke runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="phase breakdown from a snapshot")
    p.add_argument("snapshot", help="path to an obs snapshot JSON")
    p.add_argument("--json", action="store_true",
                   help="machine-readable phase report")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("trace", help="validate a Chrome trace JSON")
    p.add_argument("trace", help="path to an exported trace JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("diff", help="numeric deltas between two snapshots")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--json", action="store_true",
                   help="machine-readable diff")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("top", help="live fleet telemetry table")
    p.add_argument("--coordinator", type=_parse_hostport, default=None,
                   metavar="HOST:PORT",
                   help="poll a live coordinator's telemetry op")
    p.add_argument("--snapshot", default=None,
                   help="render a saved telemetry document instead")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds (live mode)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit")
    p.add_argument("--json", action="store_true",
                   help="dump the raw telemetry document")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("export", help="Prometheus text exposition")
    p.add_argument("--prometheus", action="store_true",
                   help="(the only format; accepted for clarity)")
    p.add_argument("--coordinator", type=_parse_hostport, default=None,
                   metavar="HOST:PORT",
                   help="export a live coordinator's telemetry document")
    p.add_argument("--snapshot", default=None,
                   help="export a saved obs snapshot / telemetry document")
    p.add_argument("--out", default=None,
                   help="write exposition here instead of stdout")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("smoke", help="traced loopback+socket smoke run")
    p.add_argument("--out", default="benchmarks/results/smoke",
                   help="directory for trace/snapshot artifacts")
    p.add_argument("--vertices", type=int, default=600)
    p.set_defaults(func=_cmd_smoke)

    p = sub.add_parser("live-smoke",
                       help="fleet telemetry end-to-end: straggler, "
                            "postmortem, export, overhead gate")
    p.add_argument("--out", default="benchmarks/results/smoke",
                   help="directory for telemetry artifacts")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--epochs", type=int, default=6,
                   help="traced broadcasts before checking detection")
    p.add_argument("--overhead-epochs", type=int, default=30,
                   help="epochs per leg of the overhead A/B measure")
    p.add_argument("--overhead-limit", type=float, default=0.03,
                   help="allowed relative overhead of telemetry on the "
                        "exchange path (default 3%%)")
    p.set_defaults(func=_cmd_live_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piped into head/less and truncated
        sys.exit(0)
