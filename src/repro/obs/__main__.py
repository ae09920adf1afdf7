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
  snapshot or a live coordinator's telemetry document.

Every subcommand reads a file or a live coordinator; none runs a scenario
(the end-to-end gates are tier-1 tests: ``tests/test_obs_propagation.py``,
``tests/test_obs_live.py``, ``tests/test_obs_cli.py``).
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
    """Load a telemetry document from disk: a raw ``fleet_telemetry``
    document, or a saved ``telemetry`` RPC result that wraps one."""
    data = _load(path)
    inner = data.get("telemetry")
    if data.get("kind") != "fleet_telemetry" and isinstance(inner, dict) \
            and inner.get("kind") == "fleet_telemetry":
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability reports, live fleet telemetry, and "
                    "trace validation.",
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piped into head/less and truncated
        sys.exit(0)
