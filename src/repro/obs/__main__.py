"""``python -m repro.obs`` — observability artifacts from the terminal.

* ``report <snapshot.json>`` — the paper-style phase breakdown: spans
  rolled up by name, then the per-channel exchange ledgers byte-exact;
  ``--json`` prints the same numbers machine-readable;
* ``trace <trace.json>`` — validate an exported Chrome trace (all spans
  closed, parents resolve and contain, one trace id); exit 1 on problems;
* ``diff <old.json> <new.json>`` — numeric deltas between two snapshots
  (``--json`` for the structured form).

Every subcommand reads a file; none runs a scenario (the end-to-end gates
are tier-1 tests: ``tests/test_obs_propagation.py``,
``tests/test_obs_live.py``, ``tests/test_obs_cli.py``).  The live fleet
table is ``python -m repro.cluster top``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.obs.export import (
    diff_data,
    phase_report_data,
    render_diff,
    render_phase_report,
    validate_chrome_trace,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability reports and trace validation.",
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piped into head/less and truncated
        sys.exit(0)
