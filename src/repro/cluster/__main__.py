"""``python -m repro.cluster top`` — the live fleet table.

Polls a coordinator's ``telemetry`` op (``--coordinator host:port``) or
renders a saved telemetry document (``--snapshot file``); ``--once``
prints one frame, ``--json`` dumps the raw document.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.cluster.membership import CoordinatorClient
from repro.obs.live import render_top


def _parse_hostport(value: str) -> tuple:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected host:port, got {value!r}")
    return host, int(port)


def _fetch_telemetry(coordinator: tuple) -> dict:
    """One ``telemetry`` RPC round-trip (document + alive map)."""
    host, port = coordinator
    with CoordinatorClient(host, port) as client:
        return client.call("telemetry")["telemetry"]


def _telemetry_snapshot(path: str) -> dict:
    """Load a telemetry document from disk: a raw ``fleet_telemetry``
    document, or a saved ``telemetry`` RPC result that wraps one."""
    data = json.loads(pathlib.Path(path).read_text())
    inner = data.get("telemetry")
    if data.get("kind") != "fleet_telemetry" and isinstance(inner, dict) \
            and inner.get("kind") == "fleet_telemetry":
        return inner
    return data


def _cmd_top(args: argparse.Namespace) -> int:
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
                print(json.dumps(doc, indent=2, sort_keys=True, default=str))
                return 0
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Live fleet telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piped into head/less and truncated
        sys.exit(0)
