#!/usr/bin/env python3
"""The perf ledger: the repo's one benchmark command.

    python benchmarks/ledger/run.py                    # all four workloads
    python benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1                        # one run (the driver)
    python benchmarks/ledger/run.py --smoke --out DIR  # shrunken, seconds
    python benchmarks/ledger/run.py --compare A.json B.json

One run of one workload prints every metric by name with its unit, checks
that the outputs are correct, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` (bench spans and ``repro.obs`` off), the per-layer
metrics with ``--trace 1``.  Without ``--workload`` every workload is run
both ways, each in a fresh process, and the rows land in ``ledger.json``
under ``--out`` (default ``benchmarks/ledger/out``, git-ignored).  No
mode writes ``BENCHMARK.json`` or anything under ``benchmarks/results/``.
"""

from __future__ import annotations

import time

ENTERED = time.perf_counter()  # set-up time counts from here

import argparse
import atexit
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
from typing import Dict, List, Optional

import spec

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
DEFAULT_SEED = 20180324
DEFAULT_OUT = HERE / "out"
#: A stalled workload is cut off here, its ops counted as failed.
DEADLINE_S = 150
SMOKE_SECONDS = 0.6


def export_src() -> None:
    """Make ``repro`` importable here and in ``multiprocessing.spawn``
    children, so the bare command works from the repo root."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC))


def provenance(args: argparse.Namespace) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def _children() -> List[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "pid (comm) state ppid ..."; comm may hold spaces
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # it ended while we looked
        if ppid == me:
            found.append(int(entry))
    return found


def _kill(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass  # already gone


def reap_children() -> None:
    """Leave no process behind.  Any child still alive after the
    workload's own teardown is killed.  ``multiprocessing.spawn`` also
    starts a resource-tracker child that only exits once every holder of
    its pipe is gone, this process included, so it would outlive the run:
    close the pipe.  Then wait until every child has ended.  Safe to call
    more than once."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    _kill(pid for pid in _children()
          if pid != getattr(tracker, "_pid", None))
    try:
        tracker._stop()
    except (AttributeError, OSError):
        _kill(_children())  # no gentle way on this Python; it holds nothing
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _on_terminate(signum, frame):
    sys.exit(128 + signum)  # unwind, so the worker is reaped on the way out


def _on_deadline(signum, frame):
    from workloads import DeadlineExceeded
    raise DeadlineExceeded(f"workload exceeded its {DEADLINE_S}s deadline")


def run_one(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process."""
    export_src()
    from spans import SpanRecorder, durations_by_name, median, \
        self_time_by_name
    import workloads
    from workloads import DeadlineExceeded

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    atexit.register(reap_children)  # registered first, so it runs last
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    recorder = SpanRecorder()
    setup_s: List[float] = []
    measured: Dict[str, float] = {}
    imported_s = time.perf_counter() - ENTERED
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        reps = 1 if args.trace else sizes.setup_reps
        for rep in range(reps):
            if rep:
                workload.close()
            started = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - started)
        if args.trace:
            measured = workload.run_traced(args.seconds, recorder)
        else:
            measured = workload.run_untraced(args.seconds)
            measured["setup_s"] = imported_s + median(setup_s)
    except DeadlineExceeded as exc:
        workload.attempted += 1
        workload.fail(exc)
    finally:
        signal.alarm(0)
        workload.close()
        reap_children()

    if args.trace:
        table = [(l.name, l.unit) for l in spec.PER_LAYER]
    else:
        table = [(m.name, m.unit) for m in spec.END_TO_END]
    metrics = {
        name: {"value": measured.get(name, 0.0), "unit": unit}
        for name, unit in table
    }
    correct = (workload.failed == 0 and bool(measured)
               and all(workload.checks.values()))
    result = {
        "schema": 1,
        "provenance": provenance(args),
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "failures": workload.failures[:20],
        "checks": workload.checks,
        "fingerprint": workload.fingerprint,
        "samples": workload.samples,
        "notes": workload.notes,
        "setup_samples_s": setup_s,
        "metrics": metrics,
    }

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"run.{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    if args.trace:
        op_wall = sum(durations_by_name(recorder.spans).get("op", ()))
        (out / f"trace.{args.workload}.json").write_text(json.dumps({
            "workload": args.workload,
            "provenance": result["provenance"],
            "op_wall_s": op_wall,
            "self_time_s": self_time_by_name(recorder.spans),
            "spans": recorder.spans,
        }) + "\n")

    print(f"ledger {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} smoke={args.smoke}")
    print("fingerprint " + " ".join(
        f"{k}={v}" for k, v in workload.fingerprint.items()))
    print("samples " + " ".join(
        f"{k}={v}" for k, v in sorted(workload.samples.items()))
        + f" setup={len(setup_s)}")
    for name, value in sorted(workload.notes.items()):
        print(f"  note {name:<35} {value:>16.6g}")
    for name, unit in table:
        print(f"  {name:<40} {metrics[name]['value']:>16.6g} {unit}")
    for name, ok in sorted(workload.checks.items()):
        print(f"  check {name:<40} {'ok' if ok else 'FAILED'}")
    for failure in workload.failures[:20]:
        print(f"  failure: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process
    (set-up time and peak RSS are per process); rows go to ledger.json."""
    export_src()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    rows = []
    status = 0
    for _ in range(args.runs):
        for name in names:
            for trace in (0, 1):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--trace", str(trace),
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--out", str(out),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(
                    command, capture_output=True, text=True,
                    timeout=DEADLINE_S + 30)
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                status = status or done.returncode
                path = out / f"run.{name}.trace{trace}.json"
                if done.returncode in (0, 1) and path.exists():
                    rows.append(json.loads(path.read_text()))
    ledger = {"schema": 1, "provenance": provenance(args), "runs": rows}
    (out / "ledger.json").write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"ledger: {len(rows)} rows in {out / 'ledger.json'}"
          + ("" if status == 0 else "  (FAILURES above)"))
    return status


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes, for the self-tests")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for run, trace and ledger files")
    parser.add_argument("--runs", type=int, default=1,
                        help="sets of runs when running every workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two ledger.json files and exit")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec.RUN_SECONDS
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        from compare import compare_files
        return compare_files(*args.compare)
    if args.workload is not None \
            and args.workload not in spec.WORKLOAD_NAMES:
        sys.exit(f"ledger: unknown workload {args.workload!r}; "
                 f"one of {', '.join(spec.WORKLOAD_NAMES)}")
    if args.workload is not None and args.trace is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
