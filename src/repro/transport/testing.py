"""Spawn-importable fixtures for transport tests and benchmarks.

Worker processes receive a ``"module:function"`` classpath-factory string
(:mod:`repro.transport.bootstrap`), and the spawned interpreter must be
able to import that module from ``PYTHONPATH`` alone — test ``conftest``
modules are not importable there, so the shared schema lives here.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.apps.incremental import install_incremental_classes
from repro.types.classdef import ClassPath
from repro.types.corelib import install_core_classes


def sample_worker_classpath() -> ClassPath:
    """Core library + the test schema (Date/ListNode, as in the test
    suite's conftest) + the vertex-graph schema used for round-trips."""
    cp = install_core_classes(ClassPath())
    install_incremental_classes(cp)
    cp.define("Year4D", [("year", "I")])
    cp.define("Month2D", [("month", "I")])
    cp.define("Day2D", [("day", "I")])
    cp.define(
        "Date",
        [("year", "LYear4D;"), ("month", "LMonth2D;"), ("day", "LDay2D;")],
    )
    cp.define("ListNode", [("payload", "J"), ("next", "LListNode;")])
    return cp


SAMPLE_FACTORY = "repro.transport.testing:sample_worker_classpath"


def ring_edges(n: int, extra_chords: int = 0) -> List[Tuple[int, int]]:
    """A deterministic connected edge list: an n-ring plus optional
    chords (``i -> (i*7+3) % n``), sized to grow object graphs predictably."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(extra_chords):
        edges.append((i % n, (i * 7 + 3) % n))
    return edges
