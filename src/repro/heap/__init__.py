"""The managed-heap substrate: a byte-addressed simulated JVM heap.

This package stands in for HotSpot in the reproduction (see DESIGN.md):
objects live at addresses inside mmap-backed generations with real
mark/klass headers, HotSpot-like field alignment and padding, a card table,
and a generational garbage collector.  Skyway's sender/receiver operate on
these bytes directly, exactly as the paper's JVM modification operates on
HotSpot's.
"""

from repro.heap.layout import HeapLayout, BASELINE_LAYOUT, SKYWAY_LAYOUT
from repro.heap.klass import FieldInfo, Klass
from repro.heap.heap import HeapError, ManagedHeap, OutOfMemoryError, NULL
from repro.heap.handles import Handle, HandleTable
from repro.heap.cardtable import CardTable
from repro.heap import markword

__all__ = [
    "HeapLayout",
    "BASELINE_LAYOUT",
    "SKYWAY_LAYOUT",
    "FieldInfo",
    "Klass",
    "ManagedHeap",
    "HeapError",
    "OutOfMemoryError",
    "NULL",
    "Handle",
    "HandleTable",
    "CardTable",
    "markword",
]
