"""One simulated JVM process.

Owns a managed heap, a class loader, a GC, a handle (root) table, a
simulated clock, and — when Skyway is attached — the Skyway runtime.  All
allocation should go through :meth:`JVM.new_instance` / :meth:`JVM.new_array`
so that an out-of-memory condition triggers collection exactly as HotSpot
would: scavenge, retry, full collection, retry, then a hard OOM.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import weakref
import zlib
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.heap.gc import GarbageCollector
from repro.heap.handles import Handle, HandleTable
from repro.heap.heap import MB, ManagedHeap, NULL, OutOfMemoryError
from repro.heap.klass import Klass
from repro.heap.layout import BASELINE_LAYOUT, HeapLayout, SKYWAY_LAYOUT
from repro.simtime import Category, CostModel, DEFAULT_COST_MODEL, SimClock
from repro.types.classdef import ClassPath
from repro.types.corelib import standard_classpath
from repro.types.loader import ClassLoader


_jvm_obs_ids = itertools.count(1)


class JVM:
    """A managed runtime instance ("node-local JVM process")."""

    def __init__(
        self,
        name: str = "jvm",
        classpath: Optional[ClassPath] = None,
        layout: HeapLayout = SKYWAY_LAYOUT,
        young_bytes: int = 4 * MB,
        old_bytes: int = 64 * MB,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        clock: Optional[SimClock] = None,
        hash_seed: int = 0x5EED,
    ) -> None:
        self.name = name
        self.classpath = classpath if classpath is not None else standard_classpath()
        self.layout = layout
        self.heap = ManagedHeap(layout, young_bytes=young_bytes, old_bytes=old_bytes)
        self.loader = ClassLoader(self.classpath, layout)
        self.heap.klass_resolver = self.loader.by_klass_id
        self.handles = HandleTable()
        self.gc = GarbageCollector(self.heap, self.handles)
        self.clock = clock if clock is not None else SimClock(name)
        self.cost_model = cost_model
        # crc32, not hash(): str hashes are salted per process, and identity
        # hashcodes (mark-word bytes) must repeat run to run.
        self._hash_rng = random.Random(hash_seed ^ zlib.crc32(name.encode()))
        #: Attached Skyway runtime, if any (set by SkywayRuntime.attach).
        self.skyway: Optional[Any] = None
        # GC pauses and tallies feed the obs snapshot alongside the wire
        # ledgers; keyed uniquely so same-named JVMs don't collide, and
        # held through a weakref so the registry never pins a heap alive.
        ref = weakref.ref(self)

        def _gc_source() -> dict:
            jvm = ref()
            if jvm is None:
                return {"collected": True}
            return {
                "jvm": jvm.name,
                "sim_seconds": jvm.clock.total(),
                **dataclasses.asdict(jvm.gc.stats),
            }

        obs.registry().register_source(
            f"gc.{name}#{next(_jvm_obs_ids)}", _gc_source
        )

    # ------------------------------------------------------------------
    # allocation with GC
    # ------------------------------------------------------------------

    def new_instance(self, class_name: str, charge: bool = True) -> int:
        klass = self.loader.load(class_name)
        if klass.is_array:
            raise TypeError(f"use new_array for array class {class_name}")
        return self._allocate(lambda old: self.heap.allocate(klass, old_gen=old), charge)

    def new_array(self, element_descriptor: str, length: int, charge: bool = True) -> int:
        klass = self.loader.load("[" + element_descriptor)
        return self._allocate(
            lambda old: self.heap.allocate(klass, array_length=length, old_gen=old),
            charge,
        )

    def _allocate(self, attempt: Callable[[bool], int], charge: bool) -> int:
        if charge:
            self.clock.charge(self.cost_model.object_alloc)
        try:
            return attempt(False)
        except OutOfMemoryError:
            pass
        try:
            self.gc.minor()
            return attempt(False)
        except OutOfMemoryError:
            # A failed scavenge (promotion with a full old generation) or a
            # still-full eden both fall through to the slower paths.
            pass
        # Large objects (or a full young gen) go straight to the old gen.
        try:
            return attempt(True)
        except OutOfMemoryError:
            pass
        try:
            self.gc.full()
            return attempt(True)
        except OutOfMemoryError as exc:
            raise OutOfMemoryError(f"{self.name}: heap exhausted") from exc

    # ------------------------------------------------------------------
    # roots
    # ------------------------------------------------------------------

    def pin(self, address: int) -> Handle:
        """Create a GC root keeping ``address`` (and its graph) alive."""
        return self.handles.create(address)

    def unpin(self, handle: Handle) -> None:
        self.handles.release(handle)

    # ------------------------------------------------------------------
    # object services
    # ------------------------------------------------------------------

    def klass_of(self, address: int) -> Klass:
        return self.heap.klass_of(address)

    def identity_hash(self, address: int) -> int:
        """Identity hashcode, lazily computed and cached in the mark word."""
        return self.heap.identity_hash(address, self._hash_rng.getrandbits(31).__int__)

    def get_field(self, address: int, field_name: str):
        """Direct (compiled) field read — no reflection charge."""
        klass = self.klass_of(address)
        return self.heap.read_field(address, klass.field(field_name))

    def set_field(self, address: int, field_name: str, value) -> None:
        klass = self.klass_of(address)
        self.heap.write_field(address, klass.field(field_name), value)

    # String support ------------------------------------------------------

    def new_string(self, text: str, charge: bool = True) -> int:
        """Allocate a java.lang.String backed by a char[] (UTF-16 units)."""
        units = _utf16_units(text)
        chars = self.new_array("C", len(units), charge=charge)
        pin = self.pin(chars)
        try:
            for i, unit in enumerate(units):
                self.heap.write_element(chars, i, unit)
            string = self.new_instance("java.lang.String", charge=charge)
            self.set_field(string, "value", pin.address)
            self.set_field(string, "hash", _java_string_hash(text))
        finally:
            self.unpin(pin)
        return string

    def read_string(self, address: int) -> str:
        klass = self.klass_of(address)
        if klass.name != "java.lang.String":
            raise TypeError(f"not a String: {klass.name}")
        chars = self.get_field(address, "value")
        if chars == NULL:
            return ""
        units = [
            self.heap.read_element(chars, i)
            for i in range(self.heap.array_length(chars))
        ]
        return _units_to_str(units)

    # diagnostics ----------------------------------------------------------

    def heap_usage(self) -> Dict[str, int]:
        return {r.name: r.used for r in self.heap.regions()}

    def heap_histogram(self) -> List[tuple]:
        """Per-class live-object census (the ``jmap -histo`` analog):
        ``[(class_name, instances, bytes), ...]`` sorted by bytes desc."""
        census: Dict[str, List[int]] = {}
        for address in self.heap.live_objects():
            klass = self.heap.klass_of(address)
            row = census.setdefault(klass.name, [0, 0])
            row[0] += 1
            row[1] += self.heap.object_size(address)
        return sorted(
            ((name, count, total) for name, (count, total) in census.items()),
            key=lambda row: -row[2],
        )

    def charge(self, seconds: float, category: Optional[Category] = None) -> None:
        self.clock.charge(seconds, category)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JVM({self.name}, used={self.heap.used_bytes} bytes)"


def baseline_jvm(name: str = "jvm", **kwargs) -> JVM:
    """A JVM with the unmodified (no-baddr) heap layout."""
    return JVM(name, layout=BASELINE_LAYOUT, **kwargs)


def _utf16_units(text: str) -> List[int]:
    data = text.encode("utf-16-le")
    return [
        int.from_bytes(data[i : i + 2], "little") for i in range(0, len(data), 2)
    ]


def _units_to_str(units: List[int]) -> str:
    raw = b"".join(u.to_bytes(2, "little") for u in units)
    return raw.decode("utf-16-le")


def _java_string_hash(text: str) -> int:
    h = 0
    for unit in _utf16_units(text):
        h = (31 * h + unit) & 0xFFFFFFFF
    if h >= 1 << 31:
        h -= 1 << 32
    return h
