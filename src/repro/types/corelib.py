"""Core library class definitions shared by every experiment.

These mirror the JDK classes the paper's workloads depend on: ``Object``,
``String`` (a char-array holder), the primitive boxes, ``HashMap`` (a
bucketed node table whose layout depends on cached hashcodes — the structure
Skyway's hashcode preservation keeps valid across the wire, §4.2 "Header
Update"), ``ArrayList``, and generic ``TupleN`` record carriers used by the
dataflow engines.
"""

from __future__ import annotations

from repro.types.classdef import ClassDef, ClassPath, OBJECT_CLASS

STRING = "java.lang.String"
INTEGER = "java.lang.Integer"
LONG = "java.lang.Long"
DOUBLE = "java.lang.Double"
BOOLEAN = "java.lang.Boolean"
HASHMAP = "java.util.HashMap"
HASHMAP_NODE = "java.util.HashMap$Node"
ARRAYLIST = "java.util.ArrayList"
HASHSET = "java.util.HashSet"
LONGSET = "repro.runtime.LongSet"
DOUBLESET = "repro.runtime.DoubleSet"

TUPLE_PREFIX = "repro.runtime.Tuple"
# Flink defines Tuple1..Tuple25; 32 covers every schema in this repo,
# including multi-way TPC-H join results (QE peaks at 23 fields).
MAX_TUPLE_ARITY = 32


def tuple_class_name(arity: int) -> str:
    if not 1 <= arity <= MAX_TUPLE_ARITY:
        raise ValueError(f"tuple arity out of range: {arity}")
    return f"{TUPLE_PREFIX}{arity}"


#: Specialization signatures: like Scala's @specialized TupleN subclasses
#: (Tuple2$mcJI$sp...), a signature letter per field: J = primitive long,
#: D = primitive double, L = reference.  Shuffle records of primitives are
#: one flat object — no boxing — which is what keeps Skyway's Spark byte
#: overhead at the paper's ~1.8x-of-Kryo level rather than several-x.
SPECIALIZED_ARITY_LIMIT = 4
_SIG_LETTERS = ("J", "D", "L")


def specialized_tuple_name(signature: str) -> str:
    if not 1 <= len(signature) <= SPECIALIZED_ARITY_LIMIT:
        raise ValueError(f"bad specialization arity: {signature!r}")
    if any(c not in _SIG_LETTERS for c in signature):
        raise ValueError(f"bad specialization signature: {signature!r}")
    return f"{TUPLE_PREFIX}{len(signature)}${signature}"


def _specialized_defs():
    import itertools as _it

    defs = []
    for arity in range(1, SPECIALIZED_ARITY_LIMIT + 1):
        for sig in _it.product(_SIG_LETTERS, repeat=arity):
            signature = "".join(sig)
            if signature == "L" * arity:
                continue  # the generic TupleN covers all-reference
            fields = []
            for i, letter in enumerate(signature):
                if letter == "L":
                    fields.append((f"f{i}", "Ljava.lang.Object;"))
                else:
                    fields.append((f"f{i}", letter))
            defs.append(
                ClassDef.define(specialized_tuple_name(signature), fields)
            )
    return defs


def _core_class_defs() -> tuple:
    """Definitions for the simulated JDK core library."""
    defs = [
        ClassDef.define(STRING, [("value", "[C"), ("hash", "I")]),
        ClassDef.define(INTEGER, [("value", "I")], super_name="java.lang.Number"),
        ClassDef.define(LONG, [("value", "J")], super_name="java.lang.Number"),
        ClassDef.define(DOUBLE, [("value", "D")], super_name="java.lang.Number"),
        ClassDef.define(BOOLEAN, [("value", "Z")]),
        ClassDef.define("java.lang.Number", []),
        ClassDef.define(
            HASHMAP_NODE,
            [
                ("hash", "I"),
                ("key", "Ljava.lang.Object;"),
                ("value", "Ljava.lang.Object;"),
                ("next", f"L{HASHMAP_NODE};"),
            ],
        ),
        ClassDef.define(
            HASHMAP,
            [("table", f"[L{HASHMAP_NODE};"), ("size", "I"), ("threshold", "I")],
        ),
        ClassDef.define(
            ARRAYLIST,
            [("elementData", "[Ljava.lang.Object;"), ("size", "I")],
        ),
        # Modeled as an insertion-ordered element array: enough structure
        # for transfer experiments without a second bucket-table model.
        ClassDef.define(
            HASHSET,
            [("elementData", "[Ljava.lang.Object;"), ("size", "I")],
        ),
        # Primitive-specialized sets (GraphX-style compact vertex sets):
        # most shuffled bytes in graph workloads live in primitive arrays,
        # which is what keeps Skyway's byte overhead near the paper's
        # 1.77x-of-Kryo (boxes would inflate it several-fold).
        ClassDef.define(LONGSET, [("elements", "[J")]),
        ClassDef.define(DOUBLESET, [("elements", "[D")]),
    ]
    for arity in range(1, MAX_TUPLE_ARITY + 1):
        defs.append(
            ClassDef.define(
                tuple_class_name(arity),
                [(f"f{i}", "Ljava.lang.Object;") for i in range(arity)],
            )
        )
    defs.extend(_specialized_defs())
    return tuple(defs)


#: Built once at import: every definition is frozen and ``ClassPath.add``
#: compares by value, so every class path can share these objects.
CORE_CLASS_DEFS = _core_class_defs()


def install_core_classes(classpath: ClassPath) -> ClassPath:
    """Add the core library to ``classpath`` (idempotent)."""
    for d in CORE_CLASS_DEFS:
        if d.name not in classpath:
            classpath.add(d)
    return classpath


def standard_classpath() -> ClassPath:
    """A fresh class path holding Object + the core library."""
    return install_core_classes(ClassPath())


__all__ = [
    "OBJECT_CLASS",
    "STRING",
    "INTEGER",
    "LONG",
    "DOUBLE",
    "BOOLEAN",
    "HASHMAP",
    "HASHMAP_NODE",
    "ARRAYLIST",
    "HASHSET",
    "LONGSET",
    "DOUBLESET",
    "TUPLE_PREFIX",
    "MAX_TUPLE_ARITY",
    "tuple_class_name",
    "specialized_tuple_name",
    "SPECIALIZED_ARITY_LIMIT",
    "CORE_CLASS_DEFS",
    "install_core_classes",
    "standard_classpath",
]
