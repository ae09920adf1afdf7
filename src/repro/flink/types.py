"""Typed rows and Flink's built-in per-field serializers.

A :class:`RowType` is the compile-time schema of a dataset.  The built-in
serializer encodes each field with a type-specialized codec (fixed-width
numerics, length-prefixed UTF-8 strings) and *no* type tags — the schema is
static, exactly why Flink's built-in serializers beat generic ones.

Lazy deserialization: the receiving side decodes a row's key and accessed
fields only; the remaining fields stay binary until touched (they never are,
in batch pipelines that project early).  Costs are charged accordingly.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import Any, List, Optional, Sequence, Tuple

from repro.jvm.jvm import JVM
from repro.net.streams import ByteInputStream, ByteOutputStream
from repro.simtime import CostModel


class FieldKind(enum.Enum):
    LONG = "long"
    INT = "int"
    DOUBLE = "double"
    STRING = "string"
    DATE = "date"  # stored as int32 days since epoch



@dataclasses.dataclass(frozen=True)
class RowType:
    """A named, ordered field schema."""

    name: str
    fields: Tuple[Tuple[str, FieldKind], ...]

    @classmethod
    def of(cls, name: str, *fields: Tuple[str, FieldKind]) -> "RowType":
        return cls(name, tuple(fields))

    @property
    def arity(self) -> int:
        return len(self.fields)

    def index_of(self, field_name: str) -> int:
        for i, (n, _) in enumerate(self.fields):
            if n == field_name:
                return i
        raise KeyError(f"{self.name} has no field {field_name!r}")

    def kinds(self) -> List[FieldKind]:
        return [k for _, k in self.fields]

    def concat(self, other: "RowType", name: Optional[str] = None) -> "RowType":
        """Schema of a join result (left fields then right fields)."""
        merged = self.fields + other.fields
        return RowType(name or f"{self.name}*{other.name}", merged)

    def project(self, indices: Sequence[int], name: Optional[str] = None) -> "RowType":
        picked = tuple(self.fields[i] for i in indices)
        return RowType(name or f"{self.name}#proj", picked)


class BuiltinRowSerializer:
    """Flink's statically-chosen per-field serializer for one RowType.

    ``field_dispatch_cost`` is the per-field TypeSerializer invocation:
    a megamorphic virtual call plus output-view boundary checks (heavier
    than a bare accessor; Flink's own profiling attributes ~23.5% of query
    runtime to serialization, paper §5.3).
    """

    def __init__(self, row_type: RowType,
                 field_dispatch_cost: float = 55e-9) -> None:
        self.row_type = row_type
        self.field_dispatch_cost = field_dispatch_cost

    # -- encoding -----------------------------------------------------------------

    def write_row(self, out: ByteOutputStream, row: Sequence[Any],
                  jvm: JVM) -> int:
        """Serialize one row; charges per-field built-in codec costs and
        returns the encoded byte count."""
        cost = jvm.cost_model
        start = out.position
        jvm.clock.charge(cost.sd_function_call)  # row serializer dispatch
        for value, (fname, kind) in zip(row, self.row_type.fields):
            # One field-serializer virtual dispatch per field (Flink wires a
            # TypeSerializer object per field).
            jvm.clock.charge(self.field_dispatch_cost)
            self._write_field(out, kind, value)
        written = out.position - start
        jvm.clock.charge(cost.memcpy(written))
        return written

    @staticmethod
    def _write_field(out: ByteOutputStream, kind: FieldKind, value: Any) -> None:
        if kind is FieldKind.LONG:
            out.write_i64(int(value))
        elif kind is FieldKind.INT or kind is FieldKind.DATE:
            out.write_i32(int(value))
        elif kind is FieldKind.DOUBLE:
            out.write_f64(float(value))
        elif kind is FieldKind.STRING:
            out.write_utf(value)
        else:  # pragma: no cover - exhaustive
            raise TypeError(kind)

    # -- decoding ------------------------------------------------------------------

    def read_row(
        self,
        inp: ByteInputStream,
        jvm: JVM,
        accessed: Optional[Sequence[int]] = None,
    ) -> Tuple[Any, ...]:
        """Deserialize one row lazily: decode costs are charged only for
        ``accessed`` field indices (None = all).  All values are returned
        (the binary row travels with the record in real Flink; untouched
        fields simply never pay decode cost)."""
        cost = jvm.cost_model
        jvm.clock.charge(cost.sd_function_call)
        accessed_set = set(accessed) if accessed is not None else None
        values: List[Any] = []
        start = inp.position
        for i, (fname, kind) in enumerate(self.row_type.fields):
            value = self._read_field(inp, kind)
            values.append(value)
            if accessed_set is None or i in accessed_set:
                jvm.clock.charge(self.field_dispatch_cost)
        jvm.clock.charge(cost.memcpy(inp.position - start))
        return tuple(values)

    @staticmethod
    def _read_field(inp: ByteInputStream, kind: FieldKind) -> Any:
        if kind is FieldKind.LONG:
            return inp.read_i64()
        if kind is FieldKind.INT or kind is FieldKind.DATE:
            return inp.read_i32()
        if kind is FieldKind.DOUBLE:
            return inp.read_f64()
        if kind is FieldKind.STRING:
            return inp.read_utf()
        raise TypeError(kind)  # pragma: no cover - exhaustive
