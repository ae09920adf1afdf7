"""Klass meta-objects: the per-JVM runtime representation of a type.

In HotSpot every object's header points at a "klass" meta-object.  Skyway
adds a ``tID`` field to each klass (paper Figure 5: "klass for
java.lang.Object / tID / Old Contents") holding the cluster-global type ID
assigned by the driver's type registry; the sender writes the tID into the
klass slot of every buffered object and the receiver maps it back.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.heap.layout import HeapLayout
from repro.types import descriptors


@dataclasses.dataclass(frozen=True)
class FieldInfo:
    """A resolved instance field with its concrete byte offset."""

    name: str
    descriptor: str
    offset: int
    declaring_class: str

    @property
    def is_reference(self) -> bool:
        return descriptors.is_reference(self.descriptor)

    @property
    def size(self) -> int:
        return descriptors.size_of(self.descriptor)


class Klass:
    """Runtime type metadata for one class in one JVM.

    Instances are created by the class loader (regular classes via
    :meth:`for_instance_class`, array classes via :meth:`for_array`), never
    shared between JVMs — different JVMs hold different klass meta-objects
    for the same type, which is exactly why raw klass pointers cannot cross
    the wire and Skyway needs global type numbering.
    """

    def __init__(
        self,
        name: str,
        layout: HeapLayout,
        super_klass: Optional["Klass"],
        own_fields: Sequence[FieldInfo],
        instance_size: int,
        element_descriptor: Optional[str] = None,
    ) -> None:
        self.name = name
        self.layout = layout
        self.super_klass = super_klass
        self.own_fields: Tuple[FieldInfo, ...] = tuple(own_fields)
        self.instance_size = instance_size
        self.element_descriptor = element_descriptor
        #: Compiled kernel (repro.core.kernels); cached here so a tID
        #: rewrite (transport registry merge) can invalidate it.
        self.kernel = None
        #: Skyway global type ID; written by the type registry on load.
        self.tid: Optional[int] = None
        #: Per-JVM klass-word value; assigned by the loader.
        self.klass_id: Optional[int] = None

        self._all_fields = self._resolve_all_fields()
        self._fields_by_name = {f.name: f for f in self._all_fields}
        self.oop_offsets: Tuple[int, ...] = tuple(
            f.offset for f in self._all_fields if f.is_reference
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def for_instance_class(
        cls,
        name: str,
        layout: HeapLayout,
        super_klass: Optional["Klass"],
        declared_fields: Sequence[Tuple[str, str]],
    ) -> "Klass":
        inherited_end = (
            super_klass.instance_size if super_klass is not None else layout.header_size
        )
        placed, size = layout.compute_field_offsets(inherited_end, declared_fields)
        infos = [FieldInfo(n, d, off, name) for n, d, off in placed]
        return cls(name, layout, super_klass, infos, size)

    @classmethod
    def for_array(
        cls, element_descriptor: str, layout: HeapLayout, object_klass: "Klass"
    ) -> "Klass":
        descriptors.validate(element_descriptor)
        name = descriptors.ARRAY_PREFIX + element_descriptor
        return cls(
            name,
            layout,
            object_klass,
            own_fields=(),
            instance_size=layout.header_size,  # varies per instance
            element_descriptor=element_descriptor,
        )

    # -- queries -----------------------------------------------------------

    @property
    def tid(self) -> Optional[int]:
        """Skyway global type ID; written by the type registry on load."""
        return self._tid

    @tid.setter
    def tid(self, value: Optional[int]) -> None:
        # The transport handshake renumbers tIDs after a registry merge;
        # a compiled kernel bakes the tID into its header pack, so any
        # rewrite must drop it (it recompiles lazily on next use).
        self._tid = value
        self.kernel = None

    @property
    def is_array(self) -> bool:
        return self.element_descriptor is not None

    @property
    def has_reference_elements(self) -> bool:
        return self.is_array and descriptors.is_reference(self.element_descriptor or "")

    @property
    def element_size(self) -> int:
        if not self.is_array:
            raise TypeError(f"{self.name} is not an array class")
        return descriptors.size_of(self.element_descriptor or "")

    def all_fields(self) -> Tuple[FieldInfo, ...]:
        """Inherited + declared fields, superclass-first, offset order."""
        return self._all_fields

    def field(self, name: str) -> FieldInfo:
        try:
            return self._fields_by_name[name]
        except KeyError:
            raise KeyError(f"{self.name} has no field {name!r}") from None

    def object_size(self, array_length: Optional[int] = None) -> int:
        """Total byte size of an instance (arrays need their length)."""
        if self.is_array:
            if array_length is None:
                raise ValueError(f"array class {self.name} needs a length")
            return self.layout.array_size(self.element_descriptor or "", array_length)
        return self.instance_size

    def super_chain(self) -> List["Klass"]:
        """This class followed by its superclasses up to the root."""
        chain: List[Klass] = []
        node: Optional[Klass] = self
        while node is not None:
            chain.append(node)
            node = node.super_klass
        return chain

    def is_subclass_of(self, other: "Klass") -> bool:
        return any(k is other or k.name == other.name for k in self.super_chain())

    def _resolve_all_fields(self) -> Tuple[FieldInfo, ...]:
        fields: List[FieldInfo] = []
        if self.super_klass is not None:
            fields.extend(self.super_klass.all_fields())
        fields.extend(self.own_fields)
        fields.sort(key=lambda f: f.offset)
        return tuple(fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "array" if self.is_array else "class"
        return f"Klass({kind} {self.name}, size={self.instance_size}, tid={self.tid})"


def describe_layout(klass: Klass) -> str:
    """A human-readable field map, used by examples and debugging."""
    lines = [f"{klass.name} (instance size {klass.instance_size} bytes)"]
    lines.append(f"  [0:8)   mark word")
    lines.append(f"  [8:16)  klass word")
    if klass.layout.has_baddr:
        lines.append(f"  [16:24) baddr word (Skyway)")
    for f in klass.all_fields():
        end = f.offset + f.size
        lines.append(
            f"  [{f.offset}:{end})  {f.name}: {descriptors.java_name(f.descriptor)}"
            f"  (from {f.declaring_class})"
        )
    return "\n".join(lines)
