"""Compiled per-class kernels (paper §4.2–4.3, batch-shaped).

Skyway's pitch is that a transfer costs "memcpy plus three fixups", yet an
interpreted sender pays per-object, per-field Python work: it recomputes
``heap.reference_offsets()`` for every clone, crosses several
``bytearray``/``bytes`` copies per payload, and the receiver re-resolves
tID → class name → klass for every placed object.  A *kernel* moves all of
that to class-load time: each :class:`~repro.heap.klass.Klass` compiles
once into one immutable :class:`ClassKernel` that the sender's loop, the
delta encoder, the receive pass, the scan, the delta apply and both
digests read, holding

* the reference slots as word indexes (``ref_words``), which the sender's
  loop, the receive pass and the digest read and write one index at a
  time, and for delta encoding a cached :class:`struct.Struct` that
  unpacks every pointer slot in one call (pad bytes skip primitive
  fields, so it is unpack only);
* a cached header pack (mark word, tID, zeroed baddr) per layout, and the
  klass ID the receiver restores;
* the fixed ``object_size`` for non-arrays, and the element geometry
  (``elem_base``, ``elem_word``, ``elem_size``) an array's size and slot
  range come from, all under the *destination* layout: a Skyway heap
  sending to a baseline one compiles a converting kernel whose image is
  the source's minus the baddr word (paper §3.1);
* the digest's per-class hash prefix;
* the per-object simulated-time charges of a clone and of a receive,
  pre-added so the clock is charged once per object (scaled by the
  non-null reference count) instead of once per pointer.

Kernels are cached on the klass itself and keyed by (tID, klass ID,
layout, cost model): the transport's HELLO merge rewrites ``Klass.tid``
after late class loads, which drops the stale kernel automatically (the
``tid`` setter clears the cache slot).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from repro.heap.klass import Klass
from repro.heap.layout import (
    HeapLayout,
    KLASS_OFFSET,
    OBJECT_ALIGNMENT,
    align_up,
)

#: One little-endian word (per-slot pointer writes).
WORD_STRUCT = struct.Struct("<Q")

#: The 4-byte array length slot.
LENGTH_STRUCT = struct.Struct("<I")

#: Bytes of an object image that must be readable to learn its class: the
#: header up to and including the klass word.
KLASS_WORD_END = KLASS_OFFSET + 8

#: Header packs: (mark, tID, baddr=0) for Skyway layouts, (mark, tID) for
#: baseline 16-byte headers.  MARK_OFFSET/KLASS_OFFSET/baddr are adjacent
#: words starting at offset 0, so one pack covers the whole header fixup.
HEADER3_STRUCT = struct.Struct("<QQQ")
HEADER2_STRUCT = struct.Struct("<QQ")

#: Cached ``"<nQ"`` run structs for reference arrays, keyed by length.
_RUN_STRUCTS: Dict[int, struct.Struct] = {}
_RUN_STRUCT_CACHE_LIMIT = 4096


def ref_run_struct(count: int) -> struct.Struct:
    """The ``"<{count}Q"`` struct for a run of ``count`` pointer words."""
    cached = _RUN_STRUCTS.get(count)
    if cached is None:
        if len(_RUN_STRUCTS) >= _RUN_STRUCT_CACHE_LIMIT:
            _RUN_STRUCTS.clear()
        cached = struct.Struct(f"<{count}Q")
        _RUN_STRUCTS[count] = cached
    return cached


def _scattered_unpack(offsets: Tuple[int, ...]) -> Optional[struct.Struct]:
    """One Struct that unpacks every (8-byte) slot in ``offsets`` from the
    start of an object image, skipping the bytes between slots as pad.
    Unpack-only by construction — packing through pad bytes writes zeros.
    """
    if not offsets:
        return None
    parts = ["<"]
    cursor = 0
    for offset in offsets:
        gap = offset - cursor
        if gap:
            parts.append(f"{gap}x")
        parts.append("Q")
        cursor = offset + 8
    return struct.Struct("".join(parts))


class ClassKernel:
    """Compiled clone, placement and digest recipe for one class.

    Immutable after compilation; every mutable datum (array length, mark
    word, reference values) comes from the object image at use time.
    """

    __slots__ = (
        "klass", "tid", "klass_id", "key", "cost", "is_array",
        "has_ref_elements", "size", "ref_offsets", "ref_words", "ref_unpack",
        "header_struct", "length_offset", "length_word", "elem_base",
        "elem_word", "elem_size", "base_cost", "finish_cost", "hash_prefix",
        "array_header_bytes",
        "header_bytes", "pointer_bytes", "data_bytes", "padding_bytes",
    )

    def __init__(self, klass: Klass, layout: HeapLayout, cost) -> None:
        #: Bytes the source image carries ahead of ``layout``'s: 0, or 8
        #: when converting for a header without the baddr word.  Every
        #: field, length slot and element moves down by it; so does the
        #: size.  A conversion pays a second copy of the object.
        shift = klass.layout.header_size - layout.header_size
        copies = 2 if shift else 1
        self.klass = klass
        self.tid = klass.tid
        self.klass_id = klass.klass_id
        self.key = (self.tid, self.klass_id, layout, cost)
        self.cost = cost
        self.is_array = klass.is_array
        self.has_ref_elements = klass.has_reference_elements
        self.header_struct = HEADER3_STRUCT if layout.has_baddr else HEADER2_STRUCT
        self.length_offset = layout.array_length_offset
        self.length_word = self.length_offset >> 3
        #: What the digest hashes ahead of each image: the class name, and
        #: for a fixed-size class its 8-byte size too.
        self.hash_prefix = klass.name.encode("utf-8")
        #: Per-object share of the receiver's linear scan (size decode +
        #: klass patch).
        self.finish_cost = cost.skyway_receive_object
        if self.is_array:
            elem = klass.element_descriptor or ""
            self.elem_base = layout.array_payload_offset(elem)
            #: First element's word index (a reference payload is aligned).
            self.elem_word = self.elem_base >> 3
            self.elem_size = klass.element_size
            self.size = None
            self.ref_offsets = ()
            self.ref_words = None
            self.ref_unpack = None
            self.base_cost = 0.0
            #: The length slot counts as header metadata (§5.2 accounting).
            self.array_header_bytes = layout.header_size + 4
            self.header_bytes = self.pointer_bytes = 0
            self.data_bytes = self.padding_bytes = 0
            return
        self.elem_base = self.elem_word = self.elem_size = 0
        self.array_header_bytes = 0
        self.size = klass.object_size() - shift
        self.hash_prefix += self.size.to_bytes(8, "little")
        self.ref_offsets = tuple(offset - shift for offset in klass.oop_offsets)
        #: Reference slots as word indexes from the object's first word.
        self.ref_words = tuple(offset >> 3 for offset in self.ref_offsets)
        self.ref_unpack = _scattered_unpack(self.ref_offsets)
        fixups = len(self.ref_offsets) * cost.skyway_pointer_fixup
        self.base_cost = (
            cost.skyway_header_fixup + cost.memcpy(self.size) * copies
            + fixups
        )
        self.finish_cost += fixups
        # §5.2 byte-composition constants, precomputed per class.
        self.header_bytes = layout.header_size
        self.pointer_bytes = 8 * len(self.ref_offsets)
        self.data_bytes = sum(
            f.size for f in klass.all_fields() if not f.is_reference
        )
        self.padding_bytes = max(
            0,
            self.size - self.header_bytes - self.pointer_bytes
            - self.data_bytes,
        )

    def array_size(self, length: int) -> int:
        """Total byte size of an array instance (non-arrays use ``size``)."""
        return align_up(
            self.elem_base + self.elem_size * length, OBJECT_ALIGNMENT
        )

    def array_cost(self, size: int, n_refs: int) -> float:
        """Per-object charge for a same-layout array clone of ``size``
        bytes with ``n_refs`` pointer slots (null or not)."""
        return (
            self.cost.skyway_header_fixup
            + self.cost.memcpy(size)
            + n_refs * self.cost.skyway_pointer_fixup
        )


def kernel_for(klass: Klass, layout: HeapLayout, cost) -> ClassKernel:
    """The (possibly cached) kernel for ``klass`` under ``layout``.

    Recompiles when the cached kernel went stale: a tID rewrite (the
    transport's HELLO merge), a new klass ID, a different layout, or a
    different cost model (ablation benches scale constants).  Layouts and
    cost models compare by value, so a sender targeting an equal layout
    and a digest of its own heap share one kernel.
    """
    kernel = klass.kernel
    if kernel is None or kernel.key != (klass.tid, klass.klass_id, layout, cost):
        kernel = klass.kernel = ClassKernel(klass, layout, cost)
    return kernel
