"""Position-independent digest of a received object graph.

The acceptance check for the socket transport is that a graph round-tripped
driver -> worker over loopback is *byte-identical* to the in-process
receive path: same input-buffer contents, same restored klass and pointer
words.  Raw heap bytes can't be compared directly across processes — klass
words hold loader-assigned klass IDs and pointers hold physical addresses,
both of which depend on local allocation history — so the digest
normalizes exactly those two word kinds:

* each object contributes its class *name* (not the klass word);
* each reference word is translated back to its buffer-*logical* offset
  (the coordinate system the wire format itself uses);
* everything else — mark words with their preserved hashcodes, primitive
  fields, array payloads, padding — is hashed as-is.

Two receivers that placed and absolutized the same stream produce the same
digest, whatever their heaps looked like beforehand.

While a stream's chunks abut, the receiver absolutizes each segment as it
lands, not at end-of-stream, and hashes it read back from the heap;
``finish``, still the only source of roots, records that digest with a
fingerprint of the buffer.  Any other buffer is hashed here.
"""

from __future__ import annotations

import bisect
import hashlib
import weakref
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernels import (
    KLASS_WORD_END,
    LENGTH_STRUCT,
    ReceiveKernel,
    WORD_STRUCT,
    receive_kernel_for,
)
from repro.core.receiver import ObjectGraphReceiver
from repro.core.runtime import SkywayRuntime
from repro.delta.channel import DeltaReceiveEndpoint
from repro.heap.layout import KLASS_OFFSET, MARK_OFFSET
from repro.jvm.jvm import JVM

#: Normalized images are hashed in joined batches of about this many bytes.
_HASH_BATCH_BYTES = 64 * 1024


def _hash_objects(
    jvm: JVM,
    addresses: Iterable[int],
    flush: Callable[[List], None],
    zeroed_offsets: Sequence[int],
    normalize: Callable[[int], int],
) -> None:
    """The digest kernel: ``class name | size | normalized image`` for each
    object at ``addresses``, to ``flush`` as pieces about every 64 KiB
    (each image a ``bytearray``, the rest ``bytes``).

    Per object: the klass word resolves through one dict hit to the class's
    cached :class:`ReceiveKernel` (size, reference slots and hash prefix
    precomputed), the image is copied once out of the heap's backing
    store, the header words at ``zeroed_offsets`` are cleared and every
    non-null reference word is rewritten to ``normalize(pointer)`` in that
    copy.
    """
    heap = jvm.heap
    layout = jvm.layout
    cost = jvm.cost_model
    memory = heap.memory_view
    heap_base = heap.base
    heap_bytes = len(memory)
    unpack_word = WORD_STRUCT.unpack_from
    unpack_length = LENGTH_STRUCT.unpack_from
    zeroed_words = [offset >> 3 for offset in zeroed_offsets]
    #: klass word -> the class's receive kernel.
    classes: Dict[int, ReceiveKernel] = {}
    batch = []
    batched = 0
    for address in addresses:
        at = address - heap_base
        if at < 0 or at + KLASS_WORD_END > heap_bytes:
            heap.index_of(address, KLASS_WORD_END)  # raises the canonical error
        klass_word = unpack_word(memory, at + KLASS_OFFSET)[0]
        kernel = classes.get(klass_word)
        if kernel is None:
            kernel = classes[klass_word] = receive_kernel_for(
                heap.klass_of(address), layout, cost)
        prefix = kernel.hash_prefix
        size = kernel.size
        slots = kernel.ref_words
        if size is None:
            length = unpack_length(memory, at + kernel.length_offset)[0]
            size = kernel.array_size(length)
            slots = range(kernel.elem_word, kernel.elem_word
                          + (length if kernel.has_ref_elements else 0))
            batch.append(prefix)
            prefix = size.to_bytes(8, "little")
        if at + size > heap_bytes:
            heap.index_of(address, size)
        image = bytearray(memory[at : at + size])
        words = memoryview(image).cast("Q")
        for word in zeroed_words:
            words[word] = 0
        for i in slots:
            if words[i]:
                words[i] = normalize(words[i])
        batch.append(prefix)
        batch.append(image)
        batched += size
        if batched >= _HASH_BATCH_BYTES:
            flush(batch)
            batch = []
            batched = 0
    flush(batch)


def graph_digest(jvm: JVM, receiver: ObjectGraphReceiver) -> str:
    """SHA-256 over the received buffer in logical coordinates: the
    receive pass's digest while a fresh fingerprint of the buffer matches
    the one ``finish`` recorded with it, else hashed again here (a delta
    epoch, a ``registerUpdate`` hook or a stray write since)."""
    recorded = receiver.pass_digest
    if (recorded is not None and jvm is receiver.jvm
            and recorded[1] == receiver.buffer.fingerprint()):
        return recorded[0]
    # Chunks sorted by physical start; a pointer's chunk is found by bisect,
    # after a look at the chunk the previous pointer fell in.
    spans = sorted(
        (chunk.physical_start, chunk.filled, chunk.logical_start)
        for chunk in receiver.buffer.chunks
    )
    starts = [span[0] for span in spans]
    last = (0, 0, 0)

    def to_logical(pointer: int) -> int:
        nonlocal last
        physical, filled, logical = last
        if not physical <= pointer < physical + filled:
            last = spans[max(bisect.bisect_right(starts, pointer) - 1, 0)]
            physical, filled, logical = last
            if not physical <= pointer < physical + filled:
                raise ValueError(
                    f"pointer {pointer:#x} leads outside the input buffer"
                )
        return logical + (pointer - physical)

    digest = hashlib.sha256()
    _hash_objects(jvm, receiver.buffer.placed_objects,
                  lambda batch: digest.update(b"".join(batch)),
                  (KLASS_OFFSET,), to_logical)
    return digest.hexdigest()


def semantic_graph_digest(jvm: JVM, roots: Sequence[int]) -> str:
    """SHA-256 over the object graph *reachable from roots*, in traversal
    coordinates.

    :func:`graph_digest` hashes a received input buffer in placement order,
    which ties it to one receive event: a heap patched in place by delta
    epochs has no placement order matching a hypothetical fresh full
    receive.  This digest instead canonicalizes by a deterministic BFS from
    the given roots — every address maps to its visit index, so two heaps
    holding semantically identical graphs (same classes, same primitive
    bytes, same shape) digest identically regardless of where or in what
    order their objects were placed, or which epochs built them.

    Normalized per object: the mark word (hashcodes differ per allocation
    history), the klass word (hashed as the class *name*), the ``baddr``
    word if the layout carries one (sender-side scratch state), and every
    reference word (rewritten to the referent's visit index; 0 for null).
    """
    digest = hashlib.sha256()
    _semantic_walk(jvm, roots, lambda batch: digest.update(b"".join(batch)))
    return digest.hexdigest()


def _zeroed_words(jvm: JVM) -> List[int]:
    layout = jvm.layout
    return [MARK_OFFSET, KLASS_OFFSET] + [layout.baddr_offset] * layout.has_baddr


def _semantic_walk(jvm: JVM, roots: Sequence[int],
                   flush: Callable[[List], None]) -> List[int]:
    """:func:`semantic_graph_digest`'s pieces into ``flush``: the roots
    header, then each object in BFS order.  Returns that order."""
    index: Dict[int, int] = {}
    order = []
    for root in roots:
        if root and root not in index:
            order.append(root)
            index[root] = len(order)

    def visit(pointer: int) -> int:
        number = index.get(pointer)
        if number is None:
            order.append(pointer)
            number = index[pointer] = len(order)
        return number

    flush([len(roots).to_bytes(8, "little")]
          + [index.get(root, 0).to_bytes(8, "little") for root in roots])
    # ``order`` is the BFS queue: hashing an object numbers (and enqueues)
    # its unvisited referents, so the loop inside walks the list as it grows.
    _hash_objects(jvm, order, flush, _zeroed_words(jvm), visit)
    return order


class _EpochCache:
    """A DELTA channel's last digest input: ``norm``, the string
    :func:`semantic_graph_digest` hashed; ``slots``, each placed object's
    image offset in it by placement ordinal (-1: unreachable); ``raw``, a
    copy of each chunk of the buffer, laid out as ``layout``."""

    __slots__ = ("roots", "layout", "raw", "norm", "slots")

    def advance(self, jvm: JVM, buffer, roots: Sequence[int],
                patched: Sequence[int]) -> Optional[str]:
        """The digest after a PATCH-only epoch wrote ``patched``, or
        ``None`` (hash in full) on new roots or chunks, a PATCHed object
        whose header or pointers changed, or any other byte of the buffer
        that differs from the copy."""
        layout = [(chunk.physical_start, chunk.filled)
                  for chunk in buffer.chunks]
        if tuple(roots) != self.roots or layout != self.layout:
            return None
        heap = jvm.heap
        memory, base = heap.memory_view, heap.base
        placed, norm, raw = buffer.placed_objects, self.norm, self.raw
        starts = [start for start, _filled in layout]
        unpack_word = WORD_STRUCT.unpack_from
        zeroed = [offset >> 3 for offset in _zeroed_words(jvm)]
        for address in patched:
            k = bisect.bisect_right(starts, address) - 1
            ordinal = bisect.bisect_left(placed, address)
            if k < 0 or placed[ordinal : ordinal + 1] != [address]:
                return None
            kernel = receive_kernel_for(heap.klass_of(address), jvm.layout,
                                        jvm.cost_model)
            at, lo, copy = address - base, address - starts[k], raw[k]
            size, refs, header = kernel.size, kernel.ref_words, KLASS_WORD_END
            if size is None:
                header = kernel.length_offset + 4
                length = LENGTH_STRUCT.unpack_from(memory, at + header - 4)[0]
                size = kernel.array_size(length)
                refs = range(kernel.elem_word, kernel.elem_word + (
                    length if kernel.has_ref_elements else 0))
            # The same class and length as the copy: the same slot size.
            if lo + size > layout[k][1] or copy[lo + KLASS_OFFSET : lo + header] \
                    != memory[at + KLASS_OFFSET : at + header]:
                return None
            image = bytearray(memory[at : at + size])
            words = memoryview(image).cast("Q")
            # An unchanged pointer keeps its referent's BFS number.
            if any(words[i] != unpack_word(copy, lo + 8 * i)[0] for i in refs):
                return None
            copy[lo : lo + size] = image
            offset = self.slots[ordinal]
            if offset >= 0:
                for i in zeroed:
                    words[i] = 0
                for i in refs:
                    words[i] = unpack_word(norm, offset + 8 * i)[0]
                norm[offset : offset + size] = image
        # One compare per chunk: a write outside the PATCHes shows here.
        for (start, filled), copy in zip(layout, raw):
            if copy != memory[start - base : start - base + filled]:
                return None
        return hashlib.sha256(norm).hexdigest()

    @classmethod
    def build(cls, jvm: JVM, buffer, roots: Sequence[int]
              ) -> Tuple[str, Optional["_EpochCache"]]:
        """:func:`semantic_graph_digest` of ``roots`` and its cache, or no
        cache when a reachable object lies outside ``buffer``."""
        pieces: List = []
        order = iter(_semantic_walk(jvm, roots, pieces.extend))
        norm = bytearray().join(pieces)
        hexdigest = hashlib.sha256(norm).hexdigest()
        placed = buffer.placed_objects
        slots = array("q", [-1]) * len(placed)
        position = 0
        for piece in pieces:
            if type(piece) is bytearray:  # an image, in BFS order
                address = next(order)
                ordinal = bisect.bisect_left(placed, address)
                if placed[ordinal : ordinal + 1] != [address]:
                    return hexdigest, None
                slots[ordinal] = position
            position += len(piece)
        cache = cls()
        cache.roots, cache.norm, cache.slots = tuple(roots), norm, slots
        cache.layout = [(chunk.physical_start, chunk.filled)
                        for chunk in buffer.chunks]
        memory, base = jvm.heap.memory_view, jvm.heap.base
        cache.raw = [bytearray(memory[start - base : start - base + filled])
                     for start, filled in cache.layout]
        return hexdigest, cache


#: Each DELTA channel's cache, keyed by its receiving state: a FULL epoch
#: (a fresh state) or a dropped channel takes the cache along.
_EPOCH_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def epoch_digest(runtime: SkywayRuntime, channel_id: int,
                 roots: Sequence[int]) -> str:
    """:func:`semantic_graph_digest` of an applied epoch's ``roots``, paid
    in proportion to the change after a PATCH-only DELTA epoch.

    A DELTA epoch's digest leaves an :class:`_EpochCache`; the next one
    re-normalizes only its PATCHed objects, read back from the heap,
    compares every other byte with the cache's copy and hashes the cached
    string.  No cache, a NEW record or any doubt :meth:`_EpochCache.advance`
    finds hashes in full and rebuilds; a FULL epoch hashes in full and
    keeps nothing."""
    state = DeltaReceiveEndpoint.for_runtime(runtime).state_of(channel_id)
    applied = None if state is None else state.last_apply
    if applied is None:
        return semantic_graph_digest(runtime.jvm, roots)
    buffer = state.applier.receiver.buffer
    cache = _EPOCH_CACHES.pop(state, None)
    hexdigest = cache and not applied.new_objects and cache.advance(
        runtime.jvm, buffer, roots, applied.patched_addresses)
    if not hexdigest:
        hexdigest, cache = _EpochCache.build(runtime.jvm, buffer, roots)
    if cache is not None:
        _EPOCH_CACHES[state] = cache
    return hexdigest
