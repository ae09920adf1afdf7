"""Reference oracles for :mod:`repro.transport.digest`.

The per-object implementations the digest module shipped with before its
per-class kernel rewrite, kept as the executable specification of the two
hash streams: they resolve the klass three times per object through the
public heap accessors and scan the chunk table linearly per pointer.
``tests/test_digest_oracle.py`` requires hex equality with the production
functions.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.core.receiver import ObjectGraphReceiver
from repro.heap.layout import KLASS_OFFSET, MARK_OFFSET
from repro.jvm.jvm import JVM


def reference_graph_digest(jvm: JVM, receiver: ObjectGraphReceiver) -> str:
    """SHA-256 over the received buffer in logical coordinates."""
    heap = jvm.heap
    buffer = receiver.buffer
    spans = [
        (chunk.physical_start, chunk.filled, chunk.logical_start)
        for chunk in buffer.chunks
    ]

    def to_logical(pointer: int) -> int:
        if pointer == 0:
            return 0
        for physical, filled, logical in spans:
            if physical <= pointer < physical + filled:
                return logical + (pointer - physical)
        raise ValueError(
            f"pointer {pointer:#x} leads outside the input buffer"
        )

    digest = hashlib.sha256()
    for address in buffer.placed_objects:
        klass = heap.klass_of(address)
        size = heap.object_size(address)
        image = bytearray(heap.read_bytes(address, size))
        image[KLASS_OFFSET:KLASS_OFFSET + 8] = b"\x00" * 8
        for offset in heap.reference_offsets(address):
            pointer = int.from_bytes(image[offset:offset + 8], "little")
            image[offset:offset + 8] = to_logical(pointer).to_bytes(8, "little")
        digest.update(klass.name.encode("utf-8"))
        digest.update(len(image).to_bytes(8, "little"))
        digest.update(bytes(image))
    return digest.hexdigest()


def reference_semantic_graph_digest(jvm: JVM, roots: Sequence[int]) -> str:
    """SHA-256 over the object graph *reachable from roots*, in traversal
    coordinates.

    Full BFS from the roots first (every address -> its visit index), then
    one pass hashing each object's normalized image in visit order.
    """
    heap = jvm.heap
    layout = heap.layout
    index: dict = {}
    order: list = []
    queue: list = []
    for root in roots:
        if root and root not in index:
            index[root] = len(order) + 1
            order.append(root)
            queue.append(root)
    head = 0
    while head < len(queue):
        address = queue[head]
        head += 1
        for offset in heap.reference_offsets(address):
            target = heap.read_word(address + offset)
            if target and target not in index:
                index[target] = len(order) + 1
                order.append(target)
                queue.append(target)

    digest = hashlib.sha256()
    digest.update(len(roots).to_bytes(8, "little"))
    for root in roots:
        digest.update(index.get(root, 0).to_bytes(8, "little"))
    for address in order:
        klass = heap.klass_of(address)
        size = heap.object_size(address)
        image = bytearray(heap.read_bytes(address, size))
        image[MARK_OFFSET:MARK_OFFSET + 8] = b"\x00" * 8
        image[KLASS_OFFSET:KLASS_OFFSET + 8] = b"\x00" * 8
        if layout.has_baddr:
            off = layout.baddr_offset
            image[off:off + 8] = b"\x00" * 8
        for offset in heap.reference_offsets(address):
            pointer = int.from_bytes(image[offset:offset + 8], "little")
            image[offset:offset + 8] = index.get(pointer, 0).to_bytes(
                8, "little"
            )
        digest.update(klass.name.encode("utf-8"))
        digest.update(len(image).to_bytes(8, "little"))
        digest.update(bytes(image))
    return digest.hexdigest()
