"""Deterministic workload inputs: everything here is a pure function of
``--seed`` through ``random.Random`` seeded with an integer.

``repro.datasets.graphs.generate_graph`` seeds with ``seed ^ hash(key)``
and ``hash()`` of a str is salted per process, so its graphs differ from
run to run; the ledger never calls it (nor ``hash()``), which is why two
fresh processes with the same seed print the same fingerprints.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable, List, Tuple

# One independent stream per use, so adding a draw to one generator never
# shifts another's sequence.
_EDGES, _PICKS, _RANKS, _CHAINS, _CHAIN_MUTATIONS = range(5)


def _rng(seed: int, stream: int, index: int = 0) -> random.Random:
    return random.Random((int(seed) << 40) ^ (stream << 32) ^ index)


def ring_chord_edges(vertices: int, seed: int) -> List[Tuple[int, int]]:
    """An n-ring plus one seeded chord out of every vertex.

    Every vertex has out-degree 2, so the framed size of the vertex graph
    depends on ``vertices`` alone and the seed only changes its content."""
    rng = _rng(seed, _EDGES)
    edges = [(v, (v + 1) % vertices) for v in range(vertices)]
    edges += [(v, rng.randrange(vertices)) for v in range(vertices)]
    return edges


def mutation_picks(vertices: int, count: int, seed: int,
                   epoch: int) -> List[Tuple[int, float]]:
    """``count`` distinct seeded-random vertices for ``epoch`` with the
    rank each is set to (scattered across cards, never the old value)."""
    picks = _rng(seed, _PICKS, epoch).sample(range(vertices), count)
    ranks = _rng(seed, _RANKS, epoch)
    return [(v, 2.0 + epoch + ranks.random()) for v in picks]


def chain_payloads(channels: int, nodes: int, seed: int) -> List[List[int]]:
    """Per-channel ``ListNode`` payloads; distinct per channel, so a
    cross-channel mix-up in the demultiplexer cannot digest clean."""
    rng = _rng(seed, _CHAINS)
    return [
        [channel * 1_000_000 + rng.randrange(1_000_000) for _ in range(nodes)]
        for channel in range(channels)
    ]


def chain_mutations(channels: int, nodes: int, seed: int,
                    round_index: int) -> List[Tuple[int, int]]:
    """One ``(node index, new payload)`` per channel for a round."""
    rng = _rng(seed, _CHAIN_MUTATIONS, round_index)
    return [
        (rng.randrange(nodes),
         channel * 1_000_000 + rng.randrange(1_000_000))
        for channel in range(channels)
    ]


def crc32_of(blobs: Iterable[bytes]) -> int:
    crc = 0
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    return crc


def fingerprint(objects: int, framed_bytes: int,
                blobs: Iterable[bytes]) -> dict:
    """What a workload prints so two runs can be told to have had the
    same inputs: object count, framed bytes, CRC32 of the first frames."""
    return {
        "objects": int(objects),
        "framed_bytes": int(framed_bytes),
        "crc32": f"{crc32_of(blobs):08x}",
    }
