"""Synthetic power-law graphs matching the paper's Table 1 inputs.

=============  =======  =========  ===================
Graph          #Edges   #Vertices  Description
=============  =======  =========  ===================
LiveJournal    69M      4.8M       Social network
Orkut          117M     3M         Social network
UK-2005        936M     39.5M      Web graph
Twitter-2010   1.5B     41.6M      Social network
=============  =======  =========  ===================

Each profile keeps the published edge/vertex ratio and a degree-skew
exponent typical of its graph class; the generator is a Chung–Lu style
expected-degree model, so degree skew (what drives shuffle imbalance and
triangle counts) is preserved while total size scales down by
``profile.scale_down`` (documented per graph and identical across all
serializers, keeping normalized comparisons valid).
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from typing import Dict, List, Tuple


@dataclasses.dataclass(frozen=True)
class GraphProfile:
    """One of the paper's input graphs, plus its reproduction scale."""

    key: str
    name: str
    description: str
    paper_vertices: int
    paper_edges: int
    #: Linear scale-down factor applied to vertices for this reproduction.
    scale_down: int
    #: Power-law exponent for the expected-degree sequence.
    skew: float

    @property
    def vertices(self) -> int:
        return max(64, self.paper_vertices // self.scale_down)

    @property
    def edges(self) -> int:
        # Preserve the average degree of the original graph.
        avg_degree = self.paper_edges / self.paper_vertices
        return int(self.vertices * avg_degree)


#: The four Table 1 graphs.  scale_down values put each run at laptop scale
#: while keeping LJ < OR < UK < TW in relative size, as in the paper.
GRAPH_PROFILES: Dict[str, GraphProfile] = {
    "LJ": GraphProfile(
        key="LJ", name="LiveJournal", description="Social network",
        paper_vertices=4_800_000, paper_edges=69_000_000,
        scale_down=4_000, skew=2.35,
    ),
    "OR": GraphProfile(
        key="OR", name="Orkut", description="Social network",
        paper_vertices=3_000_000, paper_edges=117_000_000,
        scale_down=2_400, skew=2.25,
    ),
    "UK": GraphProfile(
        key="UK", name="UK-2005", description="Web graph",
        paper_vertices=39_500_000, paper_edges=936_000_000,
        scale_down=18_000, skew=1.95,
    ),
    "TW": GraphProfile(
        key="TW", name="Twitter-2010", description="Social network",
        paper_vertices=41_600_000, paper_edges=1_500_000_000,
        scale_down=16_000, skew=2.0,
    ),
}


def generate_graph(
    profile: GraphProfile, seed: int = 42, scale: float = 1.0
) -> List[Tuple[int, int]]:
    """A deterministic Chung–Lu style edge list for ``profile``.

    ``scale`` further multiplies the vertex count (benchmarks use < 1.0 for
    quick runs); the degree distribution's shape is scale-free.
    Self-loops are dropped; duplicate edges are kept (real edge lists have
    them after sampling, and ``distinct()`` in the workloads must do work).
    """
    # crc32, not hash(): str hashes are salted per process.
    rng = random.Random(seed ^ zlib.crc32(profile.key.encode()))
    n = max(32, int(profile.vertices * scale))
    m = max(n, int(profile.edges * scale))

    # Expected-degree weights w_i ~ i^(-1/(skew-1)) (Zipf-like ranking).
    exponent = 1.0 / (profile.skew - 1.0)
    weights = [(i + 1) ** (-exponent) for i in range(n)]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc / total)

    import bisect

    def sample_vertex() -> int:
        return bisect.bisect_left(cumulative, rng.random())

    edges: List[Tuple[int, int]] = []
    while len(edges) < m:
        u, v = sample_vertex(), sample_vertex()
        if u == v:
            continue
        edges.append((u, v))
    return edges


def degree_distribution(edges: List[Tuple[int, int]]) -> Dict[int, int]:
    degrees: Dict[int, int] = {}
    for u, v in edges:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    return degrees


def table1_rows(scale: float = 1.0) -> List[Dict[str, object]]:
    """The Table 1 reproduction: paper sizes plus generated sizes."""
    rows = []
    for profile in GRAPH_PROFILES.values():
        edges = generate_graph(profile, scale=scale)
        vertices = len({v for e in edges for v in e})
        rows.append(
            {
                "graph": profile.name,
                "paper_edges": profile.paper_edges,
                "paper_vertices": profile.paper_vertices,
                "description": profile.description,
                "generated_edges": len(edges),
                "generated_vertices": vertices,
                "scale_down": profile.scale_down,
            }
        )
    return rows
