"""Statistical tests on the dataset generators."""

import hashlib
import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.datasets.graphs import (
    GRAPH_PROFILES,
    degree_distribution,
    generate_graph,
)
from repro.datasets.text import generate_text_corpus
from repro.jvm.jvm import JVM
from repro.simtime.costmodel import DEFAULT_COST_MODEL, INFINIBAND_COST_MODEL


class TestGraphStatistics:
    def test_average_degree_matches_profile(self):
        for key in ("LJ", "OR"):
            profile = GRAPH_PROFILES[key]
            edges = generate_graph(profile, scale=0.3)
            vertices = len({v for e in edges for v in e})
            avg_degree = 2 * len(edges) / vertices
            paper_avg = 2 * profile.paper_edges / profile.paper_vertices
            # Sampling loses isolated vertices, so generated average degree
            # is biased up a little; it must stay in the right ballpark.
            assert 0.5 * paper_avg < avg_degree < 3.0 * paper_avg, key

    def test_skew_ordering(self):
        """UK (web graph, heavier skew exponent) concentrates degree mass
        harder than LJ."""
        def top_share(key):
            edges = generate_graph(GRAPH_PROFILES[key], scale=0.3)
            degrees = sorted(degree_distribution(edges).values(), reverse=True)
            top = max(1, len(degrees) // 100)
            return sum(degrees[:top]) / sum(degrees)
        assert top_share("UK") > top_share("LJ")

    def test_no_self_loops(self):
        edges = generate_graph(GRAPH_PROFILES["LJ"], scale=0.2)
        assert all(u != v for u, v in edges)

    def test_scale_parameter(self):
        small = generate_graph(GRAPH_PROFILES["LJ"], scale=0.1)
        large = generate_graph(GRAPH_PROFILES["LJ"], scale=0.4)
        assert 2 * len(small) < len(large)

    def test_different_seeds_differ(self):
        a = generate_graph(GRAPH_PROFILES["LJ"], seed=1, scale=0.1)
        b = generate_graph(GRAPH_PROFILES["LJ"], seed=2, scale=0.1)
        assert a != b

    def test_same_edges_in_processes_with_different_hash_salts(self):
        """Neither the generator's seed nor a JVM's identity-hash seed may
        depend on ``hash(str)``, which is salted per interpreter process."""
        script = (
            "import hashlib\n"
            "from repro.datasets.graphs import GRAPH_PROFILES, generate_graph\n"
            "from repro.jvm.jvm import JVM\n"
            "edges = generate_graph(GRAPH_PROFILES['LJ'], seed=7, scale=0.1)\n"
            "print(hashlib.sha256(repr(edges).encode()).hexdigest())\n"
            "jvm = JVM(name='salted')\n"
            "print(jvm.identity_hash(jvm.new_instance('java.lang.Object')))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"

        def outputs(hashseed):
            env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
                       PYTHONPATH=str(src))
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env=env, timeout=60, check=True)
            return done.stdout.split()

        here = generate_graph(GRAPH_PROFILES["LJ"], seed=7, scale=0.1)
        jvm = JVM(name="salted")
        expected = [
            hashlib.sha256(repr(here).encode()).hexdigest(),
            str(jvm.identity_hash(jvm.new_instance("java.lang.Object"))),
        ]
        assert outputs(1) == outputs(2) == expected


class TestTextStatistics:
    def test_zipf_head_dominates(self):
        lines = generate_text_corpus(lines=400, words_per_line=10)
        counts = {}
        for line in lines:
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        total = sum(ordered)
        head = sum(ordered[: max(1, len(ordered) // 20)])
        assert head > 0.25 * total  # top 5% of words >25% of mass

    def test_vocabulary_bounded(self):
        lines = generate_text_corpus(lines=100, vocabulary_size=50)
        words = {w for line in lines for w in line.split()}
        assert len(words) <= 50


class TestCostModelProfiles:
    def test_infiniband_faster_than_ethernet(self):
        eth = DEFAULT_COST_MODEL.network_transfer(1_000_000)
        ib = INFINIBAND_COST_MODEL.network_transfer(1_000_000)
        assert ib < eth / 5

    def test_profiles_share_cpu_constants(self):
        assert INFINIBAND_COST_MODEL.reflective_access == \
            DEFAULT_COST_MODEL.reflective_access
        assert INFINIBAND_COST_MODEL.memcpy_per_byte == \
            DEFAULT_COST_MODEL.memcpy_per_byte
