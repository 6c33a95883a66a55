"""MNI support semantics: differential tests against a brute-force oracle.

The oracle enumerates every embedding of a pattern in the *whole* graph
with the reference matcher and takes the minimum distinct-image count —
the textbook MNI definition, with no decomposition involved.  The
neighborhood-folded counter must agree exactly for patterns of radius
≤ r (the soundness guarantee) and never exceed it otherwise, under
every cell of the acceleration matrix (off / accel).
"""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.biggraph import (
    BigGraphMiner,
    MNISupport,
    NeighborhoodExtractor,
    pattern_radius,
)
from repro.graph.canonical import min_dfs_code
from repro.graph.isomorphism import find_embeddings
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gspan import GSpanMiner
from repro.mining.store import dump_patterns

from .conftest import make_graph, path_graph, random_graph, star_graph


def oracle_mni(pattern: LabeledGraph, graph: LabeledGraph) -> int:
    """Brute-force minimum-image support over the whole graph."""
    if pattern.num_vertices == 0:
        return 0
    images = [set() for _ in range(pattern.num_vertices)]
    for mapping in find_embeddings(pattern, graph):
        for pv, tv in mapping.items():
            images[pv].add(tv)
    return min(len(s) for s in images)


def accel_matrix():
    """The two acceleration states as (name, contextmanager factory)."""
    from contextlib import nullcontext

    return [("off", perf.disabled), ("accel", nullcontext)]


def candidate_patterns(graph: LabeledGraph, max_size: int = 3):
    """Every pattern occurring in ``graph``, mined transactionally."""
    from repro.graph.database import GraphDatabase

    db = GraphDatabase.from_graphs([graph])
    return [p.graph for p in GSpanMiner(max_size=max_size).mine(db, 1)]


@st.composite
def connected_graphs(draw, max_vertices=8, vlabels=3, elabels=2):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = LabeledGraph()
    for _ in range(n):
        graph.add_vertex(draw(st.integers(0, vlabels - 1)))
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        graph.add_edge(v, parent, draw(st.integers(0, elabels - 1)))
    for _ in range(draw(st.integers(0, 3))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.integers(0, elabels - 1)))
    return graph


class TestPatternRadius:
    def test_known_shapes(self):
        assert pattern_radius(path_graph(2)) == 1
        assert pattern_radius(path_graph(3)) == 1  # center vertex
        assert pattern_radius(path_graph(4)) == 2
        assert pattern_radius(star_graph(5)) == 1
        assert pattern_radius(make_graph([0], [])) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            pattern_radius(make_graph([0, 0], []))


class TestMNIDifferential:
    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(), st.integers(1, 2))
    def test_matches_oracle_across_accel_matrix(self, graph, radius):
        db = NeighborhoodExtractor(radius=radius).extract(graph)
        for pattern in candidate_patterns(graph):
            canon = min_dfs_code(pattern).to_graph()
            expected = oracle_mni(canon, graph)
            rho = pattern_radius(canon)
            counts = {}
            for name, mode in accel_matrix():
                with mode():
                    counter = MNISupport(graph, db, radius)
                    counts[name] = counter.count(pattern)
            baseline = counts["off"]
            for name, count in counts.items():
                assert count.support == baseline.support, name
                assert count.min_image == baseline.min_image, name
                assert count.vertex == baseline.vertex, name
            if rho <= radius:
                assert baseline.support == expected
            else:
                assert baseline.support <= expected

    @settings(max_examples=10, deadline=None)
    @given(connected_graphs(max_vertices=7), st.integers(2, 3))
    def test_candidate_seed_equals_full_scan(self, graph, radius):
        # Seeding the locate phase with a TID superset must not change
        # the count — the optimization the miner's verify pass uses.
        db = NeighborhoodExtractor(radius=radius).extract(graph)
        counter = MNISupport(graph, db, radius)
        for pattern in candidate_patterns(graph, max_size=2):
            full = counter.count(pattern)
            seeded = counter.count(
                pattern, candidate_gids=set(db.gids())
            )
            assert seeded == full

    def test_zero_support_pattern(self):
        graph = path_graph(4, vlabel=0)
        db = NeighborhoodExtractor(radius=1).extract(graph)
        counter = MNISupport(graph, db, 1)
        absent = make_graph([7, 7], [(0, 1, 9)])
        count = counter.count(absent)
        assert count.support == 0
        assert count.min_image == frozenset()


class TestAccelMatrixByteIdentity:
    @pytest.mark.parametrize("seed", [2, 11])
    def test_full_runs_dump_identically(self, seed):
        rng = random.Random(seed)
        graph = random_graph(
            rng, 40, extra_edges=25, num_vertex_labels=3
        )
        dumps = {}
        for name, mode in accel_matrix():
            with mode():
                result = BigGraphMiner(radius=1, max_size=3).mine(
                    graph, 3
                )
                buffer = io.StringIO()
                dump_patterns(result.patterns, buffer)
                dumps[name] = buffer.getvalue()
        baseline = dumps["off"]
        assert len(baseline.splitlines()) > 1  # found something
        for name, text in dumps.items():
            assert text == baseline, name
