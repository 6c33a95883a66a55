"""Minimum-image-based (MNI) support over a neighborhood decomposition.

Raw embedding counts are not anti-monotone on a single graph (a larger
pattern can have *more* embeddings than a sub-pattern), so single-graph
mining uses the minimum-image support of Bringmann & Nijssen: for a
pattern ``P`` with vertices ``u``, collect the *image set* ``I(u) =
{f(u) : f an embedding of P}`` and define ::

    mni(P)  =  min over u of |I(u)|

which is anti-monotone — deleting a pattern vertex can only grow the
remaining image sets.

This module computes MNI *through* the r-neighborhood decomposition
(:mod:`repro.biggraph.extract`) in two phases:

1. **Locate** — run the transactional support counter
   (:func:`repro.graph.isomorphism.count_support` with ``need_tids``)
   over the neighborhood database.  This goes through the counting
   seam, so the flat batch kernel applies, and ``--no-accel`` falls
   back to the reference matcher exactly as it does for transactional
   mining.  The result is the
   set of pivots whose neighborhoods contain the pattern at all.
2. **Fold** — enumerate the embeddings inside each supporting
   neighborhood with the reference enumerator and translate unit-local
   vertices back to global ids via the deterministic
   :func:`~repro.biggraph.extract.neighborhood_vertices` order.  Global
   image sets deduplicate the same embedding discovered from several
   overlapping neighborhoods for free.

**Exactness.** With unrestricted pivots, every embedding of a pattern
whose radius is ≤ r lies inside the neighborhood of the image of one of
its center vertices, so the folded image sets are complete and the
count *is* the graph's exact MNI.  For patterns of radius > r (possible
when ``max_size`` allows them) the folded count is a deterministic
**lower bound** — embeddings spanning more than r hops from every
vertex are invisible to the decomposition.  DESIGN.md §16 discusses the
caveat; the planted-recall CI job only plants radius ≤ r patterns.

Determinism down to bytes: the fold runs on the pattern's *canonical*
(min-DFS-code) graph, so the per-vertex image sets — and the argmin
vertex, tie-broken by ``(image count, canonical vertex id)`` — are pure
functions of the isomorphism class and the input graph.  The reported
TID list is the argmin vertex's image set, which satisfies the pattern
store's ``support == len(tids)`` invariant and makes serial, sharded
and accel-matrix runs dump byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import perf
from ..graph.canonical import min_dfs_code
from ..graph.database import GraphDatabase
from ..graph.isomorphism import count_support, find_embeddings
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternSet
from .extract import neighborhood_vertices


def pattern_radius(graph: LabeledGraph) -> int:
    """Radius (minimum eccentricity) of a connected pattern graph.

    The quantity the exactness guarantee is stated in: neighborhood-
    folded MNI is exact for patterns with ``pattern_radius(P) <= r``.
    Disconnected graphs have no finite radius; miners only emit
    connected patterns, so this raises on disconnected input.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    best = None
    for start in range(n):
        depth = {start: 0}
        frontier = [start]
        ecc = 0
        while frontier:
            nxt = []
            for v in frontier:
                for w in graph.neighbor_ids(v):
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        ecc = depth[w]
                        nxt.append(w)
            frontier = nxt
        if len(depth) != n:
            raise ValueError("pattern_radius requires a connected graph")
        if best is None or ecc < best:
            best = ecc
    return best


@dataclass(frozen=True)
class MNICount:
    """One pattern's minimum-image count and its witnesses."""

    #: ``min over u of |I(u)|`` — the MNI support.
    support: int
    #: Canonical pattern vertex realizing the minimum (ties broken by
    #: lowest vertex id).
    vertex: int
    #: The argmin vertex's image set: global vertex ids of the big
    #: graph.  ``len(min_image) == support`` — this is what rides in a
    #: :class:`~repro.mining.base.Pattern`'s TID list.
    min_image: frozenset[int]
    #: Pivots whose neighborhoods contained at least one embedding.
    supporting_pivots: frozenset[int]


class MNISupport:
    """MNI counter over one big graph and its neighborhood database.

    ``database`` must be the ``radius``-decomposition of ``graph``
    produced by :class:`~repro.biggraph.extract.NeighborhoodExtractor`
    (in-memory or a storage-backend view — only gids and unit contents
    matter).  One instance amortizes the flat-database compilation
    across every :meth:`count` of a verification pass, mirroring
    :meth:`repro.mining.base.PatternSet.recount`.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        database: GraphDatabase,
        radius: int,
    ) -> None:
        if radius < 0:
            raise ValueError(f"radius must be >= 0: {radius}")
        self.graph = graph
        self.database = database
        self.radius = radius
        self._flat = perf.get_flat_db(database) if perf.enabled() else None
        self._arena = perf.ScanArena() if self._flat is not None else None

    # ------------------------------------------------------------------
    def count(
        self,
        pattern: LabeledGraph,
        key: tuple | None = None,
        candidate_gids: set[int] | None = None,
    ) -> MNICount:
        """The MNI count of ``pattern``.

        ``candidate_gids`` seeds phase 1 with a known pivot superset
        (e.g. the transactional TID list of a mined candidate), so the
        locate scan costs ``O(candidates)`` instead of ``O(pivots)``.
        """
        if pattern.num_edges:
            canon = min_dfs_code(pattern).to_graph()
        else:
            canon = pattern
        _support, pivots = count_support(
            canon,
            self.database,
            candidate_gids=candidate_gids,
            key=key,
            flat=self._flat,
            arena=self._arena,
        )
        images: list[set[int]] = [
            set() for _ in range(canon.num_vertices)
        ]
        for pivot in sorted(pivots):
            order = neighborhood_vertices(self.graph, pivot, self.radius)
            unit = self.database[pivot]
            for mapping in find_embeddings(canon, unit):
                for pv, local in mapping.items():
                    images[pv].add(order[local])
        if not images:
            return MNICount(0, 0, frozenset(), frozenset(pivots))
        vertex = min(
            range(len(images)), key=lambda v: (len(images[v]), v)
        )
        return MNICount(
            support=len(images[vertex]),
            vertex=vertex,
            min_image=frozenset(images[vertex]),
            supporting_pivots=frozenset(pivots),
        )

    # ------------------------------------------------------------------
    def verify(
        self, candidates: PatternSet, min_support: int
    ) -> PatternSet:
        """Re-verify a transactional candidate set under MNI.

        Each candidate's neighborhood TID list seeds the locate phase;
        survivors carry their MNI count as ``support`` and the argmin
        image set as ``tids`` (so ``support == len(tids)`` holds for
        the pattern store).  The output is a pure function of the
        candidate *keys* and the big graph — the property the
        serial-vs-sharded byte-identity test pins down.
        """
        verified = PatternSet()
        for candidate in candidates:
            count = self.count(
                candidate.graph,
                key=candidate.key,
                candidate_gids=set(candidate.tids),
            )
            if count.support < min_support:
                continue
            graph = candidate.graph
            if graph.num_edges:
                graph = min_dfs_code(graph).to_graph()
            verified.add(
                Pattern(
                    graph=graph,
                    key=candidate.key,
                    support=count.support,
                    tids=count.min_image,
                )
            )
        return verified
