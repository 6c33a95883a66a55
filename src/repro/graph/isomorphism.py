"""Subgraph isomorphism and graph isomorphism for labeled graphs.

Implements a VF2-style backtracking matcher with label and degree pruning.
This is the workhorse behind support counting (``CheckFrequency`` in the
paper's Fig 11/12) and behind duplicate elimination fallbacks.

The matcher finds *subgraph isomorphisms* in the paper's sense (Section 3):
an injective mapping ``f`` from pattern vertices to target vertices that
preserves vertex labels and maps every pattern edge onto a target edge with
the same label.  The target may have extra edges between mapped vertices
(non-induced / monomorphism semantics, which is what frequent subgraph mining
uses).

Existence checks are served by the acceleration layer (:mod:`repro.perf`)
by default.  :func:`count_support` is the one support-counting seam: it
runs the flat CSR batch kernel over a whole candidate list, with an
optional :class:`~repro.perf.SupportCache` in front.
:func:`subgraph_exists` runs the same kernel on one pair.  The original
recursive matcher survives as :func:`subgraph_exists_reference` — the
test oracle, and what every call falls back to when the layer is
disabled.  :func:`find_embeddings` (full enumeration) is unchanged.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator

from .. import perf
from ..perf.counters import COUNTERS
from .canonical import canonical_code
from .database import GraphDatabase
from .labeled_graph import LabeledGraph


def _quick_reject(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """True if the target trivially cannot contain the pattern."""
    if (
        pattern.num_vertices > target.num_vertices
        or pattern.num_edges > target.num_edges
    ):
        return True
    pv, pe = pattern.label_histogram()
    tv, te = target.label_histogram()
    for label, count in pv.items():
        if tv.get(label, 0) < count:
            return True
    for label, count in pe.items():
        if te.get(label, 0) < count:
            return True
    return False


def find_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: int | None = None,
    induced: bool = False,
) -> Iterator[dict[int, int]]:
    """Yield subgraph-isomorphism mappings pattern-vertex -> target-vertex.

    At most ``limit`` mappings are produced when given.  An empty pattern
    yields one empty mapping.

    With ``induced=True`` the mapping must also preserve *non*-edges: two
    unconnected pattern vertices may not map onto adjacent target vertices
    (the AGM family's induced-subgraph semantics).
    """
    if _quick_reject(pattern, target):
        return
    order = perf.match_order(pattern)
    n = len(order)
    if n == 0:
        yield {}
        return

    mapping: dict[int, int] = {}
    used: set[int] = set()
    produced = 0

    # Precompute, for each ordered vertex, its pattern neighbors that are
    # already mapped when it is placed (and, for induced matching, the
    # already-mapped non-neighbors whose images must stay non-adjacent).
    position = {v: i for i, v in enumerate(order)}
    prior_neighbors: list[list[tuple[int, object]]] = []
    prior_non_neighbors: list[list[int]] = []
    for v in order:
        prior = [
            (w, label)
            for w, label in pattern.neighbors(v)
            if position[w] < position[v]
        ]
        prior_neighbors.append(prior)
        if induced:
            neighbor_ids = set(pattern.neighbor_ids(v))
            prior_non_neighbors.append(
                [
                    w
                    for w in order[: position[v]]
                    if w not in neighbor_ids
                ]
            )
        else:
            prior_non_neighbors.append([])

    def candidates(depth: int) -> Iterator[int]:
        v = order[depth]
        v_label = pattern.vertex_label(v)
        prior = prior_neighbors[depth]
        if prior:
            # Candidates must be neighbors of an already-mapped vertex.
            anchor, anchor_label = prior[0]
            for cand, cand_elabel in target.neighbors(mapping[anchor]):
                if cand in used or cand_elabel != anchor_label:
                    continue
                if target.vertex_label(cand) != v_label:
                    continue
                if target.degree(cand) < pattern.degree(v):
                    continue
                yield cand
        else:
            for cand in range(target.num_vertices):
                if cand in used:
                    continue
                if target.vertex_label(cand) != v_label:
                    continue
                if target.degree(cand) < pattern.degree(v):
                    continue
                yield cand

    def feasible(depth: int, cand: int) -> bool:
        for w, label in prior_neighbors[depth]:
            tw = mapping[w]
            if not target.has_edge(cand, tw):
                return False
            if target.edge_label(cand, tw) != label:
                return False
        for w in prior_non_neighbors[depth]:
            if target.has_edge(cand, mapping[w]):
                return False  # induced matching: non-edge must stay one
        return True

    def backtrack(depth: int) -> Iterator[dict[int, int]]:
        nonlocal produced
        if depth == n:
            produced += 1
            yield dict(mapping)
            return
        v = order[depth]
        for cand in candidates(depth):
            if not feasible(depth, cand):
                continue
            mapping[v] = cand
            used.add(cand)
            yield from backtrack(depth + 1)
            used.discard(cand)
            del mapping[v]
            if limit is not None and produced >= limit:
                return

    yield from backtrack(0)


def subgraph_exists(
    pattern: LabeledGraph, target: LabeledGraph, induced: bool = False
) -> bool:
    """True if ``pattern`` is subgraph-isomorphic to ``target``.

    ``induced=True`` switches to induced-subgraph semantics.

    Runs the flat kernel against a weakly cached flat form of the target
    (compiled by label lookup, so a request graph never grows the
    interner) unless the layer is globally disabled.  A pattern with a
    label no flat graph has ever carried has an *unmatchable* plan; it
    goes to the reference matcher, which also decides targets built from
    such labels.  Both paths return identical verdicts.
    """
    if perf.enabled():
        plan = perf.get_flat_plan(pattern)
        if not plan.unmatchable:
            fg = perf.get_flat_graph(target)
            reason = perf.flat_admits(plan, fg)
            if reason == perf.REJECT_QUICK:
                COUNTERS.inc("quick_rejects")
            elif reason:
                COUNTERS.inc("fingerprint_rejects")
            else:
                return perf.flat_exists(plan, fg, induced=induced)
            return False
    return subgraph_exists_reference(pattern, target, induced=induced)


def subgraph_exists_reference(
    pattern: LabeledGraph, target: LabeledGraph, induced: bool = False
) -> bool:
    """The unaccelerated existence check (differential baseline).

    Identical semantics to :func:`subgraph_exists`; always runs the
    recursive reference matcher with only the histogram quick-reject in
    front, and maintains the same global work counters so benchmarks can
    compare searches entered with the layer off and on.
    """
    if _quick_reject(pattern, target):
        COUNTERS.inc("quick_rejects")
        return False
    if pattern.num_vertices > 0:
        COUNTERS.inc("vf2_calls")
    for _ in find_embeddings(pattern, target, limit=1, induced=induced):
        return True
    return False


def are_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """True if the two graphs are isomorphic (same labels, same structure)."""
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    # Same vertex/edge counts: any subgraph isomorphism is a bijection, and
    # edge counts matching forces edge sets to coincide under it.
    return subgraph_exists(g1, g2)


@dataclass
class SupportTally:
    """Work accumulated over :func:`count_support` calls (its ``tally``)."""

    isomorphism_tests: int = 0  # graphs given a search or reference test
    vf2_tests: int = 0  # backtracking searches entered
    fingerprint_rejects: int = 0  # admit-prefilter rejections
    cache_hits: int = 0
    cache_misses: int = 0


def count_support(
    pattern: LabeledGraph,
    database: GraphDatabase,
    candidate_gids: Iterable[int] | None = None,
    induced: bool = False,
    cache: "perf.SupportCache | None" = None,
    key: tuple | None = None,
    minsup: int = 0,
    need_tids: bool = True,
    flat: "perf.FlatDB | None" = None,
    arena: "perf.ScanArena | None" = None,
    known_tids: Iterable[int] = (),
    tally=None,
    cache_lock=None,
) -> tuple[int, set[int]]:
    """Count the database graphs containing ``pattern``.

    ``candidate_gids`` restricts the scan to those gids (the rest count as
    non-supporting) via direct lookup — the cost scales with the candidate
    set, not the database; candidates are scanned in ascending gid order
    (deterministic replay, shared-memory page locality); pass ``None`` to
    scan the whole database; ``induced`` switches to induced-subgraph
    semantics.  ``known_tids`` are gids already known to contain the
    pattern (e.g. child-level TID lists): they count as supporting and
    are not re-tested.  Returns ``(support, supporting_gids)``.

    ``cache`` memoizes per-graph containment verdicts across calls
    (:class:`repro.perf.SupportCache`); ``key`` is the pattern's canonical
    key if already known — when omitted it is derived the first time the
    cache is consulted.  Cache misses go to the kernel; every verdict it
    *decided* is written back, and so are the ``known_tids``.
    ``cache_lock`` (a lock or any context manager) is held around the
    cache probes and write-backs, for caches shared between threads.

    ``minsup`` opts into support-threshold early termination: the scan
    aborts once the remaining candidates cannot reach ``minsup``, and —
    with ``need_tids=False`` — once ``minsup`` supporting graphs are in
    hand.  After an abort the returned pair is a partial lower bound
    whose frequency verdict (``support >= minsup``) is nevertheless
    exact; callers that consume TID lists of frequent patterns keep the
    default ``need_tids=True``, under which frequent results are always
    complete.  The reference path ignores both knobs (always exact).

    ``flat`` is a pre-validated flat compilation of ``database``
    (:func:`repro.perf.get_flat_db`): callers issuing many counts against
    one stable database — a recount pass, a counter's lifetime — fetch it
    once and pass it down, skipping the per-call freshness revalidation
    (the caller then owns the database-unchanged contract).  ``arena`` is
    a :class:`repro.perf.ScanArena` to reuse across scans.  Both are
    ignored with the layer off.

    ``tally``, when given, accumulates the call's work: a
    :class:`SupportTally`, or any object with the same five int
    attributes (:class:`~repro.core.join.SupportCounter` passes itself).
    """
    supporting = set(known_tids)
    if candidate_gids is None and (supporting or cache is not None):
        candidate_gids = database.gids()
    if candidate_gids is not None:
        candidate_gids = sorted(
            g for g in candidate_gids if g not in supporting and g in database
        )

    if not perf.enabled():
        rejected = searched = 0
        order = database.gids() if candidate_gids is None else candidate_gids
        for gid in order:
            graph = database[gid]
            if _quick_reject(pattern, graph):
                rejected += 1
                continue
            if pattern.num_vertices:
                searched += 1
            for _ in find_embeddings(pattern, graph, limit=1, induced=induced):
                supporting.add(gid)
        if rejected:
            COUNTERS.inc("quick_rejects", rejected)
        if searched:
            COUNTERS.inc("vf2_calls", searched)
        if tally is not None:
            tally.isomorphism_tests += len(order)
            tally.vf2_tests += searched
        return len(supporting), supporting

    if cache is not None and key is None:
        try:
            key = canonical_code(pattern)
        except ValueError:  # empty or disconnected pattern: no canonical key
            cache = None
    unresolved = candidate_gids
    if cache is not None:
        lock = cache_lock if cache_lock is not None else nullcontext()
        unresolved = []
        with lock:
            for gid in candidate_gids:
                verdict = cache.get(key, database[gid], induced=induced)
                if verdict is None:
                    unresolved.append(gid)
                elif verdict:
                    supporting.add(gid)
        if tally is not None:
            tally.cache_misses += len(unresolved)
            tally.cache_hits += len(candidate_gids) - len(unresolved)
    scan = None
    if unresolved is None or unresolved:
        if flat is None:
            flat = perf.get_flat_db(database)
        scan = perf.flat_count_batch(
            perf.get_flat_plan(pattern),
            flat,
            unresolved,
            induced=induced,
            minsup=max(0, minsup - len(supporting)) if minsup else 0,
            need_tids=need_tids,
            arena=arena,
        )
        supporting.update(scan.hits)
        if tally is not None:
            tally.isomorphism_tests += scan.searched
            tally.vf2_tests += scan.searched
            tally.fingerprint_rejects += scan.rejected
    if cache is not None:
        # Write back decided verdicts only: an early exit's undecided
        # gids are not misses, just unknowns.  Known TIDs are sound
        # positives here too; memoizing them lets ancestor levels that
        # share these graph instances skip the test entirely.
        hits = set(scan.hits) if scan else ()
        undecided = set(scan.undecided) if scan else ()
        with lock:
            for gid in unresolved:
                if gid not in undecided:
                    cache.put(key, database[gid], gid in hits, induced=induced)
            for gid in known_tids:
                if gid in database:
                    cache.put(key, database[gid], True, induced=induced)
    return len(supporting), supporting
