"""Spans around the program's public calls, recorded from outside.

The traced run replaces each function in :data:`TARGETS` by a wrapper
that records a span: layer name, start, end, parent span and op id.
Module-level functions are replaced in every loaded module that
imported them by name (the benchmark's own included), methods on their
class.  Nothing in the program
changes; :meth:`Tracer.uninstall` puts every original back.

Spans stay in memory until the run ends.  A span's *self time* is its
duration minus the part of it its child spans cover.  Only spans opened
while an op runs are kept, in the thread that opened them.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    children: list[int]


def _units(counts, args, kwargs, result):
    counts["partition.units"] += len(result.units())


def _unit_patterns(counts, args, kwargs, result):
    counts["mining.unit_patterns"] += len(result)


def _mergejoin(counts, args, kwargs, result):
    stats = kwargs.get("stats")
    if stats is None:
        return
    counts["core.mergejoin.candidates"] += stats.candidates_generated
    counts["core.mergejoin.frequent"] += stats.candidates_frequent
    counts["core.mergejoin.levels_skipped"] += stats.join_levels_skipped
    counts["core.mergejoin.pairs_pruned"] += stats.join_pairs_pruned


def _query(counts, args, kwargs, result):
    stats = result.stats
    counts["serve.engine.searches"] += stats.searches
    counts["serve.engine.lru_hits"] += int(stats.lru_hit)
    counts["serve.index.universe"] += stats.universe
    counts["serve.index.pruned"] += stats.pruned


def _unit_edges(counts, args, kwargs, result):
    counts["biggraph.unit_edges"] += result.total_edges()


def _verified(counts, args, kwargs, result):
    counts["biggraph.mni_candidates"] += len(args[1])


def _incremental(counts, args, kwargs, result):
    stats = result.stats
    counts["core.incremental.repartition_ms"] += 1000 * stats.repartition_time
    counts["core.incremental.remine_ms"] += 1000 * stats.remine_time
    counts["core.incremental.merge_ms"] += 1000 * stats.merge_time
    counts["core.incremental.classify_ms"] += 1000 * stats.classify_time
    counts["core.incremental.units_remined"] += stats.units_remined


def _coord(counts, args, kwargs, result):
    digest = result.telemetry.coord
    shards = digest["shards"]
    counts["coord.attempts"] += sum(len(s.get("attempts", ())) for s in shards)
    counts["coord.shard_wall_max_ms"] += 1000 * max(
        (s.get("wall_time") or 0.0 for s in shards), default=0.0
    )
    for name in ("retries", "lease_expiries", "degraded"):
        counts[f"coord.{name}"] += digest["counters"][name]
    phase = digest["global_support"]
    counts["coord.candidates"] += phase["candidates"]
    counts["coord.final"] += phase["frequent"]


#: (span name, module, attribute path, count hook).  A ``*.other`` span
#: wraps a whole layer entry point; its self time is the part of that
#: layer no finer span accounts for.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("graph.io.parse", "repro.graph.io", "loads", None),
    ("mining.store.dump", "repro.mining.store", "dump_patterns", None),
    ("partition.db_partition", "repro.partition.dbpartition", "db_partition", _units),
    ("mining.unit_mine", "repro.mining.gaston", "GastonMiner.mine", _unit_patterns),
    ("graph.canonical", "repro.graph.canonical", "canonical_code", None),
    ("graph.operations.overlay", "repro.graph.operations", "overlay_candidates", None),
    ("core.mergejoin", "repro.core.mergejoin", "merge_join", _mergejoin),
    ("perf.count_support", "repro.graph.isomorphism", "count_support", None),
    ("perf.count_support", "repro.core.join", "SupportCounter.count", None),
    ("perf.cache", "repro.perf.cache", "SupportCache.get", None),
    ("perf.cache", "repro.perf.cache", "SupportCache.put", None),
    ("updates.apply", "repro.updates.model", "apply_updates", None),
    ("serve.service.decode", "repro.serve.service", "decode_graph", None),
    ("serve.service.reload", "repro.serve.service", "PatternService.reload", None),
    ("serve.catalog.publish", "repro.serve.catalog", "PatternCatalog.publish", None),
    ("serve.engine.contains", "repro.serve.engine", "QueryEngine.contains", _query),
    ("serve.engine.match", "repro.serve.engine", "QueryEngine.match", _query),
    ("biggraph.extract", "repro.biggraph.extract", "NeighborhoodExtractor.extract", _unit_edges),
    ("biggraph.mni_verify", "repro.biggraph.mni", "MNISupport.verify", _verified),
    ("coord.mine", "repro.coord.coordinator", "Coordinator.mine", _coord),
    ("coord.recount", "repro.coord.merge", "global_support", None),
    ("storage.spill", "repro.storage.sqlite", "SQLiteBackend.import_database", None),
    ("storage.spill", "repro.storage.sqlite", "SQLiteBackend.checkpoint", None),
    ("core.partminer.other", "repro.core.partminer", "PartMiner.mine", None),
    ("core.incremental.other", "repro.core.incremental", "IncrementalPartMiner.apply_updates", _incremental),
    ("serve.service.other", "repro.serve.service", "PatternService.execute", None),
    ("biggraph.other", "repro.biggraph.miner", "BigGraphMiner.mine", None),
]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, counters: Callable[[], dict] | None = None) -> None:
        """``counters`` returns the program's work counters; each op
        adds their increase over the op to its counts."""
        self.counters = counters
        self._counters_before: dict = {}
        self.spans: list[Span] = []
        self.op: int | None = None
        self.counts: dict[int, dict[str, float]] = {}
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._op_stack: list[int] = []

    # -- recording ------------------------------------------------------
    def begin_op(self, op: int, name: str) -> int:
        self.op = op
        self._op_stack = self._stack()
        self.counts[op] = _Counts()
        if self.counters is not None:
            self._counters_before = self.counters()
        return self._open(name)

    def end_op(self, index: int) -> None:
        self._close(index)
        if self.counters is not None:
            counts = self.counts[self.op]
            for key, value in self.counters().items():
                counts[key] += value - self._counters_before.get(key, 0)
        self.op = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A helper thread's first span belongs under whatever the op's
            # own thread has open: that span is waiting on this work.
            parent = self._op_stack[-1] if self._op_stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, []))
        if parent is not None:
            self.spans[parent].children.append(index)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None and tracer.op is not None:
                hook(tracer.counts[tracer.op], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        # Import every target first, so no module imports a target by
        # name after the scan below and keeps a wrapper past uninstall.
        for _name, module_name, _attr, _hook in TARGETS:
            importlib.import_module(module_name)
        for name, module_name, attr, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in list(sys.modules.values()):
                if mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op: span name -> summed self time (s)."""
        out: dict[int, dict[str, float]] = {}
        for span in self.spans:
            covered = _union(
                (self.spans[c].start, self.spans[c].end) for c in span.children
            )
            per_op = out.setdefault(span.op, _Counts())
            per_op[span.name] += (span.end - span.start) - covered
        return out

    def durations(self, name: str) -> dict[int, list[float]]:
        """Per op: durations (s) of every span called ``name``."""
        out: dict[int, list[float]] = {}
        for span in self.spans:
            if span.name == name:
                out.setdefault(span.op, []).append(span.end - span.start)
        return out


class _Counts(dict):
    def __missing__(self, key):
        return 0.0


def _union(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
