"""The traced run and its per-layer table.

The run is split in two halves over the same workload state: the first
untraced (its op latencies are the base of ``bench.trace_overhead``),
the second with :class:`tracing.Tracer` installed.  Each layer metric is
an average over the traced ops in which the layer ran at all, so a
layer that does no work on a workload reads 0 there (the "little / none
on" column of NOTES.md).  Baselines are timed untraced, after the
loops, and are reported, never gated.
"""

from __future__ import annotations

import statistics
import sys

from measure import raw_timings
from tracing import Tracer

#: Span names whose self time is the unattributed rest of a layer entry
#: point, plus the op's own root span.  They do not count as covered.
OTHER = (
    "bench.op",
    "core.partminer.other",
    "core.incremental.other",
    "serve.service.other",
    "biggraph.other",
)

#: Counters of ``repro.perf.snapshot()`` reported per op.
PERF_COUNTERS = (
    "vf2_calls",
    "flat_searches",
    "quick_rejects",
    "fingerprint_rejects",
    "plan_compiles",
    "flat_plan_compiles",
)

#: Baseline metric names per workload: (baseline ms, op ÷ baseline).
BASELINES = {
    "mine-d400": ("baseline.gaston_whole_db_ms", "core.partminer_vs_gaston"),
    "update-d400": ("baseline.remine_ms", "core.incremental.vs_remine"),
    "serve-mix": ("baseline.linear_query_ms", None),
    "big-sharded": ("baseline.big_serial_ms", "coord.vs_serial"),
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(workload, loop, seconds: float, calibrate):
    """Returns ``(metrics, samples, loop_failures)`` for the trace run."""
    from repro import perf

    untraced = loop(workload, seconds / 2, calibrate, warmup=workload.warmup)
    tracer = Tracer(counters=lambda: perf.snapshot().to_dict())
    tracer.install()
    try:
        traced = loop(
            workload, seconds / 2, calibrate, start=untraced.next_index, tracer=tracer
        )
    finally:
        tracer.uninstall()
    loop_failures = len(workload.failures)
    _exact, details = workload.check()
    baseline_ms = workload.baseline()

    metrics = layer_metrics(tracer, workload.name, details)
    op_p50 = 1000 * _median(untraced.latencies)
    for name, (base_metric, ratio_metric) in BASELINES.items():
        ours = name == workload.name
        metrics[base_metric] = (baseline_ms if ours else 0.0, "ms")
        if ratio_metric:
            metrics[ratio_metric] = (_ratio(op_p50, baseline_ms) if ours else 0.0, "ratio")
    raw = raw_timings(untraced)
    metrics["serve.write_p50_ms"] = raw["write_p50_ms"]
    metrics["serve.engine.cold_read_p50_ms"] = (1000 * _median(untraced.cold_reads), "ms")
    for name in ("op_p50_ms", "op_tail_ms", "ops_per_s", "calibration_ms"):
        metrics[f"bench.{name}"] = raw[name]
    # Calibrated latencies, so a drift of the box between halves cancels.
    metrics["bench.trace_overhead"] = (_ratio(_median(traced.rel), _median(untraced.rel)), "ratio")
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    return metrics, untraced, loop_failures


def layer_metrics(tracer: Tracer, workload_name: str, details: dict) -> dict:
    self_times = tracer.self_times()
    counts = tracer.counts
    ops = sorted(counts)

    def per_op_ms(name: str) -> float:
        values = [self_times[op][name] for op in ops if name in self_times.get(op, {})]
        return 1000 * _mean(values)

    def per_op_count(key: str, layer: str) -> float:
        present = tracer.durations(layer)
        values = [counts[op][key] for op in ops if op in present]
        return _mean(values)

    def total(key: str) -> float:
        return sum(counts[op][key] for op in ops)

    calls = {name: tracer.durations(name) for name in ("graph.canonical", "graph.operations.overlay")}
    unit_spans = tracer.durations("mining.unit_mine")
    queried = tracer.durations("serve.engine.contains").keys() | tracer.durations("serve.engine.match").keys()
    reads = [op for op in ops if op in queried]
    verify = tracer.durations("biggraph.mni_verify")
    m: dict[str, tuple[float, str]] = {}
    m["graph.io.parse_ms"] = (per_op_ms("graph.io.parse"), "ms")
    m["mining.store.dump_ms"] = (per_op_ms("mining.store.dump"), "ms")
    m["partition.db_partition_ms"] = (per_op_ms("partition.db_partition"), "ms")
    m["partition.units"] = (per_op_count("partition.units", "partition.db_partition"), "count")
    m["mining.unit_mine_ms"] = (per_op_ms("mining.unit_mine"), "ms")
    m["mining.unit_mine_max_ms"] = (
        1000 * _mean([max(v) for v in unit_spans.values()]),
        "ms",
    )
    m["mining.unit_patterns"] = (per_op_count("mining.unit_patterns", "mining.unit_mine"), "count")
    m["graph.canonical.calls"] = (
        _mean([len(v) for v in calls["graph.canonical"].values()]),
        "count",
    )
    m["graph.canonical_ms"] = (per_op_ms("graph.canonical"), "ms")
    m["graph.operations.overlay_calls"] = (
        _mean([len(v) for v in calls["graph.operations.overlay"].values()]),
        "count",
    )
    m["graph.operations.overlay_ms"] = (per_op_ms("graph.operations.overlay"), "ms")
    m["core.mergejoin_ms"] = (per_op_ms("core.mergejoin"), "ms")
    for key in ("candidates", "frequent", "levels_skipped", "pairs_pruned"):
        m[f"core.mergejoin.{key}"] = (
            per_op_count(f"core.mergejoin.{key}", "core.mergejoin"),
            "count",
        )
    m["core.mergejoin.useful_ratio"] = (
        _ratio(total("core.mergejoin.frequent"), total("core.mergejoin.candidates")),
        "ratio",
    )
    m["perf.count_support_ms"] = (per_op_ms("perf.count_support"), "ms")
    for key in PERF_COUNTERS:
        m[f"perf.{key}"] = (_mean([counts[op][key] for op in ops]), "count")
    m["perf.cache_ms"] = (per_op_ms("perf.cache"), "ms")
    hits, misses = total("support_cache_hits"), total("support_cache_misses")
    m["perf.cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["updates.apply_ms"] = (per_op_ms("updates.apply"), "ms")
    for key in ("repartition_ms", "remine_ms", "merge_ms", "classify_ms"):
        m[f"core.incremental.{key}"] = (
            per_op_count(f"core.incremental.{key}", "core.incremental.other"),
            "ms",
        )
    m["core.incremental.units_remined"] = (
        per_op_count("core.incremental.units_remined", "core.incremental.other"),
        "count",
    )
    m["core.incremental.false_positives"] = (details.get("false_positives_per_batch", 0.0), "count")
    m["core.incremental.stale_supports"] = (details.get("stale_supports_per_batch", 0.0), "count")
    m["serve.service.decode_ms"] = (per_op_ms("serve.service.decode"), "ms")
    m["serve.service.reload_ms"] = (per_op_ms("serve.service.reload"), "ms")
    m["serve.catalog.publish_ms"] = (per_op_ms("serve.catalog.publish"), "ms")
    m["serve.engine.contains_ms"] = (per_op_ms("serve.engine.contains"), "ms")
    m["serve.engine.match_ms"] = (per_op_ms("serve.engine.match"), "ms")
    m["serve.engine.searches_per_read"] = (
        _ratio(total("serve.engine.searches"), len(reads)),
        "count",
    )
    m["serve.engine.lru_hit_ratio"] = (_ratio(total("serve.engine.lru_hits"), len(reads)), "ratio")
    m["serve.index.pruned_ratio"] = (
        _ratio(total("serve.index.pruned"), total("serve.index.universe")),
        "ratio",
    )
    m["biggraph.extract_ms"] = (per_op_ms("biggraph.extract"), "ms")
    m["biggraph.unit_edges"] = (per_op_count("biggraph.unit_edges", "biggraph.extract"), "count")
    m["biggraph.mni_verify_ms"] = (per_op_ms("biggraph.mni_verify"), "ms")
    m["biggraph.mni_patterns_per_s"] = (
        _ratio(total("biggraph.mni_candidates"), sum(sum(v) for v in verify.values())),
        "1/s",
    )
    m["coord.mine_ms"] = (per_op_ms("coord.mine"), "ms")
    m["coord.recount_ms"] = (per_op_ms("coord.recount"), "ms")
    m["coord.shard_wall_max_ms"] = (per_op_count("coord.shard_wall_max_ms", "coord.mine"), "ms")
    m["coord.candidate_useful_ratio"] = (
        _ratio(total("coord.final"), total("coord.candidates")),
        "ratio",
    )
    for key in ("attempts", "retries", "lease_expiries", "degraded"):
        m[f"coord.{key}"] = (per_op_count(f"coord.{key}", "coord.mine"), "count")
    m["storage.spill_ms"] = (per_op_ms("storage.spill"), "ms")
    for name in OTHER[1:]:
        m[f"{name}_ms"] = (per_op_ms(name), "ms")
    m["bench.unattributed_ms"] = (per_op_ms("bench.op"), "ms")

    walls = tracer.durations("bench.op")
    wall = sum(sum(v) for v in walls.values())
    covered = sum(
        value for op in ops for name, value in self_times.get(op, {}).items() if name not in OTHER
    )
    m["bench.layer_coverage"] = (_ratio(covered, wall), "ratio")
    print_table(self_times, ops, wall, workload_name)
    return m


def _mean(values) -> float:
    """Mean of per-op values (a median would hide ops that do more work)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def print_table(self_times, ops, wall: float, workload_name: str) -> None:
    """Self time per layer, as a share of traced op wall time."""
    totals: dict[str, float] = {}
    for op in ops:
        for name, value in self_times.get(op, {}).items():
            totals[name] = totals.get(name, 0.0) + value
    print(f"layer table for {workload_name}: {len(ops)} traced ops, {1000 * wall:.1f} ms")
    for name, value in sorted(totals.items(), key=lambda item: -item[1]):
        share = _ratio(value, wall)
        flag = ""
        if name in OTHER and share > 0.10:
            flag = "  <- not accounted for by a finer span"
        print(f"  {name:32s} {1000 * value / max(1, len(ops)):10.3f} ms/op {100 * share:6.1f}%{flag}")
    sys.stdout.flush()
