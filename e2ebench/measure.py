"""Timed loops and the statistics the benchmark reports.

Both loops are closed: one caller, the next op starts when the last one
returned.  ``gc.collect()`` runs between ops (between read blocks in the
read loop) outside the timing; GC stays on during ops.  The calibration
loop runs between consecutive ops, or blocks of 250 reads, and each op's
``rel`` is its latency over the mean of the two calibrations around it.
(Dividing by the median calibration of the whole run instead was tried:
over five seeds it spread 5-8% where the bracket spreads 3-4%, and on
``serve-mix``, whose read blocks last a fifth of a second, 8% against 3%.)
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

#: Reads timed right after each reload (``serve.engine.cold_read_p50_ms``).
COLD_READS = 10


@dataclass
class Samples:
    """What one timed loop saw."""

    latencies: list[float] = field(default_factory=list)  # s, measured ops
    rel: list[float] = field(default_factory=list)  # op / calibrations around it
    calibrations: list[float] = field(default_factory=list)  # s
    writes: list[float] = field(default_factory=list)  # s, serve-mix writes
    write_rel: list[float] = field(default_factory=list)
    cold_reads: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    next_index: int = 0


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with 10 or more samples above.

    Above 10,000 samples a thousandth of them lie above it (p99.9): in
    ``serve-mix`` the reads beyond it are then about half of the first
    reads after the reloads, however many reloads the run held.  A run
    of ~1 s ops holds 16-25, where 10 above would put it below the
    median; there it is the upper quartile instead.
    """
    ordered = sorted(values)
    above = min(len(ordered) // 4, max(10, len(ordered) // 1000))
    index = len(ordered) - 1 - above
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def timed(samples: Samples, tracer, op_id: int, fn):
    """Run ``fn`` as one attempted op: ``(latency s, result)``, or None if it raised."""
    samples.attempted += 1
    span = tracer.begin_op(op_id, "bench.op") if tracer else None
    start = time.perf_counter()
    try:
        result = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        samples.failed += 1
        return None
    finally:
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op(span)
    return elapsed, result


def loop_ops(workload, seconds, calibrate, start=0, warmup=0, tracer=None) -> Samples:
    """Closed loop over ~1 s ops, calibrating between consecutive ops.

    It ends on a whole number of ``workload.cycle`` ops, so a stream that
    replays in cycles is measured at every position equally often.
    """
    samples = Samples()
    before = calibrate()
    deadline = time.perf_counter() + seconds
    i = start
    while (
        time.perf_counter() < deadline
        or i < start + warmup + 1
        or (i - start) % workload.cycle
    ):
        workload.prepare(i)
        gc.collect()
        done = timed(samples, tracer, i, partial(workload.op, i))
        after = calibrate()
        if done is not None:
            elapsed, out = done
            if not workload.after(i, out):
                samples.failed += 1
            if i >= start + warmup:
                samples.latencies.append(elapsed)
                samples.rel.append(elapsed / ((before + after) / 2))
        samples.calibrations.append(after)
        before = after
        i += 1
    samples.next_index = i
    return samples


def loop_reads(workload, seconds, calibrate, start=0, warmup=0, tracer=None) -> Samples:
    """Closed loop over blocks of reads, a write every ``reads_per_write``.

    Writes get negative op ids in the trace, reads their read index.
    """
    samples = Samples()
    per_block = workload.reads_per_block
    before = calibrate()
    deadline = time.perf_counter() + seconds
    block = start
    while time.perf_counter() < deadline or block < start + warmup + 1:
        gc.collect()
        measured = block >= start + warmup
        first = block * per_block
        cold = 0
        latencies = []
        writes = []
        if block and first % workload.reads_per_write == 0:
            workload.prepare_write()
            done = timed(samples, tracer, -block, workload.write)
            if done is not None:
                writes.append(done[0])
            workload.after_write()
            gc.collect()
            cold = COLD_READS
        for i in range(first, first + per_block):
            done = timed(samples, tracer, i, partial(workload.read, i))
            if done is None:
                continue
            elapsed, answer = done
            workload.after_read(i, answer)
            latencies.append(elapsed)
            if cold and measured:
                samples.cold_reads.append(elapsed)
            cold = max(0, cold - 1)
        after = calibrate()
        if measured:
            scale = (before + after) / 2
            samples.latencies += latencies
            samples.rel += [x / scale for x in latencies]
            samples.writes += writes
            samples.write_rel += [x / scale for x in writes]
        samples.calibrations.append(after)
        before = after
        block += 1
    samples.next_index = block
    return samples


def timed_loop(workload):
    return loop_reads if hasattr(workload, "read") else loop_ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def raw_timings(samples: Samples) -> dict:
    """Wall-clock figures: reported, not gated (see NOTES.md)."""
    busy = sum(samples.latencies) + sum(samples.writes)
    return {
        "op_p50_ms": (1000 * statistics.median(samples.latencies), "ms"),
        "op_tail_ms": (1000 * tail(samples.latencies)[1], "ms"),
        "ops_per_s": ((len(samples.latencies) + len(samples.writes)) / busy, "1/s"),
        "write_p50_ms": (1000 * statistics.median(samples.writes) if samples.writes else 0.0, "ms"),
        "calibration_ms": (1000 * statistics.median(samples.calibrations), "ms"),
    }


def end_to_end(samples: Samples, setup_s: float, exact: float) -> dict:
    pct, tail_rel = tail(samples.rel)
    raw = raw_timings(samples)
    if not samples.writes:
        del raw["write_p50_ms"]
    print(
        f"tails are p{pct:.1f} of {len(samples.rel)} samples; ungated wall clock: "
        + ", ".join(f"{name} {value:.4g} {unit}" for name, (value, unit) in raw.items())
    )
    ops = len(samples.rel) + len(samples.write_rel)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_rel": (statistics.median(samples.rel), "ratio"),
        "op_tail_rel": (tail_rel, "ratio"),
        "ops_per_cal": (ops / (sum(samples.rel) + sum(samples.write_rel)), "1/cal"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "result_exact_ratio": (exact, "ratio"),
    }
