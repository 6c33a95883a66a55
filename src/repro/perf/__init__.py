"""Support-counting acceleration layer (flat kernels, support cache).

``CheckFrequency`` has one fast path and one reference path:

* :mod:`repro.perf.flatgraph` compiles graphs and databases to CSR int
  arrays (one process-global label interner);
* :mod:`repro.perf.fastmatch` compiles patterns to :class:`FlatPlan`\\ s
  and runs the integer-space admit prefilter and the single-pair
  existence search;
* :mod:`repro.perf.batchscan` fuses admit and search over a whole
  candidate list in one frame — the kernel behind
  :func:`repro.graph.isomorphism.count_support`, the one counting seam;
* :mod:`repro.perf.cache` memoizes per-graph containment verdicts under
  canonical keys across partition-tree levels and update batches.

All fast paths are behaviour-preserving: the differential test-suite pins
them against the reference matcher.  The layer can be switched off
globally (``set_enabled(False)``, the CLI ``--no-accel`` flag, or the
``REPRO_NO_ACCEL`` environment variable), which routes every existence
check through the original recursive matcher — the test oracle and the
baseline the benchmarks compare against.

Work counters live in :mod:`repro.perf.counters` (re-exported for
benchmark code as :mod:`repro.bench.counters`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ._state import accel_token, bump_token as _bump_token
from .batchscan import (
    BatchScan,
    ScanArena,
    flat_count_batch,
    local_arena,
)
from .cache import SupportCache
from .counters import (
    COUNTERS,
    PerfCounters,
    delta_since,
    global_counters,
    reset_counters,
    snapshot,
)
from .fastmatch import (
    ADMIT,
    REJECT_DEGREE,
    REJECT_QUICK,
    FlatPlan,
    flat_admits,
    flat_exists,
    get_flat_plan,
    match_order,
)
from .flatgraph import (
    INTERNER,
    FlatDB,
    FlatGraph,
    FlatSegment,
    attach_segment,
    get_flat_db,
    get_flat_graph,
    live_segments,
)

_ENABLED = not os.environ.get("REPRO_NO_ACCEL")


def enabled() -> bool:
    """True when the acceleration layer is globally active."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Switch the layer on or off; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    if previous != _ENABLED:
        _bump_token()
    return previous


@contextmanager
def disabled():
    """Run a block on the unaccelerated reference paths (for testing)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


__all__ = [
    "ADMIT",
    "BatchScan",
    "COUNTERS",
    "FlatDB",
    "FlatGraph",
    "FlatPlan",
    "FlatSegment",
    "INTERNER",
    "PerfCounters",
    "REJECT_DEGREE",
    "REJECT_QUICK",
    "ScanArena",
    "SupportCache",
    "accel_token",
    "attach_segment",
    "delta_since",
    "disabled",
    "enabled",
    "flat_admits",
    "flat_count_batch",
    "flat_exists",
    "get_flat_db",
    "get_flat_graph",
    "get_flat_plan",
    "global_counters",
    "live_segments",
    "local_arena",
    "match_order",
    "reset_counters",
    "set_enabled",
    "snapshot",
]
