"""End-to-end benchmark of the partition-based graph miner.

Usage, from the root of a source checkout::

    python3 e2ebench/run.py --workload mine-d400 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics; ``--trace 1`` runs the same ops half untraced, half with spans
around the program's public calls, and prints the per-layer table.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
must-be-exact check failed, 2 when the checkout has no ``src/repro``.
``--tiny`` swaps in small inputs (the smoke check uses it).

See NOTES.md for why each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups run in blocks of at least ``SETUP_BLOCK_S`` of set-up time,
#: each block between two runs of the calibration loop; blocks repeat
#: until there are ``SETUP_MIN_BLOCKS`` and set-ups took ``SETUP_SECONDS``.
SETUP_BLOCK_S, SETUP_MIN_BLOCKS, SETUP_SECONDS = 0.25, 3, 5.0
#: Seconds the calibration loop takes on the box the bounds were set on
#: (a 2-vCPU shared Xeon, where it took 38-59 ms).  ``setup_s`` is the
#: median calibrated block times this: set-up seconds at that speed.
REFERENCE_CALIBRATION_S = 0.045


def timed_setups(make, calibrate, trace: bool):
    """Set up ``make()`` workloads in calibrated blocks.

    Returns ``(workload, setup_s, wall_times, failures)``: the last
    workload built, ``setup_s`` as above, every set-up's wall time, and
    a failure if two set-ups from the same seed built different inputs.
    A traced run sets up once.
    """
    blocks, wall, failures = [], [], []
    workload = digests = None
    before = calibrate()
    while not blocks or not trace and (
        len(blocks) < SETUP_MIN_BLOCKS or sum(wall) < SETUP_SECONDS
    ):
        block = []
        while not block or not trace and sum(block) < SETUP_BLOCK_S:
            if workload is not None:
                workload.close()
            gc.collect()
            workload = make()
            start = time.perf_counter()
            workload.setup()
            block.append(time.perf_counter() - start)
            if digests not in (None, workload.digests):
                failures.append("set-up built different inputs from the same seed")
            digests = workload.digests
        after = calibrate()
        blocks.append(statistics.mean(block) / ((before + after) / 2))
        wall += block
        before = after
    setup_s = REFERENCE_CALIBRATION_S * statistics.median(blocks)
    return workload, setup_s, wall, failures


def child_pids() -> list[int]:
    """Process ids of this process's children (empty where /proc is missing)."""
    me, pids = str(os.getpid()), []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            ppid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry.name))
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop and reap every child process still there, so none outlives the run.

    Every process the benchmark starts is closed where it is started;
    this is the net under that, for paths out through an exception.
    """
    pids = child_pids()
    if not pids:
        return
    print(f"stopping {len(pids)} leftover child process(es)", file=sys.stderr)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.remove(pid)
                except ChildProcessError:
                    pids.remove(pid)
            time.sleep(0.05)
        if not pids:
            return


def run(args, workdir: Path) -> dict:
    import calib
    import layers
    import workloads
    from measure import end_to_end, timed_loop

    recipe = workloads.TINY if args.tiny else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    workload, setup_s, setup_wall, failures = timed_setups(
        lambda: cls(args.seed, recipe, workdir), calib.calibrate, args.trace
    )
    print(
        f"set-up: {len(setup_wall)} set-ups, wall median "
        f"{statistics.median(setup_wall):.4g} s (ungated)"
    )
    for name, digest in sorted(workload.digests.items()):
        print(f"input {name} sha256 {digest}")
    loop = timed_loop(workload)
    calibrate = calib.PairedCalibration() if workload.processes == 2 else calib.calibrate
    try:
        if args.trace:
            metrics, samples, loop_failures = layers.traced_run(
                workload, loop, args.seconds, calibrate
            )
        else:
            samples = loop(workload, args.seconds, calibrate, warmup=workload.warmup)
            loop_failures = len(workload.failures)
            exact, details = workload.check()
            print(f"check: {json.dumps(details, sort_keys=True)}")
            metrics = end_to_end(samples, setup_s, exact)
    finally:
        workload.close()
        if calibrate is not calib.calibrate:
            calibrate.close()
    failures += workload.failures
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    # Loop failures are already in samples.failed; the rest were found
    # by the set-up replay check or the oracle checks after the loop.
    failed = min(samples.attempted, samples.failed + len(failures) - loop_failures)
    if not args.trace:
        metrics["op_ok_ratio"] = (1.0 - failed / samples.attempted, "ratio")
    return {
        "correct": failed == 0,
        "attempted": samples.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (smoke check)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    # Everything the program writes (catalog snapshots, coordinator run
    # dirs, the SQLite spill) goes under the checkout and is removed.
    workdir = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        result = run(args, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
