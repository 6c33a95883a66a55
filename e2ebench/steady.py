"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Usage, from the root of a checkout::

    python3 e2ebench/steady.py --runs 10 [--workload serve-mix ...] [--first-seed 1]

Runs the benchmark once per seed (seeds ``first-seed ..``) for each
workload, one run at a time, then prints per metric the median, the
spread (distance between the first and third quartile of
``statistics.quantiles(values, n=4)``, as a share of the median), the
bound from BENCHMARK.json and whether the spread is under a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0",
            ]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-4000:], file=sys.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: {wall:.1f} s wall, "
                + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True,
            )
        print(f"== {workload}: {args.runs} runs")
        for name, series in values.items():
            share = spread(series)
            bound = bounds[name]
            steady = share <= bound / 3
            ok = ok and steady
            print(
                f"  {name:20s} median {statistics.median(series):12.5g}  "
                f"spread {100 * share:6.2f}%  bound {100 * bound:5.1f}%  "
                f"{'steady' if steady else 'NOT under a third of the bound'}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
