"""Smoke check of the benchmark: every workload, tiny inputs, both modes.

Usage, from the root of a checkout::

    python3 e2ebench/smoke.py

For each workload it runs ``run.py --tiny --seconds 1`` untraced and
traced, and asserts that the run exits 0, reports ``correct``, and
prints every metric BENCHMARK.json names, each with its unit and no
other.  It then copies only BENCHMARK.json and the benchmark directory
into a scratch directory and asserts that the benchmark exits non-zero
there without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "e2ebench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in config["workloads"]):
        for trace, wanted in (("0", config["end_to_end"]), ("1", config["per_layer"])):
            done = run(
                ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--tiny",
            )
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-3000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in wanted}
            if set(metrics) != set(expected):
                problems.append(
                    f"{label}: missing {sorted(set(expected) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(expected))}"
                )
            for name, unit in expected.items():
                got = metrics.get(name)
                if got is not None and (got.get("unit") != unit or not isinstance(got.get("value"), (int, float))):
                    problems.append(f"{label}: {name} printed as {got}, unit should be {unit}")
            print(f"ok  {label}: {len(metrics)} metrics", flush=True)
    bare = ROOT / ".e2ebench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "e2ebench", bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, "--workload", "mine-d400", "--seed", "1", "--seconds", "1", "--trace", "0")
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}")
        else:
            print(f"ok  bare directory: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
