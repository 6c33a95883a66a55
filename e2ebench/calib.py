"""The calibration loop: a fixed piece of pure-Python work.

The shared host this benchmark runs on changes speed by 15-20% from one
second to the next.  Timing this loop next to every op (or every block
of serving reads) and dividing gives ``op_p50_rel``, a latency in units
of "how fast the box is right now" that drifts far less than raw time.

It imports nothing from ``repro`` and uses only the standard library, so
no change to the program can change the work it does.  The work mixes
the operations graph mining spends its time on: dict and set lookups,
list appends, tuple hashing and sorting.
"""

from __future__ import annotations

import subprocess
import sys
import time


def _work(vertices: int = 600, rounds: int = 8) -> int:
    """BFS from every 50th vertex of a fixed pseudo-random graph."""
    state = 12345
    adjacency: dict[int, list[int]] = {v: [] for v in range(vertices)}
    labels = []
    for v in range(vertices):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        labels.append(state % 7)
        for _ in range(3):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            u = state % vertices
            if u != v:
                adjacency[v].append(u)
                adjacency[u].append(v)
    checksum = 0
    for _ in range(rounds):
        for root in range(0, vertices, 50):
            seen = {root}
            frontier = [root]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in adjacency[v]:
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
                frontier = nxt
            profile = sorted((labels[v], v % 11) for v in seen)
            checksum = (checksum * 31 + hash(tuple(profile))) & 0xFFFFFFFF
    return checksum


def calibrate() -> float:
    """Seconds one pass of the calibration work takes right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class PairedCalibration:
    """The calibration run on two processes at once, for two-process ops.

    The two cores of the box this was tuned on are hyperthread siblings:
    an op whose two worker processes run side by side is slowed by that
    sharing, which one calibration process alone never sees.  Calling an
    instance times :func:`calibrate` here and in a helper process
    concurrently and returns the mean.  :meth:`close` stops the helper
    and waits for it to end.

    The helper is a plain child interpreter running this file, talking
    over its standard input and output, so no ``multiprocessing`` helper
    process (resource tracker, fork server) outlives the benchmark.
    """

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self._process.stdin.write("go\n")
        self._process.stdin.flush()
        mine = calibrate()
        return (mine + float(self._process.stdout.readline())) / 2

    def close(self) -> None:
        try:
            self._process.stdin.write("stop\n")
            self._process.stdin.close()
        except OSError:
            pass
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


if __name__ == "__main__":
    # Helper side of PairedCalibration: one calibration per "go" line.
    for line in sys.stdin:
        if line.strip() != "go":
            break
        print(calibrate(), flush=True)
