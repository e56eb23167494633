"""Machine pace: how fast the CPU runs a fixed reference loop, sampled
while a workload is served.

A shared machine's CPU changes speed by up to 1.7x for seconds to minutes at
a time, and the program's speed follows it (on a 2-vCPU Xeon VM, 5-second
window medians of a request mix moved with the reference loop at a
correlation of 0.92).  ``Pace`` is a daemon thread in the serving process
that runs the loop every ``PERIOD_S`` and records when and how long it took.
A request's latency is then scaled by the machine's mean speed around the
request relative to ``REF_NOMINAL_S``: milliseconds at a fixed reference
speed, so that two runs of the same code agree although the machine did not.
The loop does integer arithmetic only, so it allocates nothing the garbage
collector tracks and its time does not depend on the size of the program's
heap.  Scaling does not correct for another process sharing the CPU: the
short loop mostly runs within one time slice and misses the sharing.

As a script it serves one request in a fresh interpreter with the sampler
running, for workloads whose requests are processes of their own, and
writes ``{"pace": samples}`` to the file named first:

    python3 perfbench/pace.py SAMPLES.json verify --suite all --format json
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time

PERIOD_S = 0.1
WINDOW_S = 1.0  # samples this far before and after a request count for it
# about the sampled loop's median time on the 2-vCPU Xeon VM the benchmark
# was defined on, in its fast state; a scaled time is a time at that speed
REF_NOMINAL_S = 0.001
_MODULUS = 10**60 + 7


def reference() -> float:
    """Seconds taken by the fixed reference loop."""
    t0 = time.perf_counter()
    acc, big = 0, 3
    for i in range(4000):
        acc += i * i % 7
        big = (big * 12345 + i) % _MODULUS
    return time.perf_counter() - t0


class Pace(threading.Thread):
    """Daemon thread recording ``(perf_counter, loop seconds)`` samples."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(PERIOD_S):
            dt = reference()
            self.samples.append((time.perf_counter(), dt))

    def stop(self) -> list[tuple[float, float]]:
        self._done.set()
        self.join()
        return self.samples


def scale(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Factor that turns a time measured in [t0, t1] into one at the
    reference speed: the mean of REF_NOMINAL_S / loop time over the samples
    within WINDOW_S of the interval (over all samples, if none lies there).
    The samples are evenly spaced in time, so this is the machine's mean
    speed over the interval relative to the reference speed."""
    near = [dt for t, dt in samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    return statistics.mean(REF_NOMINAL_S / dt for dt in near or [dt for _, dt in samples])


def main(argv: list[str]) -> int:
    out, cli_argv = argv[0], argv[1:]
    pace = Pace()
    pace.start()
    try:
        from deutsch_paths import cli

        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({"pace": pace.stop()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
