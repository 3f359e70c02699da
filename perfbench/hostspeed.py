"""Host-speed monitor: tiny fixed kernels, timed over and over on the CPU
the benchmark runs on.

The benchmark shares a few cores of a busy host whose speed drifts by
15-20% over tens of seconds, and by more for seconds at a time; the
worker's CPU time tracks its wall time, so this is a slower CPU, not time
taken from the process.  Every PERIOD_S the monitor wakes on the
workload's CPU, times the next of KERNELS in turn (1-2 ms each, each like
one kind of work damage_sim does) and sleeps again, so it sees the speed
the workload gets while taking a few percent of the CPU.  It never
imports damage_sim, so a change to the program does not change the
kernels.

A measured interval's host factor is the geometric mean, over the
kernels, of their mean time during it over their REFERENCE_S; the
interval's length divided by that factor is its length in reference-host
seconds.  Run as a script, the monitor pins itself to the CPU given as
its argument, prints "ready" once warm, samples until its standard input
closes and then prints the samples, [[start, kernel, seconds], ...] with
the start on the time.monotonic clock, as JSON.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np


def vector_steps(st):
    """Projected-gradient steps on 201-vectors, as in the damage solve."""
    x, g, acc = st["x"].copy(), st["x"][::-1].copy(), 0.0
    for _ in range(150):
        z = x - 0.05 * (g * x - 0.3)
        x = np.minimum(np.maximum(z, 0.0), 1.0)
        acc += float(np.dot(x, g))
    counts = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


def array_sweeps(st):
    """Passes over a 1-MB array, as over the (K, N) forcing means."""
    big, acc = st["big"], 0.0
    for _ in range(12):
        acc += float(big.sum())
        np.multiply(big, 1.0, out=big)
    return acc


def python_loop(st):
    """Plain interpreted arithmetic and list work, as in the glue."""
    acc, out = 0.0, []
    for i in range(6000):
        acc += (i * 0.5) % 7.0
        out.append(acc)
    return sum(out)


def csv_format(st):
    """Number formatting, as in the snapshot CSV files."""
    buf = io.StringIO()
    np.savetxt(buf, st["table"], delimiter=",", fmt="%.17g")
    return buf.tell()


KERNELS = (vector_steps, array_sweeps, python_loop, csv_format)
# Median time of each kernel on the 2-core Intel Xeon host the benchmark
# was defined on; they only set the scale of reference seconds.
REFERENCE_S = (1.8e-3, 1.3e-3, 1.25e-3, 0.86e-3)
PERIOD_S = 0.05


def monitor() -> None:
    rng = np.random.default_rng(12345)
    st = {"x": rng.random(201), "big": rng.random(131072),
          "table": rng.random((120, 3))}
    for kernel in KERNELS:                    # warm-up
        kernel(st)
    print("ready", flush=True)
    samples = []
    for i in itertools.count():
        j = i % len(KERNELS)
        t0 = time.monotonic()
        KERNELS[j](st)
        samples.append((t0, j, time.monotonic() - t0))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break                             # stdin closed: stop
    json.dump(samples, sys.stdout)


class Monitor:
    """The monitor process, pinned to ``cpu``; ``stop`` ends it and
    returns its samples."""

    def __init__(self, cpu: int):
        self.samples = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()           # "ready" after its warm-up

    def stop(self) -> list:
        if self.proc.returncode is None:
            try:
                out, _ = self.proc.communicate(timeout=10)
                self.samples = json.loads(out) if out.strip() else []
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        return self.samples


def host_factor(samples: list, start: float, seconds: float) -> float:
    """Geometric mean over kernels of (mean kernel time / its REFERENCE_S),
    for the samples started during [start, start + seconds]; the nearest
    sample if none was."""
    inside = [(j, d) for t, j, d in samples if start <= t <= start + seconds]
    if not inside:
        inside = [min(samples, key=lambda s: abs(s[0] - start))[1:]]
    logs = [math.log(statistics.fmean(d for k, d in inside if k == j)
                     / REFERENCE_S[j])
            for j in sorted({j for j, _ in inside})]
    return math.exp(statistics.fmean(logs))


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    monitor()
