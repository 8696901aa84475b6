"""Machine-speed calibration for timings on a shared machine.

On a small shared host the speed of each CPU changes with the load of other
tenants: the same code runs up to twice as slow, in spells that last from a
fraction of a second to minutes, and the CPUs of one host change
independently. Raw wall times of the same code therefore spread more from
run to run than the regressions the benchmark must catch.

The benchmark samples the speed of the CPU its own thread runs on, all
through every timed stage: a timer signal every PERIOD_S interrupts the
stage, and the handler runs one fixed calibration slice and times it. A
few slices also run just before and just after the stage. A sample's speed
is REF_SLICE_S over the slice's time, and the stage's scaled time is

    scaled_s = wall_s * mean speed of its samples

where wall_s leaves out the time of the slices run inside the stage.
``scaled_s`` is the time the stage would take on a machine that runs one
slice in REF_SLICE_S; on the reference machine at full speed it is close to
the wall time. The slice mixes what the program does -- Python loops, dict
and string work, small ``einsum`` and array calls, a sort and a gather --
so that it slows by about as much as the program does. Its inputs are fixed
and independent of the workload seed, and it never calls the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Wall time of one slice on the reference machine at full speed (2.1 GHz
# Xeon vCPU, numpy 2.4 with OpenBLAS on one thread).
REF_SLICE_S = 0.0025
PERIOD_S = 0.05          # wall time between samples inside a stage
EDGE_SLICES = 8          # slices run back to back before and after a stage


class Calibration:
    """One fixed slice of mixed work, timed on demand."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.a = rng.standard_normal((32, 10))
        self.w = rng.standard_normal((10, 10, 10))
        self.table = rng.standard_normal((5000, 10))
        self.index = rng.integers(0, 5000, 512)
        self.big = rng.standard_normal(20_000)
        self.words = {i: f"sym{i:04d}" for i in range(1000)}
        # Bound now, before a traced pass wraps numpy.einsum, so that the
        # tracer never counts the slice's calls.
        self.einsum = np.einsum

    def slice_s(self) -> float:
        """Wall time of one slice, run now."""
        t0 = time.perf_counter()
        total = 0
        for i in range(4_000):                       # bytecode
            total += i * i % 7
        out = [self.words[i % 1000] + "\t1" for i in range(2_000)]
        "\n".join(out).split("\n")                   # dicts and strings
        a, w = self.a, self.w
        for _ in range(15):                          # small einsum calls
            self.einsum("bi,ijk,bk->bj", a, w, a)
        for _ in range(40):                          # small array calls
            np.unique(self.index[:64])
            (a * 2.0).sum(axis=1)
        np.sort(self.big)                            # one memory-bound sort
        table = self.table[:2000].copy()
        for _ in range(2):                           # gathers and scatters
            table[self.index % 2000].sum(axis=0)
            np.add.at(table, self.index % 2000, 1e-9)
        return time.perf_counter() - t0

    def edge_speed(self) -> float:
        """Speed over EDGE_SLICES slices run back to back now."""
        t = sum(self.slice_s() for _ in range(EDGE_SLICES))
        return REF_SLICE_S * EDGE_SLICES / t


class Stages:
    """Wall time and scale of each stage of one timed pass.

    ``run(name, fn)`` calls fn and times it while sampling the machine's
    speed. The edge slices after one stage also count as the edge slices
    before the next. Uses SIGALRM, so it runs in the main thread only.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.wall: dict[str, float] = {}
        self.raw: dict[str, float] = {}      # wall time with the slices inside
        self.scale: dict[str, float] = {}
        self._edge_before = calibration.edge_speed()
        self._inside: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self._inside.append(self.calibration.slice_s())

    def run(self, name: str, fn):
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        edge_after = self.calibration.edge_speed()
        speeds = [self._edge_before, edge_after,
                  *(REF_SLICE_S / s for s in self._inside)]
        self.raw[name] = wall
        self.wall[name] = wall - sum(self._inside)
        self.scale[name] = statistics.fmean(speeds)
        self._edge_before = edge_after
        return result

    def scaled(self, name: str) -> float:
        return self.wall[name] * self.scale[name]

    def total_wall(self) -> float:
        return sum(self.wall.values())

    def total_raw(self) -> float:
        return sum(self.raw.values())

    def total_scaled(self) -> float:
        return sum(self.scaled(name) for name in self.wall)
