"""A reference loop that measures how fast the machine is running right now.

On a shared virtual machine the speed a single thread gets drifts by tens of
percent over seconds (a busy hyperthread sibling, host steal time). The
benchmark runs one unit of this fixed loop after every ~25 ms of timed
calls and divides each call's wall time by the local speed of the loop, so
that drift cancels out of the end-to-end figures.

The loop mixes what kaf's hot paths are made of: interpreter work, small
numpy calls (asarray, einsum, exp, dot) and matvecs, one cache-resident and
one streaming a larger matrix. The larger matrix is sized like the
workload's own state, so the loop feels the same cache contention: 2 MiB
for the small-state workloads, which fits the 2 MiB per-core L2, and 8 MiB
for KRLS at K=500, whose P, M, G^-1 and Gram matrix stream from the shared
L3 that other tenants also use. The loop must not follow kaf itself: a
unit's speed must not depend on kaf's own memory traffic, or the divisor
would cancel part of a real change. neutrality.py checks this.

Normalized times are reported in reference seconds ("ref-s"): wall seconds
scaled by unit_s / (measured duration of one unit). unit_s is the unit's
median duration on the development machine (2 vCPU Intel Xeon VM, 2 MiB L2
per core, Python 3.11, numpy 2.4, OpenBLAS 0.3.31), so there a reference
second is close to a wall second.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median unit duration on the development machine, by the side of the
# streamed matrix.
REF_UNIT_S = {512: 2.35e-3, 1024: 2.7e-3}
CHUNK_S = 0.025          # timed work between two reference units
WINDOW = 2               # reference units on each side of a chunk
POOL_UNITS = 60          # units per thread in one pooled reference


class RefClock:
    def __init__(self, matrix_n: int):
        rng = np.random.default_rng(12345)
        self._A = rng.standard_normal((64, 64))
        self._x = rng.standard_normal(64)
        self._C = rng.standard_normal((16, 3))
        self._a = rng.standard_normal(16)
        self._B = rng.standard_normal((matrix_n, matrix_n))
        self._z = rng.standard_normal(matrix_n)
        self._passes = max(1, 3 * 512 * 512 // (matrix_n * matrix_n))
        self.unit_s = REF_UNIT_S[matrix_n]

    def unit(self) -> float:
        """Run the reference loop once; return its wall time in seconds."""
        A, x, C, a = self._A, self._x, self._C, self._a
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(120):
            v = np.asarray(x[i % 60: i % 60 + 3], dtype=np.float64)
            diff = C - v
            h = np.exp(-np.einsum("ij,ij->i", diff, diff))
            acc += float(h @ a)
            y = A @ x
            acc += float(y[i % 64]) * 1e-9
            acc = _py_work(acc, i)
        for _ in range(self._passes):
            acc += float((self._B @ self._z)[0]) * 1e-9
        dt = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise ArithmeticError("reference loop produced a non-finite value")
        return dt

    def pooled(self, threads: int) -> float:
        """Wall time of `threads` threads each running POOL_UNITS units at once.

        This is the reference for `kaf run`, whose trial pool runs Python on
        every CPU and hands the interpreter lock between threads, as this does.
        """
        t0 = time.perf_counter()
        with ThreadPoolExecutor(threads) as pool:
            for f in [pool.submit(lambda: [self.unit() for _ in range(POOL_UNITS)])
                      for _ in range(threads)]:
                f.result()
        return time.perf_counter() - t0

    def pooled_nominal(self, threads: int) -> float:
        """What `pooled` takes when the units run one after another at unit_s."""
        return threads * POOL_UNITS * self.unit_s


def _py_work(acc: float, i: int) -> float:
    parts = {"y": acc, "e": i * 0.5, "grew": i % 3 == 0}
    return parts["y"] + (parts["e"] if parts["grew"] else 0.0) * 1e-12


class CallTimer:
    """Times single calls and interleaves reference units between chunks.

    `add(dt)` records one call's wall time; after every CHUNK_S of recorded
    time a reference unit runs. `normalized()` returns each call's time in
    reference seconds, scaled by the median of the reference units nearest
    to the chunk that holds the call.
    """

    def __init__(self, clock: RefClock):
        self.clock = clock
        self.raw: list[float] = []
        self.chunk: list[int] = []
        self.refs: list[float] = []
        self._acc = 0.0

    def add(self, dt: float) -> None:
        self.raw.append(dt)
        self.chunk.append(len(self.refs))
        self._acc += dt
        if self._acc >= CHUNK_S:
            self.refs.append(self.clock.unit())
            self._acc = 0.0

    def normalized(self) -> np.ndarray:
        if not self.refs or self.chunk[-1] == len(self.refs):
            self.refs.append(self.clock.unit())
            self._acc = 0.0
        refs = np.array(self.refs)
        local = np.array([np.median(refs[max(0, j - WINDOW): j + WINDOW])
                          for j in range(len(refs))])
        return np.array(self.raw) * (self.clock.unit_s / local[np.array(self.chunk)])
