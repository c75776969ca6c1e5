"""Does dividing by the reference loop hide a change made inside kaf?

Every end-to-end time is divided by the speed of a reference loop that runs
between timed calls (refclock.py). If kaf's own memory traffic changed how
fast that loop runs, the divisor would move with the code under test and
cancel part of a real gain or loss. This script injects a known slowdown
into one of two filters fed the same stream:

- KRLS: an extra K x K matvec per step, and an extra (K+1)^2 copy per
  growth step (the costs ROADMAP's in-place growth would remove);
- KLMS: an extra copy of the n-term expansion per step;

each made `--extra` times (default once).

The two filters take turns: the plain one runs until its call timer has run
a reference unit, then the slowed one steps through the same samples, and so
on. Each side's reference units thus follow its own calls, and drift of the
machine falls on both sides alike. Printed per workload, as slowed/plain:
the online phase's time in wall and in reference units, and the median
duration of one reference unit. The scaling is neutral to the program when
the last ratio is 1, so that the first two agree.

    python3 perfbench/neutrality.py [--extra N]
"""

import argparse
import os
import sys
import time
import types

import numpy as np

import run  # sets the BLAS thread count before numpy loads
from refclock import CallTimer, RefClock
from workloads import WORKLOADS, build, prepare

SEED = 1


def slow_down(filt, extra: int) -> None:
    """Inject the slowdown into this filter only."""
    plain = type(filt).step
    sink = []

    def krls_step(self, u, d):
        out = plain(self, u, d)
        for _ in range(extra):
            sink.append((self.P @ self.alpha)[0])
            if out.grew:
                sink.append(self.P.copy()[0, 0])
        return out

    def klms_step(self, u, d):
        for _ in range(extra):
            sink.append(self._centers[:self.n].copy()[0, 0])
        return plain(self, u, d)

    slowed = krls_step if hasattr(filt, "P") else klms_step
    filt.step = types.MethodType(slowed, filt)


def compare(kaf, w, clock: RefClock, U: np.ndarray, d: np.ndarray, extra: int) -> dict:
    filters = (build(kaf, w, U, d), build(kaf, w, U, d))
    slow_down(filters[1], extra)
    timers = (CallTimer(clock), CallTimer(clock))
    i, n, done = 1, U.shape[0], False
    while i < n and not done:
        units = len(timers[0].refs)
        j = i
        while j < n and len(timers[0].refs) == units:
            t0 = time.perf_counter()
            out = filters[0].step(U[j], d[j])
            timers[0].add(time.perf_counter() - t0)
            j += 1
            if w.k_target is not None and out.dict_size >= w.k_target:
                done = True
                break
        for k in range(i, j):
            t0 = time.perf_counter()
            filters[1].step(U[k], d[k])
            timers[1].add(time.perf_counter() - t0)
        i = j
    plain, slowed = (t.normalized() for t in timers)
    return {"steps": plain.size,
            "wall": sum(timers[1].raw) / sum(timers[0].raw),
            "scaled": slowed.sum() / plain.sum(),
            "ref_unit": np.median(timers[1].refs) / np.median(timers[0].refs)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--extra", type=int, default=1, help="times each injected cost is made")
    args = p.parse_args()

    kaf = run.load_kaf(os.getcwd())
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for name, w in sorted(WORKLOADS.items()):
        clock = RefClock(w.ref_matrix)
        for _ in range(50):
            clock.unit()
        (U, d), = prepare(kaf, w, SEED, smoke=False)[0]
        r = compare(kaf, w, clock, U, d, args.extra)
        print(f"{name:13s} steps {r['steps']:6d}  slowed/plain: wall time {r['wall']:.3f}  "
              f"scaled time {r['scaled']:.3f}  reference unit {r['ref_unit']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
