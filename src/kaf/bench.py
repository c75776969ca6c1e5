"""Per-iteration cost measurement: median step time versus model size.

Each kernel filter has one fixed recipe, `RECIPES`, of the model sizes
where its median step time is read:

- KRLS, driven by a forced-growth stream (widely spaced centers, so every
  sample is admitted and the Gram matrix stays near the identity), at
  K = 500 to 2000, where its O(K^2) step shows a slope near 2.
- KLMS, driven by a plain 128-dimensional random stream, at 500 to 8000
  terms, where its O(n) step shows a slope near 1.

The one step loop, `experiments.step_loop`, times every `step` call from
outside with `perf_counter`; the filters do not time themselves. The size
before step i is i for both kinds, the forced-growth filter's dictionary
size checked against it. The stream runs PASSES times, each on a fresh
filter, and each step's time is its fastest pass. Medians of those are
taken over a window of steps on both sides of each recipe size
(`_half_width`), which keeps the estimate robust against scheduler noise;
a relative IQR above 50% in any bucket is flagged but not fatal.

The timed loop runs in a child process on one BLAS thread
(`python -m kaf.bench KIND` prints its step times as JSON). A
multithreaded BLAS splits a matrix-vector product over threads only above
a size threshold, which would bend the slope by the threads' speed-up
rather than measure the filter's cost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import KafError, ValidationError
from .experiments import step_loop
from .kernels import KernelSpec
from .klms import Klms
from .krls import KrlsAldReg

# The sizes each kind's step time is read at (README gives their grounds).
RECIPES = {
    "krls-ald-reg": (500, 707, 1000, 1414, 2000),
    "klms": (500, 1000, 2000, 4000, 8000),
}
BENCH_KINDS = tuple(RECIPES)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Passes of each kind's stream per child. A KRLS step at K = 500 reads about
# 2 MB, at the edge of the cache, and a burst of load from other processes
# slows its whole 20 ms window: over 14 alternating runs on a 2-vCPU machine
# the one-pass KRLS slope read 1.57-1.79 and the fastest of three passes
# 1.70-1.75.
PASSES = 3


@dataclass(frozen=True)
class BenchRow:
    size: int
    median_step_seconds: float
    rel_iqr: float


@dataclass
class BenchResult:
    kind: str
    rows: list[BenchRow]
    slope: float
    unstable: bool  # any bucket with relative IQR > 50%


def _half_width(k: int) -> int:
    """Steps on each side of size k in the window its median is read over."""
    return max(4, k // 10)


def _collect(kind: str, max_size: int) -> np.ndarray:
    """Run one stream past max_size through `step_loop` and return each
    step's seconds, indexed by the size before it (entry 0, the sample the
    constructor absorbs, is 0).

    The forced-growth stream admits one center per step (checked here, since
    the index stands in for the measured size); KLMS adds one term per step.
    """
    spec = KernelSpec("gaussian", sigma=1.0)
    if kind == "krls-ald-reg":
        # 3-unit spacing with sigma=1: neighbor kernels ~ exp(-9), so the ALD
        # residual is ~1 every step and every sample is admitted.
        U = 3.0 * np.arange(max_size + 2, dtype=np.float64)[:, None]
        d = np.ones(U.shape[0])
        filt = KrlsAldReg(spec, lam=0.1, delta=0.5, first_input=U[0], first_target=1.0)
    else:  # "klms"
        # 128-dimensional stream: the O(n L) kernel sum dominates the fixed
        # call overhead (15-25 us) already at desk-scale expansion sizes.
        rng = np.random.default_rng(0)
        U = rng.standard_normal((max_size + 2, 128))
        d = rng.standard_normal(max_size + 2)
        filt = Klms(spec, 0.01, U[0], d[0])
    dict_size, seconds = step_loop(filt, U, d, start=1)[2:]
    # a KRLS dictionary grows from one center by at most one a step
    if kind == "krls-ald-reg" and dict_size[-1] != U.shape[0]:
        raise KafError(f"forced-growth stream grew to {dict_size[-1]} centers in {U.shape[0]} samples")
    return seconds


def _collect_one_thread(kind: str) -> np.ndarray:
    """`_child(kind)`'s step seconds, from a child process whose BLAS uses
    one thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "kaf.bench", kind],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise KafError(f"bench child exited {proc.returncode}: {last}")
    return np.array(json.loads(proc.stdout))


def run_bench(kind: str) -> BenchResult:
    """Measure the median step time at each of `kind`'s RECIPES sizes and
    fit the log-log slope."""
    if kind not in RECIPES:
        raise ValidationError(f"bench supports {BENCH_KINDS}, got {kind!r}")
    times = _collect_one_thread(kind)
    rows = []
    unstable = False
    for k in RECIPES[kind]:
        half = _half_width(k)
        q25, med, q75 = np.percentile(times[k - half:k + half + 1], [25, 50, 75])
        rel_iqr = float((q75 - q25) / med) if med > 0 else np.inf
        unstable = unstable or rel_iqr > 0.5
        rows.append(BenchRow(size=k, median_step_seconds=float(med), rel_iqr=rel_iqr))

    logk = np.log([r.size for r in rows])
    logt = np.log([r.median_step_seconds for r in rows])
    slope = float(np.polyfit(logk, logt, 1)[0])
    return BenchResult(kind=kind, rows=rows, slope=slope, unstable=unstable)


def _child(kind: str) -> None:
    """Print each step's fastest seconds over PASSES passes of one stream that
    reaches past every window."""
    n = max(k + _half_width(k) for k in RECIPES[kind])
    json.dump(np.minimum.reduce([_collect(kind, n) for _ in range(PASSES)]).tolist(),
              sys.stdout)


if __name__ == "__main__":
    _child(*sys.argv[1:])
