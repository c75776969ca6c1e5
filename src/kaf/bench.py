"""Per-iteration cost measurement: median step time versus model size.

KRLS is driven by a forced-growth stream (widely spaced centers, so every
sample is admitted and the Gram matrix stays near the identity); KLMS and
the linear baselines are driven by a plain random stream. One loop times
every `step` call from outside with `perf_counter`; the filters do not time
themselves. Medians are taken over a window of
steps around each requested size, which keeps the estimate robust against
scheduler noise; a relative IQR above 50% in any bucket is flagged but not
fatal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .kernels import KernelSpec
from .klms import Klms
from .krls import KrlsAldReg
from .linear import Lms

BENCH_KINDS = ("krls-ald-reg", "klms", "lms")


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


def _forced_growth_samples(count: int) -> np.ndarray:
    # 3-unit spacing with sigma=1: neighbor kernels ~ exp(-9), so the ALD
    # residual is ~1 every step and every sample is admitted.
    return 3.0 * np.arange(count, dtype=np.float64)[:, None]


def _collect(kind: str, max_size: int, repeats: int):
    """Run one stream past max_size, returning (size_before_step, seconds) pairs.

    `repeats` applies to LMS only, whose size axis is the step index.
    """
    if kind == "krls-ald-reg":
        spec = KernelSpec("gaussian", sigma=1.0)
        U = _forced_growth_samples(max_size + 2)
        d = np.ones(U.shape[0])
        filt = KrlsAldReg(spec, lam=0.1, delta=0.5, first_input=U[0], first_target=1.0)
        size_before = lambda i: filt.dict_size
        repeats = 1
    elif kind == "klms":
        # 32-dimensional stream: the O(n L) kernel sum dominates fixed call
        # overhead already at desk-scale expansion sizes.
        rng = np.random.default_rng(0)
        spec = KernelSpec("gaussian", sigma=1.0)
        U = rng.standard_normal((max_size + 2, 32))
        d = rng.standard_normal(max_size + 2)
        filt = Klms(spec, 0.01, U[0], d[0])
        size_before = lambda i: filt.n
        repeats = 1
    elif kind == "lms":
        rng = np.random.default_rng(0)
        U = rng.standard_normal((max_size + 2, 8))
        d = rng.standard_normal(max_size + 2)
        filt = Lms(8, 0.1)
        # repeat the constant-time step so bucket medians are populated
        size_before = lambda i: i
    else:
        raise ValidationError(f"bench supports {BENCH_KINDS}, got {kind!r}")
    sizes, times = [], []
    for i in range(1, U.shape[0]):
        for _ in range(repeats):
            sizes.append(size_before(i))
            t0 = time.perf_counter()
            filt.step(U[i], d[i])
            times.append(time.perf_counter() - t0)
    return np.array(sizes), np.array(times)


def run_bench(kind: str, target_sizes: list[int]) -> BenchResult:
    """Measure median per-step time at each target size and fit the log-log slope.

    `target_sizes` must be strictly increasing positive integers.
    """
    if not target_sizes or any(s < 2 for s in target_sizes):
        raise ValidationError("sizes must be positive integers >= 2")
    if any(b <= a for a, b in zip(target_sizes, target_sizes[1:])):
        raise ValidationError("sizes must be strictly increasing")

    # Warm-up pass primes allocator and BLAS paths before anything is timed.
    _collect(kind, min(32, target_sizes[0]), repeats=1)

    sizes, times = _collect(kind, target_sizes[-1], repeats=3)
    rows = []
    unstable = False
    for k in target_sizes:
        half = max(4, k // 10)
        sel = times[(sizes >= k - half) & (sizes <= k + half)]
        if sel.size == 0:
            raise ValidationError(f"no steps recorded near size {k}")
        q25, med, q75 = np.percentile(sel, [25, 50, 75])
        rel_iqr = float((q75 - q25) / med) if med > 0 else np.inf
        unstable = unstable or rel_iqr > 0.5
        rows.append(BenchRow(size=k, median_step_seconds=float(med), rel_iqr=rel_iqr))

    logk = np.log([r.size for r in rows])
    logt = np.log([r.median_step_seconds for r in rows])
    slope = float(np.polyfit(logk, logt, 1)[0])
    return BenchResult(kind=kind, rows=rows, slope=slope, unstable=unstable)
