"""Per-iteration cost measurement: median step time versus model size.

KRLS is driven by a forced-growth stream (widely spaced centers, so every
sample is admitted and the Gram matrix stays near the identity); KLMS and
the linear baselines are driven by a plain random stream. The one step
loop, `experiments.step_loop`, times every `step` call from outside with
`perf_counter`; the filters do not time themselves. The size before step i
is i for every kind, the forced-growth filter's dictionary size checked
against it. Medians are taken over a window of steps around each requested
size, which keeps the estimate robust against scheduler noise; a relative
IQR above 50% in any bucket is flagged but not fatal.

The timed loop runs in a child process on one BLAS thread
(`python -m kaf.bench KIND MAX_SIZE WARMUP_SIZE` prints its steps as JSON).
A multithreaded BLAS splits a matrix-vector product over threads only above
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
from .linear import Lms

BENCH_KINDS = ("krls-ald-reg", "klms", "lms")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The largest size whose stream, at most 3 (size + 2) samples, numpy can index.
MAX_SIZE = np.iinfo(np.intp).max // 3 - 2


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


def _collect(kind: str, max_size: int):
    """Run one stream past max_size through `step_loop`, returning each
    step's size before it and its seconds.

    The size before step i is i for every kind: the forced-growth stream
    admits one center per step (checked here, since the index stands in for
    the measured size), KLMS adds one term per step, and LMS's axis is the
    index. LMS steps each sample three times, so that the buckets of its
    size axis hold enough steps for a median.
    """
    rng = np.random.default_rng(0)
    repeats = 3 if kind == "lms" else 1
    try:
        if kind == "krls-ald-reg":
            U = _forced_growth_samples(max_size + 2)
            d = np.ones(U.shape[0])
        elif kind == "klms":
            # 128-dimensional stream: the O(n L) kernel sum dominates the fixed
            # call overhead (15-25 us) already at desk-scale expansion sizes.
            U = rng.standard_normal((max_size + 2, 128))
            d = rng.standard_normal(max_size + 2)
        else:  # "lms"
            U = np.repeat(rng.standard_normal((max_size + 2, 8)), repeats, axis=0)
            d = np.repeat(rng.standard_normal(max_size + 2), repeats)
    except (ValueError, MemoryError) as exc:
        # numpy refuses an array it cannot allocate before it allocates anything
        raise ValidationError(
            f"sizes: a stream past size {max_size} is too large to allocate: {exc}") from exc
    spec = KernelSpec("gaussian", sigma=1.0)
    if kind == "krls-ald-reg":
        filt = KrlsAldReg(spec, lam=0.1, delta=0.5, first_input=U[0], first_target=1.0)
    elif kind == "klms":
        filt = Klms(spec, 0.01, U[0], d[0])
    else:
        filt = Lms(8, 0.1)
    dict_size, seconds = step_loop(filt, U, d, start=repeats)[2:]
    # a KRLS dictionary grows from one center by at most one a step
    if kind == "krls-ald-reg" and dict_size[-1] != U.shape[0]:
        raise KafError(f"forced-growth stream grew to {dict_size[-1]} centers in {U.shape[0]} samples")
    return np.arange(repeats, U.shape[0]) // repeats, seconds[repeats:]


def _collect_one_thread(kind: str, max_size: int, warmup_size: int):
    """A warm-up pass, then `_collect(kind, max_size)`, in a child process
    whose BLAS uses one thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "kaf.bench", kind, str(max_size), str(warmup_size)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise KafError(f"bench child exited {proc.returncode}: {last}")
    steps = json.loads(proc.stdout)
    if "refused" in steps:
        raise ValidationError(steps["refused"])
    return np.array(steps["sizes"]), np.array(steps["seconds"])


def run_bench(kind: str, target_sizes: list[int]) -> BenchResult:
    """Measure median per-step time at each target size and fit the log-log slope.

    `target_sizes` must be strictly increasing integers from 2 to MAX_SIZE;
    they are checked before the child starts. A size whose stream numpy
    cannot allocate is refused by the child, also with ValidationError.
    """
    if not target_sizes or any(s < 2 for s in target_sizes):
        raise ValidationError("sizes must be positive integers >= 2")
    if any(b <= a for a, b in zip(target_sizes, target_sizes[1:])):
        raise ValidationError("sizes must be strictly increasing")
    if target_sizes[-1] > MAX_SIZE:
        raise ValidationError(f"sizes must be at most {MAX_SIZE}, got {target_sizes[-1]}")
    if kind not in BENCH_KINDS:
        raise ValidationError(f"bench supports {BENCH_KINDS}, got {kind!r}")

    sizes, times = _collect_one_thread(kind, target_sizes[-1], min(32, target_sizes[0]))
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


def _child(kind: str, max_size: str, warmup_size: str) -> None:
    # Warm-up pass primes allocator and BLAS paths before anything is timed.
    _collect(kind, int(warmup_size))
    try:
        sizes, seconds = _collect(kind, int(max_size))
    except ValidationError as exc:  # a stream it cannot allocate
        json.dump({"refused": str(exc)}, sys.stdout)
        return
    json.dump({"sizes": sizes.tolist(), "seconds": seconds.tolist()}, sys.stdout)


if __name__ == "__main__":
    _child(*sys.argv[1:])
