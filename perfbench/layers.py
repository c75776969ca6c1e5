"""Per-layer timings at fixed model sizes.

Dictionaries and KLMS expansions are driven to exactly K entries by the
benchmark's own widely spaced stream: points 3 apart on a line, so with
sigma = 1 neighbouring kernel values are ~exp(-9), every ALD residual is ~1
and every sample is admitted. Each row is the median of repeated calls at
that size; a call that grows the state runs on a fresh deep copy.
"""

from __future__ import annotations

import copy
import time
import tracemalloc

import numpy as np

SIZES = (50, 200, 800)
KLMS_SIZES = (1000, 8000)
REPEATS = 15            # calls that grow the state, each on a fresh copy
FAST_REPEATS = 200      # calls that leave the size unchanged


def spaced_points(count: int, dim: int) -> np.ndarray:
    pts = np.zeros((count, dim))
    pts[:, 0] = 3.0 * np.arange(count)
    return pts


def _us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def _us_on_copy(state, call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        fresh = copy.deepcopy(state)
        t0 = time.perf_counter()
        call(fresh)
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def _alloc_kb(state, call) -> float:
    """tracemalloc peak of one call on a fresh copy, in KiB."""
    fresh = copy.deepcopy(state)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def measure(kaf, dim: int, tracer) -> dict:
    """Every fixed-size per-layer row: metric name -> (value, unit)."""
    spec = kaf.KernelSpec("gaussian", sigma=1.0)
    kernels = kaf.kernels
    out: dict[str, float] = {}
    pts = spaced_points(max(SIZES) + 2, dim)
    far = np.full(dim, -7.0)          # admitted against any spaced prefix
    probe = pts[: max(SIZES)].mean(axis=0) + 0.4

    filt = kaf.KrlsAldReg(spec, lam=0.1, delta=0.5, first_input=pts[0], first_target=1.0)
    for k in SIZES:
        while filt.dict_size < k:
            filt.step(pts[filt.dict_size], 1.0)
        tag = f"k{k}"
        centers = filt.dict.centers
        out[f"kernels.kernel_vector_us.{tag}"] = _us(
            lambda: kernels.kernel_vector(spec, centers, probe), FAST_REPEATS)
        out[f"dictionary.ald_test_us.{tag}"] = _us(
            lambda: filt.dict.ald_test(probe, 0.5), FAST_REPEATS)
        ald = filt.dict.ald_test(far, 0.5)
        out[f"dictionary.grow_us.{tag}"] = _us_on_copy(
            filt.dict, lambda dct: dct.grow(far, ald), REPEATS)
        out[f"krls.step_grow_us.{tag}"] = _us_on_copy(
            filt, lambda f: f.step(far, 0.5), REPEATS)
        unchanged = copy.deepcopy(filt)
        seen = iter(range(10 ** 9))
        out[f"krls.step_unchanged_us.{tag}"] = _us(
            lambda: unchanged.step(pts[next(seen) % k], 1.0), FAST_REPEATS)
        if k == max(SIZES):
            out[f"krls.step_grow_alloc_kb.{tag}"] = _alloc_kb(
                filt, lambda f: f.step(far, 0.5))
            out[f"krls.step_unchanged_alloc_kb.{tag}"] = _alloc_kb(
                filt, lambda f: f.step(pts[0], 1.0))
            out[f"krls.predict_us.{tag}"] = _us(lambda: filt.predict(probe), FAST_REPEATS)
        if k == min(SIZES):
            out.update(_as_input_counts(tracer, filt, far, pts[0]))

    u, v = pts[1], probe
    out["kernels.kernel_eval_us"] = _us(lambda: kernels.kernel_eval(spec, u, v), FAST_REPEATS)

    kpts = spaced_points(max(KLMS_SIZES) + 1, dim)
    klms = kaf.Klms(spec, 0.2, kpts[0], 1.0)
    for n in KLMS_SIZES:
        while klms.n < n:
            klms.step(kpts[klms.n], 1.0)
        out[f"klms.step_us.k{n}"] = _us_on_copy(
            klms, lambda f: f.step(far, 0.5), REPEATS)
    big = klms.centers
    out[f"kernels.kernel_vector_us.k{max(KLMS_SIZES)}"] = _us(
        lambda: kernels.kernel_vector(spec, big, probe), FAST_REPEATS)
    out[f"klms.predict_us.k{max(KLMS_SIZES)}"] = _us(lambda: klms.predict(probe),
                                                   FAST_REPEATS)
    return {name: (value, "KiB" if "_alloc_kb" in name
                   else "count" if ".as_input_calls." in name else "us")
            for name, value in out.items()}


def _as_input_counts(tracer, filt, far, seen_point) -> dict:
    """as_input calls in one unchanged and one growth step, counted by spans."""
    counts = {}
    for label, u in (("unchanged_step", seen_point), ("grow_step", far)):
        fresh = copy.deepcopy(filt)
        tracer.reset()
        tracer.install()
        try:
            out = fresh.step(u, 1.0)
        finally:
            tracer.uninstall()
        if out.grew != (label == "grow_step"):
            raise RuntimeError(f"fixed-size probe for {label} took the other branch")
        counts[f"base.as_input_calls.{label}"] = tracer.calls["base.as_input"]
    tracer.reset()
    return counts
