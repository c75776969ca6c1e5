"""Synthetic streams, learning-curve records, the step loop and the trial runner.

`step_loop` is the one loop that feeds a filter a stream sample by sample and
times its `step` calls; `kaf bench`, the klms-feature verify suite and
`run_trial`'s timed trials and linear filters go through it. The kernel
filters' untimed trials go through their bulk `run`.

Every generator is fully determined by (config, seed). Random draws happen
in a fixed order (plant parameters, then the driving sequence, then the
observation noise), so the clean signal for a given seed is identical across
noise levels: regenerate with noise_std = 0 to recover it.

Generator closed forms (x is the scalar driving sequence, u(n) the
time-delay embedding [x(n), x(n-1), ..., x(n-L+1)]):

    nonlinear_sysid    x ~ iid N(0, 1)
                       d(n) = tanh(0.5 x(n) + 0.3 x(n-1) x(n-2)) + noise
    noisy_sinc         x ~ iid U(-3, 3)
                       d(n) = sinc(x(n)) + noise, sinc(t) = sin(pi t)/(pi t)
    mackey_glass_like  Euler-discretized delay equation (dt = 1, washout 100)
                       x(t+1) = x(t) + 0.2 x(t-17)/(1 + x(t-17)^10) - 0.1 x(t)
                       d(n) = x(n+1) + noise   (one-step-ahead prediction)
    linear_plant       x ~ iid N(0, 1), w ~ N(0, I_L) drawn once per seed
                       d(n) = w . u(n) + noise
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .base import as_object, check_object, convert
from .exceptions import KafError, NumericalError, ValidationError
from .kernels import KernelSpec
from .klms import Klms
from .krls import KrlsAldReg
from .linear import Lms, Rls

GENERATORS = ("nonlinear_sysid", "noisy_sinc", "mackey_glass_like", "linear_plant")
# The config keys each filter kind reads besides "kind": the only keys its
# config object, flags and grid points may set, and those `FilterConfig.to_json`
# writes. The filter's constructor checks the fields behind them.
FILTER_KEYS = {
    "klms": ("kernel", "eta"),
    "krls-ald-reg": ("kernel", "lambda", "delta"),
    "lms": ("eta",),
    "rls": ("lambda",),
}
FILTER_KINDS = tuple(FILTER_KEYS)
FIELD_NAMES = {"lambda": "lam"}  # config key -> FilterConfig field, where they differ
KERNEL_KINDS = tuple(kind for kind, keys in FILTER_KEYS.items() if "kernel" in keys)
STREAM_KEYS = ("generator", "length", "noise_std", "seed", "embed_L")

CSV_HEADER = ["n", "y", "d", "e", "e2", "dict_size", "step_seconds"]
# One CSV row of a learning curve, floats as `fmt17` prints them (an untimed
# step's 0.0 as 0): the one formatter of `kaf run`'s rows.
CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n"
# Rows `LearningCurve.csv_blocks` formats at once. A 20000-row trial's text
# in one piece took 2935 page faults and 84 ms in a forked worker (median of
# 6, one CPU); in blocks of 1024 rows, 135 faults and 71 ms.
CSV_ROWS = 1024


@dataclass(frozen=True)
class StreamConfig:
    generator: str
    length: int
    noise_std: float = 0.0
    seed: int = 0
    embed_L: int = 1

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValidationError(
                f"stream.generator must be one of {GENERATORS}, got {self.generator!r}"
            )
        for key, kind in (("length", int), ("noise_std", float), ("seed", int),
                          ("embed_L", int)):
            object.__setattr__(self, key, convert(getattr(self, key), kind, f"stream.{key}"))
        if self.seed < 0:
            raise ValidationError(f"stream.seed must be >= 0, got {self.seed!r}")
        if self.embed_L < 1:
            raise ValidationError(f"stream.embed_L must be >= 1, got {self.embed_L!r}")
        if self.length <= self.embed_L:
            raise ValidationError(
                f"stream.length must exceed embed_L ({self.embed_L}), got {self.length!r}"
            )
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValidationError(f"stream.noise_std must be >= 0, got {self.noise_std!r}")

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in STREAM_KEYS}

    @classmethod
    def from_json(cls, obj: dict) -> "StreamConfig":
        return cls(**check_object(obj, STREAM_KEYS, "stream config",
                                  required=("generator", "length")))


def _embed(x: np.ndarray, L: int, start: int, count: int) -> np.ndarray:
    """Rows [x(n), x(n-1), ..., x(n-L+1)] for n = start .. start+count-1.

    A copy, not the window view: the view is read-only, and for L = 1 it is
    already contiguous, so `np.ascontiguousarray` would hand it back as is.
    """
    win = np.lib.stride_tricks.sliding_window_view(x, L)
    return win[start - L + 1: start - L + 1 + count, ::-1].copy()


def generate(config: StreamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Produce the (inputs, targets) pair for a stream config.

    Returns exactly `length` samples; the raw driving sequence is drawn long
    enough that every emitted input has a full embedding window. A `length`
    whose draws numpy cannot allocate raises ValidationError.
    """
    rng = np.random.default_rng(config.seed)
    N, L = config.length, config.embed_L

    try:
        if config.generator == "nonlinear_sysid":
            start = max(L - 1, 2)
            x = rng.standard_normal(N + start)
            idx = np.arange(start, start + N)
            clean = np.tanh(0.5 * x[idx] + 0.3 * x[idx - 1] * x[idx - 2])
            U = _embed(x, L, start, N)
        elif config.generator == "noisy_sinc":
            start = L - 1
            x = rng.uniform(-3.0, 3.0, N + start)
            clean = np.sinc(x[start: start + N])
            U = _embed(x, L, start, N)
        elif config.generator == "mackey_glass_like":
            tau, washout = 17, 100
            need = N + L + 1
            size = tau + 1 + washout + need
            x = np.empty(size)
            # seeded history covers x[0..tau]: the first recursion step reads both
            x[: tau + 1] = 1.2 + 0.05 * rng.standard_normal(tau + 1)
            for t in range(tau, size - 1):
                lagged = x[t - tau]
                x[t + 1] = x[t] + 0.2 * lagged / (1.0 + lagged ** 10) - 0.1 * x[t]
            x = x[tau + 1 + washout:]
            start = L - 1
            idx = np.arange(start, start + N)
            clean = x[idx + 1]
            U = _embed(x, L, start, N)
        else:  # linear_plant
            w = rng.standard_normal(L)
            start = L - 1
            x = rng.standard_normal(N + start)
            U = _embed(x, L, start, N)
            clean = U @ w

        d = clean
        if config.noise_std > 0:
            d = clean + config.noise_std * rng.standard_normal(N)
    except (ValueError, MemoryError) as exc:
        # numpy refuses a draw it cannot allocate (`length` 10**30) before it
        # allocates anything
        raise ValidationError(
            f"stream.length {N} is too long to generate: {exc}") from exc
    return U, d


@dataclass(frozen=True)
class FilterConfig:
    """Which filter to run and with what hyperparameters.

    A kind reads only the fields behind its `FILTER_KEYS` entry and keeps the
    values its filter's constructor, their one rule, stored for them
    (`eta=np.float32(0.25)` reads as 0.25). Defaults (documented, not
    derived): eta=0.2, delta=0.01, lam=0.1, and a Gaussian kernel with
    sigma=1. `lam` is >= 0 for `krls-ald-reg` (0 is the original, ridge-free
    KRLS) and > 0 for `rls`. No field takes None: `kernel` is None only for a
    kind that does not read it.
    """

    kind: str
    kernel: KernelSpec | None = None
    lam: float = 0.1
    delta: float = 0.01
    eta: float = 0.2

    def __post_init__(self):
        """The kind is checked here; the fields it reads by the filter's
        constructor, run on a placeholder sample (k(0, 0) = 1 for both kernel
        families), whose stored values the config then keeps."""
        keys = _filter_keys(self.kind)
        if "kernel" in keys and self.kernel is None:
            object.__setattr__(self, "kernel", KernelSpec("gaussian", sigma=1.0))
        try:
            filt = build_filter(self, np.zeros(1), 0.0, 1)
        except ValidationError as exc:
            raise ValidationError(f"filter.{exc}") from None
        for key in keys:
            if key != "kernel":  # every filter class stores these under the field's name
                field = FIELD_NAMES.get(key, key)
                object.__setattr__(self, field, getattr(filt, field))

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        for key in FILTER_KEYS[self.kind]:
            value = getattr(self, FIELD_NAMES.get(key, key))
            obj[key] = value.to_json() if key == "kernel" else value
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FilterConfig":
        # The kind says which other keys the object takes.
        if "kind" not in as_object(obj, "filter config"):
            raise ValidationError("filter config lacks 'kind'")
        check_object(obj, ("kind",) + _filter_keys(obj["kind"]), "filter config")
        fields = {FIELD_NAMES.get(key, key): value for key, value in obj.items()}
        if "kernel" in fields:
            fields["kernel"] = KernelSpec.from_json(fields["kernel"])
        return cls(**fields)


def _filter_keys(kind) -> tuple:
    """The config keys filter kind `kind` reads besides "kind"."""
    if not (isinstance(kind, str) and kind in FILTER_KEYS):
        raise ValidationError(f"filter.kind must be one of {FILTER_KINDS}, got {kind!r}")
    return FILTER_KEYS[kind]


@dataclass
class LearningCurve:
    """Per-iteration record of a single trial, as `kaf run` prints it; its
    step_seconds are zeros unless the trial was timed (`run_trial`)."""

    n: np.ndarray
    y: np.ndarray
    d: np.ndarray
    e: np.ndarray
    e2: np.ndarray
    dict_size: np.ndarray
    step_seconds: np.ndarray

    def __len__(self) -> int:
        return self.n.shape[0]

    def steady_state_mse(self) -> float:
        """Mean squared error over the final 10% of the records (at least one)."""
        return float(np.mean(self.e2[-max(1, round(0.1 * len(self))):]))

    def convergence_step(self) -> int | None:
        """First step from which the trailing 100-step moving MSE stays within
        10% of the steady-state MSE (one-sided: at most 1.1x). None when the
        curve never settles or is shorter than 100 steps."""
        if len(self) < 100:
            return None
        moving = np.convolve(self.e2, np.ones(100) / 100, mode="valid")
        bad = np.flatnonzero(~(moving <= 1.1 * self.steady_state_mse()))
        first = (bad[-1] + 1) if bad.size else 0
        return int(self.n[first + 99]) if first < moving.shape[0] else None

    def summary(self) -> dict:
        return {
            "steps": len(self),
            "steady_state_mse": self.steady_state_mse(),
            "final_dict_size": int(self.dict_size[-1]),
            "convergence_step": self.convergence_step(),
        }

    def csv_blocks(self):
        """The curve's CSV rows, header excluded, one CSV_ROW each, as texts
        of up to CSV_ROWS rows."""
        for lo in range(0, len(self), CSV_ROWS):
            rows = slice(lo, lo + CSV_ROWS)
            yield "".join(map(CSV_ROW.__mod__, zip(
                self.n[rows].tolist(), self.y[rows].tolist(), self.d[rows].tolist(),
                self.e[rows].tolist(), self.e2[rows].tolist(), self.dict_size[rows].tolist(),
                self.step_seconds[rows].tolist())))

    def append_csv_rows(self, writer) -> None:
        """`csv_blocks` through a `csv.writer` (the same bytes at lineterminator "\\n")."""
        writer.writerows(line.split(",")
                         for text in self.csv_blocks() for line in text.splitlines())


def build_filter(fc: FilterConfig, first_u: np.ndarray, first_d: float,
                 embed_L: int):
    """Instantiate the configured filter. Kernel filters consume the first
    sample at construction; linear filters only need the input order."""
    if fc.kind == "krls-ald-reg":
        return KrlsAldReg(fc.kernel, fc.lam, fc.delta, first_u, first_d)
    if fc.kind == "klms":
        return Klms(fc.kernel, fc.eta, first_u, first_d)
    if fc.kind == "lms":
        return Lms(embed_L, fc.eta)
    return Rls(embed_L, fc.lam)


def step_loop(filt, U: np.ndarray, d: np.ndarray, start: int = 0):
    """Feed samples start, start + 1, ... of (U, d) to `filt.step` one at a
    time, timing each call from outside with `perf_counter`: the one timed
    step loop, which `run_trial`, `kaf bench` and the klms-feature suite
    drive their filters through.

    Returns the arrays y, e, dict_size and seconds over the whole stream,
    zeros before `start`. A KafError leaves as its own type, its message
    prefixed "failed at step N: " with the 1-based step N.
    """
    count = U.shape[0]
    (y, e, seconds), dict_size = np.zeros((3, count)), np.zeros(count, dtype=int)
    for i in range(start, count):
        t0 = time.perf_counter()
        try:
            out = filt.step(U[i], d[i])
        except KafError as exc:
            raise type(exc)(f"failed at step {i + 1}: {exc}") from exc
        seconds[i] = time.perf_counter() - t0
        y[i], e[i], dict_size[i] = out.y, out.e, out.dict_size
    return y, e, dict_size, seconds


def run_trial(fc: FilterConfig, sc: StreamConfig,
              record_timings: bool = False) -> LearningCurve:
    """Feed one generated stream through one filter, recording every step.

    Kernel filters absorb the first sample at construction; that iteration is
    recorded as y = 0, e = d(1) (zero initial model). A filter with a bulk
    `run` (KRLS and KLMS) takes the rest of the stream in one call unless
    `record_timings` is set; every other trial (LMS, RLS, or any timed one)
    goes through `step_loop`,
    which times each `step` call (a kernel filter's construction is timed
    here). For every kind, step_seconds are zeros unless `record_timings` is
    set (wall-clock values are not reproducible). Filter errors are re-raised
    naming the trial's seed and the failing 1-based step. A squared error
    e^2 that is not finite raises NumericalError naming them too, and a
    steady-state MSE that is not finite one naming the seed.
    """
    U, d = generate(sc)
    count = U.shape[0]
    t0 = time.perf_counter()
    filt = build_filter(fc, U[0], d[0], sc.embed_L)
    built = time.perf_counter() - t0
    start = int(fc.kind in KERNEL_KINDS)  # a kernel filter has absorbed sample 0
    try:
        if record_timings or not hasattr(filt, "run"):
            y, e, dict_size, seconds = step_loop(filt, U, d, start)
        else:
            (y, e, seconds), dict_size = np.zeros((3, count)), np.zeros(count, dtype=int)
            try:
                y[start:], e[start:], dict_size[start:] = filt.run(U[start:], d[start:])
            except KafError as exc:
                # filt.n counts the samples committed, the first one included
                raise type(exc)(f"failed at step {filt.n + 1}: {exc}") from exc
        if start:
            e[0], dict_size[0], seconds[0] = d[0], 1, built
        if not record_timings:
            seconds[:] = 0.0
        # A finite e can square, and finite squares can sum, past the float range.
        with np.errstate(over="ignore"):
            curve = LearningCurve(n=np.arange(1, count + 1), y=y, d=d, e=e, e2=e * e,
                                  dict_size=dict_size, step_seconds=seconds)
            mse = curve.steady_state_mse()
        if not np.isfinite(curve.e2).all():
            i = int(np.argmin(np.isfinite(curve.e2)))
            raise NumericalError(f"failed at step {i + 1}: the squared error of "
                                 f"e = {float(e[i])!r} is not finite")
        if not math.isfinite(mse):
            raise NumericalError(f"has a steady-state MSE of {mse!r}, which is not finite")
    except KafError as exc:  # "failed at step N: ..." either way
        raise type(exc)(f"trial with seed {sc.seed} {exc}") from exc
    return curve


def run_trials(fc: FilterConfig, sc: StreamConfig, trials: int,
               workers: int | None = None) -> list[LearningCurve]:
    """Independent untimed trials over seeds sc.seed .. sc.seed + trials - 1,
    run by `pool_map` on up to `workers` processes, results in seed order."""
    trials = convert(trials, int, "trials")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials!r}")
    configs = [replace(sc, seed=sc.seed + i) for i in range(trials)]
    return pool_map(functools.partial(run_trial, fc), configs, workers)


def pool_map(fn, items: list, workers: int | None = None) -> list:
    """[fn(x) for x in items], in submission order whatever the completion
    order: on min(workers, len(items)) forked worker processes, or serially
    when workers <= 1, there is only one item, or the platform cannot fork.

    `fn`, the items and the results must pickle (a module-level function or a
    `functools.partial` of one). Fork keeps the workers' outputs identical to
    the serial run: they inherit the loaded modules, the BLAS thread setting,
    the warning filters and any monkeypatches. Fork copies only the calling
    thread, so no other thread may hold a lock the work needs. A worker's
    exception reaches the caller with its type and message. multiprocessing
    is imported here, not at module top, so `import kaf` does not pay for it.
    """
    if workers is not None and workers > 1 and len(items) > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(min(workers, len(items)),
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(fn, items))
    return [fn(x) for x in items]
