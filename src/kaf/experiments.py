"""Synthetic streams, learning-curve records, and the trial runner.

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

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .base import fmt17, scalar_field
from .exceptions import KafError, ValidationError
from .kernels import KernelSpec
from .klms import Klms, check_max_terms
from .krls import KrlsAldReg
from .linear import Lms, Rls

GENERATORS = ("nonlinear_sysid", "noisy_sinc", "mackey_glass_like", "linear_plant")
FILTER_KINDS = ("klms", "krls-ald-reg", "lms", "rls")
KERNEL_KINDS = ("krls-ald-reg", "klms")
STEP_SIZE_KINDS = ("klms", "lms")

CSV_HEADER = ["n", "y", "d", "e", "e2", "dict_size", "step_seconds"]


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
        if self.embed_L < 1:
            raise ValidationError(f"stream.embed_L must be >= 1, got {self.embed_L!r}")
        if self.length <= self.embed_L:
            raise ValidationError(
                f"stream.length must exceed embed_L ({self.embed_L}), got {self.length!r}"
            )
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValidationError(f"stream.noise_std must be >= 0, got {self.noise_std!r}")

    def to_json(self) -> dict:
        return {"generator": self.generator, "length": self.length,
                "noise_std": self.noise_std, "seed": self.seed, "embed_L": self.embed_L}

    @classmethod
    def from_json(cls, obj: dict) -> "StreamConfig":
        if not isinstance(obj, dict):
            raise ValidationError("stream config must be an object")
        unknown = set(obj) - {"generator", "length", "noise_std", "seed", "embed_L"}
        if unknown:
            raise ValidationError(f"unknown stream config keys: {sorted(unknown)}")
        if "generator" not in obj:
            raise ValidationError("stream config lacks 'generator'")
        return cls(
            generator=obj["generator"],
            length=scalar_field(obj, "length", int, where="stream config"),
            noise_std=scalar_field(obj, "noise_std", float, 0.0, "stream config"),
            seed=scalar_field(obj, "seed", int, 0, "stream config"),
            embed_L=scalar_field(obj, "embed_L", int, 1, "stream config"),
        )


def _embed(x: np.ndarray, L: int, start: int, count: int) -> np.ndarray:
    """Rows [x(n), x(n-1), ..., x(n-L+1)] for n = start .. start+count-1."""
    win = np.lib.stride_tricks.sliding_window_view(x, L)
    return np.ascontiguousarray(win[start - L + 1: start - L + 1 + count, ::-1])


def generate(config: StreamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Produce the (inputs, targets) pair for a stream config.

    Returns exactly `length` samples; the raw driving sequence is drawn long
    enough that every emitted input has a full embedding window.
    """
    rng = np.random.default_rng(config.seed)
    N, L = config.length, config.embed_L

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
    return U, d


@dataclass(frozen=True)
class FilterConfig:
    """Which filter to run and with what hyperparameters.

    Defaults (documented, not derived): eta=0.2, delta=0.01, lam=0.1, and a
    Gaussian kernel with sigma=1.
    """

    kind: str
    kernel: KernelSpec | None = None
    lam: float = 0.1
    delta: float = 0.01
    eta: float = 0.2
    forgetting: float = 1.0
    unregularized: bool = False
    max_terms: int | None = None

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValidationError(
                f"filter.kind must be one of {FILTER_KINDS}, got {self.kind!r}"
            )
        if self.kind in KERNEL_KINDS and self.kernel is None:
            object.__setattr__(self, "kernel", KernelSpec("gaussian", sigma=1.0))
        ridge = self.kind == "rls" or (self.kind == "krls-ald-reg" and not self.unregularized)
        if ridge and not (np.isfinite(self.lam) and self.lam > 0):
            raise ValidationError(f"filter.lambda must be > 0, got {self.lam!r}")
        if self.kind == "krls-ald-reg" and (np.isnan(self.delta) or self.delta < 0):
            raise ValidationError(f"filter.delta must be >= 0, got {self.delta!r}")
        if self.kind in STEP_SIZE_KINDS and not (np.isfinite(self.eta) and self.eta > 0):
            raise ValidationError(f"filter.eta must be > 0, got {self.eta!r}")
        if self.max_terms is not None:
            check_max_terms(self.max_terms)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind in KERNEL_KINDS:
            out["kernel"] = self.kernel.to_json()
        if self.kind == "krls-ald-reg":
            out.update({"lambda": self.lam, "delta": self.delta,
                        "unregularized": self.unregularized})
        if self.kind == "rls":
            out.update({"lambda": self.lam, "forgetting": self.forgetting})
        if self.kind in STEP_SIZE_KINDS:
            out["eta"] = self.eta
        if self.kind == "klms" and self.max_terms is not None:
            out["max_terms"] = self.max_terms
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FilterConfig":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("filter config must be an object with a 'kind' key")
        known = {"kind", "kernel", "lambda", "delta", "eta", "forgetting",
                 "unregularized", "max_terms"}
        unknown = set(obj) - known
        if unknown:
            raise ValidationError(f"unknown filter config keys: {sorted(unknown)}")
        kernel = KernelSpec.from_json(obj["kernel"]) if "kernel" in obj else None
        return cls(
            kind=obj["kind"],
            kernel=kernel,
            lam=scalar_field(obj, "lambda", float, 0.1, "filter config"),
            delta=scalar_field(obj, "delta", float, 0.01, "filter config"),
            eta=scalar_field(obj, "eta", float, 0.2, "filter config"),
            forgetting=scalar_field(obj, "forgetting", float, 1.0, "filter config"),
            unregularized=scalar_field(obj, "unregularized", bool, False, "filter config"),
            max_terms=obj.get("max_terms"),
        )


@dataclass
class LearningCurve:
    """Per-iteration record of a single trial."""

    n: np.ndarray
    y: np.ndarray
    d: np.ndarray
    e: np.ndarray
    e2: np.ndarray
    dict_size: np.ndarray
    step_seconds: np.ndarray

    def __len__(self) -> int:
        return self.n.shape[0]

    def steady_state_mse(self, window: int | None = None) -> float:
        """Mean squared error over the trailing `window` records (default:
        the final 10% of the stream)."""
        if window is None:
            window = max(1, round(0.1 * len(self)))
        if not (1 <= window <= len(self)):
            raise ValidationError(
                f"window must be in [1, {len(self)}], got {window!r}"
            )
        return float(np.mean(self.e2[-window:]))

    def convergence_step(self, window: int = 100, rtol: float = 0.1) -> int | None:
        """First step from which the trailing-`window` moving MSE stays within
        `rtol` of the final steady-state MSE (one-sided: at most (1+rtol)x).
        None when the curve never settles or is shorter than the window."""
        if len(self) < window:
            return None
        ss = self.steady_state_mse()
        kernel = np.ones(window) / window
        moving = np.convolve(self.e2, kernel, mode="valid")
        ok = moving <= (1.0 + rtol) * ss
        bad = np.nonzero(~ok)[0]
        first = (bad[-1] + 1) if bad.size else 0
        if first >= moving.shape[0]:
            return None
        return int(self.n[first + window - 1])

    def summary(self, window: int | None = None) -> dict:
        return {
            "steps": len(self),
            "steady_state_mse": self.steady_state_mse(window),
            "final_dict_size": int(self.dict_size[-1]),
            "convergence_step": self.convergence_step(),
        }

    def write_csv(self, fileobj: io.TextIOBase, include_timings: bool = False) -> None:
        """Emit rows under the fixed header. Timings are zeroed unless
        requested: wall-clock values would break byte-level reproducibility."""
        w = csv.writer(fileobj, lineterminator="\n")
        w.writerow(CSV_HEADER)
        self.append_csv_rows(w, include_timings)

    def append_csv_rows(self, writer, include_timings: bool = False) -> None:
        for i in range(len(self)):
            t = self.step_seconds[i] if include_timings else 0.0
            writer.writerow([
                int(self.n[i]), fmt17(self.y[i]), fmt17(self.d[i]), fmt17(self.e[i]),
                fmt17(self.e2[i]), int(self.dict_size[i]), fmt17(t),
            ])

    @classmethod
    def read_csv(cls, fileobj: io.TextIOBase) -> "LearningCurve":
        rows = list(csv.reader(fileobj))
        if not rows or rows[0] != CSV_HEADER:
            raise ValidationError(f"learning-curve CSV must start with {CSV_HEADER}")
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        return cls(n=data[:, 0].astype(int), y=data[:, 1], d=data[:, 2], e=data[:, 3],
                   e2=data[:, 4], dict_size=data[:, 5].astype(int),
                   step_seconds=data[:, 6])


def average_curves(curves: list[LearningCurve]) -> LearningCurve:
    """Pointwise mean across trials (the dict_size column becomes fractional)."""
    if not curves:
        raise ValidationError("cannot average zero curves")
    if len({len(c) for c in curves}) != 1:
        raise ValidationError("curves of unequal length cannot be averaged")
    mean = lambda attr: np.mean([getattr(c, attr) for c in curves], axis=0)
    return LearningCurve(
        n=curves[0].n.copy(), y=mean("y"), d=mean("d"), e=mean("e"), e2=mean("e2"),
        dict_size=mean("dict_size"), step_seconds=mean("step_seconds"),
    )


def build_filter(fc: FilterConfig, first_u: np.ndarray, first_d: float,
                 embed_L: int):
    """Instantiate the configured filter. Kernel filters consume the first
    sample at construction; linear filters only need the input order."""
    if fc.kind == "krls-ald-reg":
        return KrlsAldReg(fc.kernel, fc.lam, fc.delta, first_u, first_d,
                          unregularized=fc.unregularized)
    if fc.kind == "klms":
        return Klms(fc.kernel, fc.eta, first_u, first_d, max_terms=fc.max_terms)
    if fc.kind == "lms":
        return Lms(embed_L, fc.eta)
    return Rls(embed_L, fc.lam, fc.forgetting)


def run_trial(fc: FilterConfig, sc: StreamConfig) -> LearningCurve:
    """Feed one generated stream through one filter, recording every step.

    Kernel filters absorb the first sample at construction; that iteration is
    recorded as y = 0, e = d(1) (zero initial model). This is the one place
    that times the steps of a trial: each `step` call (and a kernel filter's
    construction) is timed from outside with `perf_counter`. Filter errors
    are re-raised naming the trial's seed and the failing 1-based step.
    """
    U, d = generate(sc)
    count = U.shape[0]
    y = np.zeros(count)
    e = np.empty(count)
    dict_size = np.empty(count, dtype=int)
    seconds = np.empty(count)
    t0 = time.perf_counter()
    filt = build_filter(fc, U[0], d[0], sc.embed_L)
    start = 0
    if fc.kind in KERNEL_KINDS:
        seconds[0] = time.perf_counter() - t0
        e[0] = d[0]
        dict_size[0] = 1
        start = 1
    for i in range(start, count):
        t0 = time.perf_counter()
        try:
            out = filt.step(U[i], d[i])
        except KafError as exc:
            raise type(exc)(f"trial with seed {sc.seed} failed at step {i + 1}: {exc}") from exc
        seconds[i] = time.perf_counter() - t0
        y[i], e[i], dict_size[i] = out.y, out.e, out.dict_size
    return LearningCurve(n=np.arange(1, count + 1), y=y, d=d, e=e, e2=e * e,
                         dict_size=dict_size, step_seconds=seconds)


def run_trials(fc: FilterConfig, sc: StreamConfig, trials: int,
               workers: int | None = None) -> list[LearningCurve]:
    """Independent trials over seeds sc.seed .. sc.seed + trials - 1, executed
    on a bounded pool, results in seed order regardless of completion order."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials!r}")
    configs = [replace(sc, seed=sc.seed + i) for i in range(trials)]
    if workers is None or workers <= 1 or trials == 1:
        return [run_trial(fc, c) for c in configs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda c: run_trial(fc, c), configs))
