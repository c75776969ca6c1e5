"""End-to-end equivalence suites: the real recursions against batch oracles.

Each suite is a fixed recipe run on the full implementation (no mocking) at
desk scale, the two KRLS ones through one loop, `_krls_run`, and
klms-feature through the trial runner's `step_loop`. `_verdict` turns
its deviations into a result; the CLI `verify` command prints that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError
from .experiments import step_loop
from .kernels import KernelSpec, gram
from .klms import Klms
from .krls import KrlsAldReg
from .oracle import BatchProblem, batch_solve_regularized, feature_space_lms


@dataclass
class VerifyResult:
    suite: str
    max_deviation: float
    tolerance: float
    passed: bool
    first_failure: dict | None = None
    details: dict = field(default_factory=dict)


def _worst(devs: dict) -> float:
    """The largest deviation of `devs`, at least 0 (NaN if one is NaN)."""
    return float(np.max([0.0, *devs.values()]))


def _verdict(suite: str, where: str, checks: list, details: dict,
             diverged: int | None = None) -> VerifyResult:
    """The one result rule, for `checks` of (quantity, tolerance, {index:
    deviation}), headline first: the headline's worst deviation, and the
    earliest `where` index at which a deviation exceeds its tolerance (NaN
    does) or the dictionary diverged. The suite passes iff there is none."""
    fails = [(i, {where: i, quantity: dev}) for quantity, tol, devs in checks
             for i, dev in devs.items() if not dev <= tol]
    if diverged is not None:
        fails.append((diverged, {where: diverged,
                                 "reason": "dictionary diverged from the oracle"}))
    _, tol, devs = checks[0]
    return VerifyResult(
        suite, np.inf if diverged is not None else _worst(devs), tol, not fails,
        min(fails, key=lambda f: f[0], default=(0, None))[1], details)


def _stream_2d(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounded 2-D inputs with a smooth nonlinear target plus mild noise."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(-1.5, 1.5, (n, 2))
    d = np.sin(2.0 * U[:, 0]) * np.cos(U[:, 1]) + 0.3 * U[:, 1] \
        + 0.05 * rng.standard_normal(n)
    return U, d


def _krls_run(samples: int, lam: float, delta: float, seed: int, prefixes: bool = False):
    """Step KrlsAldReg (Gaussian, sigma = 1) on `_stream_2d(samples, seed)`
    beside the batch oracle, sample i as step i + 1, until a step's A row or
    centers differ from the oracle's. Returns the filter, the oracle, {step:
    deviation} dicts and that step (or None). The dicts: "alpha", relative to
    each prefix's solve (with `prefixes`); "gram", ||G W^T W - I||_inf after
    each growth; "p", ||P (L^T L + lam I) - I||_inf / K for L = A G W^T."""
    spec = KernelSpec("gaussian", sigma=1.0)
    U, d = _stream_2d(samples, seed)
    sol = batch_solve_regularized(BatchProblem(U, d, spec, lam, delta), collect_steps=prefixes)
    filt = KrlsAldReg(spec, lam, delta, U[0], d[0])
    devs = {"alpha": {}, "gram": {}, "p": {}}
    for i in range(1, samples):
        step, out = i + 1, filt.step(U[i], d[i])
        k = filt.dict_size
        if sol.A[i, k:].any() or not np.array_equal(filt.dict.centers, sol.centers[:k]):
            return filt, sol, devs, step
        G, W = filt.dict.gram, filt.dict.W
        if prefixes:
            ref = sol.step_alphas[i]
            devs["alpha"][step] = float(np.linalg.norm(filt.alpha - ref, ord=np.inf)
                                        / np.linalg.norm(ref, ord=np.inf))
        if out.grew:
            devs["gram"][step] = float(np.linalg.norm(G @ W.T @ W - np.eye(k), ord=np.inf))
        L = sol.A[: i + 1, :k] @ G @ W.T
        devs["p"][step] = float(np.linalg.norm(
            filt.P @ (L.T @ L + lam * np.eye(k)) - np.eye(k), ord=np.inf)) / k
    return filt, sol, devs, None


def krls_batch_suite() -> VerifyResult:
    """Recursive alpha within 1e-8 relative of the dense solve at every
    prefix of 300 samples (lambda = 0.1, delta = 0.01, seed 11), with the
    count of each update branch and the worst P residual per K."""
    filt, sol, devs, diverged = _krls_run(300, lam=0.1, delta=0.01, seed=11, prefixes=True)
    return _verdict("krls-batch", "step", [("deviation", 1e-8, devs["alpha"])], {
        "grew_steps": len(devs["gram"]), "unchanged_steps": len(devs["p"]) - len(devs["gram"]),
        "final_dict_size": filt.dict_size, "max_p_residual_per_k": _worst(devs["p"]),
        "cond_system": sol.cond_system, "cond_gram": sol.cond_gram}, diverged)


def inverse_consistency_suite() -> VerifyResult:
    """||G W^T W - I||_inf <= 1e-8 after every growth and ||P (L^T L + lam I)
    - I||_inf <= 1e-6 K after every step of 500 samples (lambda = 0.1,
    delta = 0.05, seed 29)."""
    filt, _, devs, diverged = _krls_run(500, lam=0.1, delta=0.05, seed=29)
    return _verdict("inverse-consistency", "step", [
        ("gram_identity_residual", 1e-8, devs["gram"]),
        ("p_identity_residual_per_k", 1e-6, devs["p"])],
        {"max_p_residual_per_k": _worst(devs["p"]), "p_tolerance_per_k": 1e-6,
         "final_dict_size": filt.dict_size}, diverged)


def klms_feature_suite() -> VerifyResult:
    """Kernel LMS (eta = 0.1) within 1e-10 of explicit LMS on the exact
    degree-2 polynomial feature map, over 200 two-dimensional samples."""
    rng = np.random.default_rng(7)
    U = rng.uniform(-1.0, 1.0, (200, 2))
    d = np.sin(U[:, 0]) + U[:, -1] ** 2 + 0.05 * rng.standard_normal(200)
    ref = feature_space_lms(U, d, 0.1, 2)
    filt = Klms(KernelSpec("polynomial", degree=2), 0.1, U[0], d[0])
    preds = step_loop(filt, U, d, start=1)[0]  # 0 at sample 0, absorbed at construction
    devs = dict(enumerate(np.abs(preds - ref).tolist(), start=1))
    return _verdict("klms-feature", "step", [("deviation", 1e-10, devs)], {"terms": filt.n})


def gram_psd_suite() -> VerifyResult:
    """-lambda_min / n of the Gram matrix of 50 random sets of 50 points,
    positive when one dips below PSD, at most 1e-10."""
    rng = np.random.default_rng(3)
    devs = {}
    for s in range(50):
        dim, sigma = int(rng.integers(1, 6)), float(rng.uniform(0.5, 2.0))
        G = gram(KernelSpec("gaussian", sigma=sigma), rng.uniform(-2.0, 2.0, (50, dim)))
        devs[s] = -float(np.linalg.eigvalsh(G)[0]) / 50
    return _verdict("gram-psd", "set", [("negative_min_eigenvalue_per_n", 1e-10, devs)],
                    {"sets": 50, "points": 50})


_SUITE_FUNCTIONS = {"krls-batch": krls_batch_suite, "klms-feature": klms_feature_suite,
                    "gram-psd": gram_psd_suite, "inverse-consistency": inverse_consistency_suite}
SUITES = tuple(_SUITE_FUNCTIONS)


def run_suite(name: str) -> VerifyResult:
    if name not in _SUITE_FUNCTIONS:
        raise ValidationError(f"unknown verify suite {name!r}; choose from {SUITES}")
    return _SUITE_FUNCTIONS[name]()
