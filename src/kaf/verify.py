"""End-to-end equivalence suites: the real recursions against batch oracles.

Each suite runs the full implementation (no mocking) at desk scale and
reports the worst deviation observed, the tolerance it must meet, and the
first failing step if any. The CLI `verify` command wraps these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError
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


def _stream_2d(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounded 2-D inputs with a smooth nonlinear target plus mild noise."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(-1.5, 1.5, (n, 2))
    d = np.sin(2.0 * U[:, 0]) * np.cos(U[:, 1]) + 0.3 * U[:, 1] \
        + 0.05 * rng.standard_normal(n)
    return U, d


def krls_batch_suite(samples: int = 300, lam: float = 0.1, delta: float = 0.01,
                     seed: int = 11) -> VerifyResult:
    """Recursive coefficients against the dense batch solve at every prefix.

    Deviation metric is ||alpha_rec - alpha_batch||_inf / ||alpha_batch||_inf.
    Also counts how often each update branch fired.
    """
    spec = KernelSpec("gaussian", sigma=1.0)
    U, d = _stream_2d(samples, seed)
    sol = batch_solve_regularized(
        BatchProblem(U, d, spec, lam, delta), collect_steps=True)

    filt = KrlsAldReg(spec, lam, delta, U[0], d[0])
    worst, first_failure = 0.0, None
    grew = unchanged = 0
    tol = 1e-8
    for i in range(1, samples):
        out = filt.step(U[i], d[i])
        grew += out.grew
        unchanged += not out.grew
        ref = sol.step_alphas[i]
        if ref.shape != filt.alpha.shape:
            first_failure = {"step": i + 1, "reason": "dictionary size diverged"}
            worst = np.inf
            break
        dev = float(np.linalg.norm(filt.alpha - ref, ord=np.inf)
                    / np.linalg.norm(ref, ord=np.inf))
        if dev > worst:
            worst = dev
        if dev > tol and first_failure is None:
            first_failure = {"step": i + 1, "deviation": dev}
    return VerifyResult(
        suite="krls-batch", max_deviation=worst, tolerance=tol,
        passed=worst <= tol, first_failure=first_failure,
        details={"grew_steps": grew, "unchanged_steps": unchanged,
                 "final_dict_size": filt.dict_size,
                 "cond_system": sol.cond_system, "cond_gram": sol.cond_gram},
    )


def klms_feature_suite(samples: int = 200, eta: float = 0.1, degree: int = 2,
                       dim: int = 2, seed: int = 7) -> VerifyResult:
    """Kernel LMS against explicit LMS on the exact polynomial feature map."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(-1.0, 1.0, (samples, dim))
    d = np.sin(U[:, 0]) + U[:, -1] ** 2 + 0.05 * rng.standard_normal(samples)
    ref = feature_space_lms(U, d, eta, degree)

    spec = KernelSpec("polynomial", degree=degree)
    filt = Klms(spec, eta, U[0], d[0])
    preds = [0.0]
    for i in range(1, samples):
        preds.append(filt.step(U[i], d[i]).y)
    devs = np.abs(np.array(preds) - ref)
    tol = 1e-10
    worst = float(devs.max())
    bad = np.nonzero(devs > tol)[0]
    return VerifyResult(
        suite="klms-feature", max_deviation=worst, tolerance=tol,
        passed=worst <= tol,
        first_failure=None if not bad.size else
        {"step": int(bad[0]) + 1, "deviation": float(devs[bad[0]])},
        details={"terms": filt.n},
    )


def gram_psd_suite(sets: int = 50, points: int = 50, seed: int = 3) -> VerifyResult:
    """Smallest Gram eigenvalue over random point sets, normalized by n."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst, first_failure = -np.inf, None
    for s in range(sets):
        dim = int(rng.integers(1, 6))
        sigma = float(rng.uniform(0.5, 2.0))
        pts = rng.uniform(-2.0, 2.0, (points, dim))
        eig = float(np.linalg.eigvalsh(gram(KernelSpec("gaussian", sigma=sigma), pts))[0])
        dev = -eig / points  # positive when the matrix dips below PSD
        if dev > worst:
            worst = dev
        if dev > tol and first_failure is None:
            first_failure = {"set": s, "min_eigenvalue": eig}
    return VerifyResult(
        suite="gram-psd", max_deviation=max(worst, 0.0), tolerance=tol,
        passed=worst <= tol, first_failure=first_failure,
        details={"sets": sets, "points": points},
    )


def inverse_consistency_suite(samples: int = 500, lam: float = 0.1,
                              delta: float = 0.05, seed: int = 29) -> VerifyResult:
    """Identity residuals of the maintained inverses along a growing run.

    Checks ||G G^-1 - I||_inf <= 1e-8 after every dictionary growth and
    ||P (M G + lam I) - I||_inf <= 1e-6 K after every step.
    """
    spec = KernelSpec("gaussian", sigma=1.0)
    U, d = _stream_2d(samples, seed)
    filt = KrlsAldReg(spec, lam, delta, U[0], d[0])
    tol = 1e-8
    worst_gram, worst_p, first_failure = 0.0, 0.0, None
    for i in range(1, samples):
        out = filt.step(U[i], d[i])
        k = filt.dict_size
        G = filt.dict.gram
        if out.grew:
            g_res = float(np.linalg.norm(G @ filt.dict.gram_inv - np.eye(k), ord=np.inf))
            worst_gram = max(worst_gram, g_res)
            if g_res > tol and first_failure is None:
                first_failure = {"step": i + 1, "gram_identity_residual": g_res}
        p_res = float(np.linalg.norm(
            filt.P @ (filt.M @ G + lam * np.eye(k)) - np.eye(k),
            ord=np.inf)) / k
        worst_p = max(worst_p, p_res)
        if p_res > 1e-6 and first_failure is None:
            first_failure = {"step": i + 1, "p_identity_residual_per_k": p_res}
    return VerifyResult(
        suite="inverse-consistency", max_deviation=worst_gram, tolerance=tol,
        passed=worst_gram <= tol and worst_p <= 1e-6, first_failure=first_failure,
        details={"max_p_residual_per_k": worst_p, "p_tolerance_per_k": 1e-6,
                 "final_dict_size": filt.dict_size},
    )


_SUITE_FUNCTIONS = {
    "krls-batch": krls_batch_suite,
    "klms-feature": klms_feature_suite,
    "gram-psd": gram_psd_suite,
    "inverse-consistency": inverse_consistency_suite,
}
SUITES = tuple(_SUITE_FUNCTIONS)


def run_suite(name: str) -> VerifyResult:
    if name not in _SUITE_FUNCTIONS:
        raise ValidationError(f"unknown verify suite {name!r}; choose from {SUITES}")
    return _SUITE_FUNCTIONS[name]()
