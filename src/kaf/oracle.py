"""Batch reference solvers the online recursions are verified against.

Everything here is deliberately direct: full replay of the admission
sequence, dense LU factorizations, explicit feature maps. These functions
are O(n^3)-class and meant for verification at desk scale, not production
filtering. All are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import as_input, as_points, convert
from .dictionary import GROWTH_FLOOR, check_delta, check_lambda
from .exceptions import NearSingularGrowthError, NumericalError, ValidationError
from .kernels import KernelSpec, check_spec, gram, kernel_vector


@dataclass(frozen=True)
class BatchProblem:
    """A finite stream plus filter hyperparameters, for batch solving: the
    kernel, inputs, targets, lambda and delta are read and refused as
    `KrlsAldReg` reads them."""

    inputs: np.ndarray
    targets: np.ndarray
    spec: KernelSpec
    lam: float
    delta: float

    def __post_init__(self):
        check_spec(self.spec)
        inputs = as_points(self.inputs)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", as_input(self.targets, dim=inputs.shape[0]))
        object.__setattr__(self, "lam", check_lambda(self.lam))
        object.__setattr__(self, "delta", check_delta(self.delta))


@dataclass
class BatchSolution:
    """Dense solve result with condition-number diagnostics attached."""

    alpha: np.ndarray
    centers: np.ndarray
    A: np.ndarray
    gram: np.ndarray
    cond_system: float
    cond_gram: float
    step_alphas: list = field(default_factory=list)


def _solve(system: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    try:
        out = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular batch system (lambda = {lam!r}): {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"batch solve produced non-finite values (lambda = {lam!r})")
    return out


def batch_solve_regularized(problem: BatchProblem,
                            collect_steps: bool = False) -> BatchSolution:
    """Replay the stream's admission sequence, then solve the normal equations.

    The expansion matrix A is materialized in full, row by row: an admitted
    sample appends a zero column and a unit row (the new center represents
    itself); a rejected sample appends its ALD coefficient vector as a row.
    The coefficient solution is (A^T A G + lam I)^-1 A^T d by dense LU with
    partial pivoting. Admission decisions are recomputed here with dense
    solves, independently of any recursive inverse.

    With ``collect_steps`` the solution after every stream prefix is kept
    (one dense solve per step).
    """
    inputs, targets = problem.inputs, problem.targets
    spec, lam, delta = problem.spec, problem.lam, problem.delta

    centers = [inputs[0]]
    A_rows = [np.array([1.0])]
    steps: list[np.ndarray] = []

    def assemble() -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # A, G, A^T A G + lam I
        A = np.array([np.pad(r, (0, len(centers) - len(r))) for r in A_rows])
        G = gram(spec, np.array(centers))
        return A, G, A.T @ A @ G + lam * np.eye(len(centers))

    def solve_now() -> np.ndarray:
        A, _, system = assemble()
        return _solve(system, A.T @ targets[: len(A_rows)], lam)

    if collect_steps:
        steps.append(solve_now())

    for i in range(1, inputs.shape[0]):
        u = inputs[i]
        C = np.array(centers)
        G = gram(spec, C)
        h = kernel_vector(spec, C, u)
        a = _solve(G, h, 0.0)
        kuu = float(kernel_vector(spec, u[None, :], u)[0])
        d2 = max(kuu - float(h @ a), 0.0)
        if d2 > delta:
            if d2 < GROWTH_FLOOR:
                raise NearSingularGrowthError(
                    f"sample {i}: admitted residual d2 = {d2:.3e} below the growth floor"
                )
            centers.append(u)
            A_rows.append(np.zeros(len(centers)))
            A_rows[-1][-1] = 1.0
        else:
            A_rows.append(a)
        if collect_steps:
            steps.append(solve_now())

    A, G, system = assemble()
    alpha = steps[-1] if collect_steps else _solve(system, A.T @ targets, lam)
    return BatchSolution(
        alpha=alpha,
        centers=np.array(centers),
        A=A,
        gram=G,
        cond_system=float(np.linalg.cond(system)),
        cond_gram=float(np.linalg.cond(G)),
        step_alphas=steps,
    )


def batch_krr(inputs, targets, spec: KernelSpec, lam: float) -> np.ndarray:
    """Kernel ridge regression over all inputs: (K + lam I)^-1 d.

    This is what the sparsified batch solution reduces to in the delta -> 0
    limit with all-distinct inputs (the expansion matrix is the identity).
    """
    check_spec(spec)
    x = as_points(inputs)
    d = as_input(targets, dim=x.shape[0])
    lam = convert(lam, float, "lambda")
    if not (np.isfinite(lam) and lam > 0):
        raise ValidationError(f"lambda must be > 0, got {lam!r}")
    K = gram(spec, x)
    return _solve(K + lam * np.eye(x.shape[0]), d, lam)


def objective(A: np.ndarray, G: np.ndarray, targets: np.ndarray, lam: float,
              alpha: np.ndarray) -> float:
    """Regularized squared-error cost ||A G alpha - d||^2 + lam alpha^T G alpha."""
    r = A @ G @ alpha - targets
    return float(r @ r + lam * alpha @ G @ alpha)


def gradient_residual(A: np.ndarray, G: np.ndarray, targets: np.ndarray,
                      lam: float, alpha: np.ndarray) -> float:
    """Norm of the cost gradient 2 (A G)^T (A G alpha - d) + 2 lam G alpha."""
    g = 2.0 * (A @ G).T @ (A @ G @ alpha - targets) + 2.0 * lam * G @ alpha
    return float(np.linalg.norm(g))


# -- explicit feature maps (finite-dimensional polynomial kernels) ---------

def polynomial_feature_map(points, degree: int) -> np.ndarray:
    """Exact monomial feature map phi with phi(u) . phi(v) = (u . v + 1)^degree.

    Implemented for degree 1 ([1, u_i]) and degree 2
    ([1, sqrt(2) u_i, u_i^2, sqrt(2) u_i u_j for i < j]); for dimension 2 and
    degree 2 this is the classic 6-dimensional monomial embedding.
    """
    x = as_points(points)
    n, L = x.shape
    degree = convert(degree, int, "degree")
    if degree == 1:
        return np.hstack([np.ones((n, 1)), x])
    if degree == 2:
        cross = [np.sqrt(2.0) * x[:, i] * x[:, j]
                 for i in range(L) for j in range(i + 1, L)]
        cols = [np.ones(n), *(np.sqrt(2.0) * x[:, i] for i in range(L)),
                *(x[:, i] ** 2 for i in range(L)), *cross]
        return np.column_stack(cols)
    raise ValidationError(f"explicit feature map implemented for degree <= 2, got {degree}")


def feature_space_lms(inputs, targets, eta: float, degree: int) -> np.ndarray:
    """LMS run on the explicit polynomial features; returns per-step predictions.

    Reference for the kernel-LMS equivalence checks: with the same step size
    the two produce the same prediction sequence up to roundoff, because the
    kernel evaluates exactly the feature-space inner product.
    """
    phi = polynomial_feature_map(inputs, degree)
    d = as_input(targets, dim=phi.shape[0])
    eta = convert(eta, float, "eta")
    w = np.zeros(phi.shape[1])
    preds = np.empty(phi.shape[0])
    for i in range(phi.shape[0]):
        preds[i] = w @ phi[i]
        w = w + eta * (d[i] - preds[i]) * phi[i]
    return preds
