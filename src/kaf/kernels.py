"""Mercer kernels: evaluation and Gram matrices.

Two kernel families are supported:

    gaussian     k(u, v) = exp(-||u - v||^2 / sigma^2)
    polynomial   k(u, v) = (u . v + 1)^degree

Note the Gaussian width enters as sigma^2, not the also-common 2*sigma^2
convention; callers using the latter should pass sigma * sqrt(2).

Every kernel value is formed one way, by `_kernel_rows`: the terms
t_j = (u_j - v_j)^2 (Gaussian) or u_j v_j (polynomial) are summed in index
order, ((t_0 + t_1) + t_2) + ..., whatever the CPU's SIMD width. The
Gaussian sum is divided by -sigma^2 and passed to `exp` (for sigma < 1 it
is first clamped at 1e308 sigma^2, past which `exp` gives 0 either way, so
the quotient stays in the float range); the polynomial base
b = u . v + 1 is raised to its degree as (b * b) * b ..., never by `pow`,
whose numpy scalar and array paths differ in the last bit. So, bit for bit,

    kernel_vector(spec, C, u) == kernel_block(spec, u[None], C)[0]

for any memory layout of C, `kernel_eval(spec, u, v)` (which is
`kernel_block`'s 1 x 1 entry) equals the matching entry of both,
`kernel_self` and `kernel_diag` equal the diagonal, and `gram` is exactly
symmetric. KLMS's shifted-center expansion (`Klms._expansion`) is the one
other Gaussian formula, with its own error bound.

All evaluation is pure and stateless, safe for unsynchronized concurrent use.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .base import as_input, as_points, check_object, convert
from .exceptions import ValidationError

FAMILIES = ("gaussian", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its hyperparameters.

    `sigma` is the Gaussian width (same units as the input coordinates) and
    is ignored by the polynomial family; `degree` is the polynomial order
    and is ignored by the Gaussian family.
    """

    family: str
    sigma: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"kernel.family must be one of {FAMILIES}, got {self.family!r}"
            )
        object.__setattr__(self, "sigma", convert(self.sigma, float, "kernel.sigma"))
        object.__setattr__(self, "degree", convert(self.degree, int, "kernel.degree"))
        if self.family == "gaussian":
            # sigma^2 must not underflow to 0: k(u, u) would be 0/0 = NaN.
            # Any larger sigma is formed, however small: a value whose
            # exponent leaves the float range is 0, as its exp is.
            if not (np.isfinite(self.sigma) and self.sigma > 0 and self.sigma * self.sigma > 0):
                raise ValidationError("kernel.sigma must be a positive finite real")
        else:
            if self.degree < 1:
                raise ValidationError("kernel.degree must be an integer >= 1")

    def to_json(self) -> dict:
        return {"family": self.family, "sigma": self.sigma, "degree": self.degree}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelSpec":
        return cls(**check_object(obj, ("family", "sigma", "degree"), "kernel spec",
                                  required=("family",)))


def check_spec(spec) -> KernelSpec:
    """`spec` when it is a KernelSpec, else ValidationError: every public kernel argument's check."""
    if not isinstance(spec, KernelSpec):
        raise ValidationError(f"kernel must be a KernelSpec, got {type(spec).__name__}")
    return spec


def kernel_eval(spec: KernelSpec, u, v) -> float:
    """Evaluate k(u, v): `kernel_block`'s 1 x 1 entry. Symmetric in its
    arguments; Gaussian values lie in (0, 1]."""
    check_spec(spec)
    uu = as_input(u)
    vv = as_input(v, dim=uu.shape[0])
    return float(kernel_block(spec, uu[None], vv[None])[0, 0])


def kernel_self(spec: KernelSpec, u: np.ndarray) -> float:
    """k(u, u), bit-identical to kernel_eval(spec, u, u). Hot path: u assumed validated.

    The Gaussian value is exp(-0.0 / sigma^2), which is exactly 1.0.
    """
    if spec.family == "gaussian":
        return 1.0
    return float(kernel_diag(spec, u[None])[0])


def kernel_diag(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """k(x, x) for every row x of X, bit-identical to `kernel_self`. Hot path:
    X assumed validated."""
    if spec.family == "gaussian":
        return np.ones(X.shape[0])
    return _kernel_rows(spec, X.T, X.T)


def kernel_vector(spec: KernelSpec, centers: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k(c_i, u) for every row c_i of the (K, L) `centers`, bit-identical to
    `kernel_block(spec, u[None], centers)[0]`. Fastest when the rows of
    `centers.T` are contiguous, as `Dictionary.centers`' are. Hot path:
    inputs assumed validated."""
    return _kernel_rows(spec, centers.T, u)


def kernel_block(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """K[i, j] = k(x_i, z_j) for the rows of X and Z. Hot path: inputs assumed validated.

    One (m, n) term per coordinate, never an (m, n, L) array. The Gaussian's
    explicit differences keep K(x, x) exactly symmetric, which the expanded
    ||x||^2 + ||z||^2 - 2 x.z form does not guarantee."""
    return _kernel_rows(spec, Z.T[:, None, :], X.T[:, :, None])


def _kernel_rows(spec: KernelSpec, rows: np.ndarray, u) -> np.ndarray:
    """k(c, u) in the module docstring's one order, from coordinate rows:
    rows[j], the j-th coordinates of the points c, broadcasts against u[j].

    A polynomial value past the float range is inf, or NaN where infinite
    terms cancel, without a numpy warning: its callers refuse it."""
    if spec.family == "gaussian":
        return _rows(spec, rows, u)
    with _overflow_quiet(spec):
        return _rows(spec, rows, u)


def _overflow_quiet(spec: KernelSpec):
    """numpy's error state for `spec`'s kernel values: overflow and NaN pass
    without a warning for the polynomial family, whose values can exceed
    the float range; nothing changes for the Gaussian's, in (0, 1]."""
    if spec.family == "gaussian":
        return contextlib.nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


def _rows(spec: KernelSpec, rows: np.ndarray, u) -> np.ndarray:
    """`_kernel_rows` under the caller's numpy error state."""
    gaussian = spec.family == "gaussian"
    term = np.subtract if gaussian else np.multiply
    if not rows.shape[0]:  # L = 0: every value is k(0, 0) = 1
        return np.ones(np.broadcast_shapes(rows.shape[1:], np.shape(u)[1:]))
    # One point's (L, K) terms in one pass: at L = 3 and K <= 200 a call then
    # takes about 1.5 us less than with a pass per coordinate.
    if rows.shape[0] > 1 and np.ndim(u) == 1:
        t = term(rows, u[:, None])
        if gaussian:
            t *= t
        acc = t[0]
        for j in range(1, rows.shape[0]):
            acc += t[j]
    else:  # L = 1, or a block (kernel_block): one term per coordinate
        acc = term(rows[0], u[0])
        if gaussian:
            acc *= acc
        if rows.shape[0] > 1:
            t = np.empty_like(acc)
            for j in range(1, rows.shape[0]):
                term(rows[j], u[j], out=t)
                if gaussian:
                    t *= t
                acc += t
    if gaussian:
        s2 = spec.sigma * spec.sigma
        if s2 < 1.0:  # the quotient could overflow (and warn); exp of -1e308 is 0 too
            np.minimum(acc, s2 * 1e308, out=acc)
        # x / -s^2 is the float -x / s^2, one pass fewer
        acc /= -s2
        return np.exp(acc, out=acc)
    acc += 1.0
    power = acc
    for _ in range(spec.degree - 1):
        power = power * acc
    return power


def kernel_matrix(spec: KernelSpec, x, z) -> np.ndarray:
    """Cross-kernel matrix K[i, j] = k(x_i, z_j)."""
    check_spec(spec)
    xx = as_points(x)
    return kernel_block(spec, xx, as_points(z, dim=xx.shape[1]))


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix of a point set (PSD up to eigenvalue roundoff)."""
    return kernel_matrix(spec, points, points)

