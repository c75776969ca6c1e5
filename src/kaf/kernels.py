"""Mercer kernels: evaluation, Gram matrices, and expansion inner products.

Two kernel families are supported:

    gaussian     k(u, v) = exp(-||u - v||^2 / sigma^2)
    polynomial   k(u, v) = (u . v + 1)^degree

Note the Gaussian width enters as sigma^2, not the also-common 2*sigma^2
convention; callers using the latter should pass sigma * sqrt(2).

All evaluation is pure and stateless, safe for unsynchronized concurrent use.
"""

from __future__ import annotations

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
    """Evaluate k(u, v). Symmetric in its arguments; Gaussian values lie in (0, 1]."""
    check_spec(spec)
    uu = as_input(u)
    vv = as_input(v, dim=uu.shape[0])
    if spec.family == "gaussian":
        diff = uu - vv
        return float(np.exp(-np.dot(diff, diff) / (spec.sigma * spec.sigma)))
    return float((np.dot(uu, vv) + 1.0) ** spec.degree)


def kernel_self(spec: KernelSpec, u: np.ndarray) -> float:
    """k(u, u), bit-identical to kernel_eval(spec, u, u). Hot path: u assumed validated.

    The Gaussian value is exp(-0.0 / sigma^2), which is exactly 1.0.
    """
    if spec.family == "gaussian":
        return 1.0
    return float((np.dot(u, u) + 1.0) ** spec.degree)


def kernel_diag(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """k(x, x) for every row x of X, as `kernel_self` gives it up to roundoff
    (exactly, for the Gaussian). Hot path: X assumed validated."""
    if spec.family == "gaussian":
        return np.ones(X.shape[0])
    return (np.einsum("ij,ij->i", X, X) + 1.0) ** spec.degree


def kernel_vector(spec: KernelSpec, centers: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k(c_i, u) for every row c_i of `centers`. Hot path: inputs assumed validated."""
    if spec.family == "gaussian":
        diff = centers - u
        # x / -s^2 is the float -x / s^2, one pass fewer
        return np.exp(np.einsum("ij,ij->i", diff, diff) / -(spec.sigma * spec.sigma))
    return (centers @ u + 1.0) ** spec.degree


def kernel_block(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """K[i, j] = k(x_i, z_j) for the rows of X and Z. Hot path: inputs assumed validated."""
    if spec.family == "gaussian":
        # Explicit differences keep K(x, x) exactly symmetric, which the
        # expanded ||x||^2 + ||z||^2 - 2 x.z form does not guarantee.
        diff = X[:, None, :] - Z[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        return np.exp(-sq / (spec.sigma * spec.sigma))
    return (X @ Z.T + 1.0) ** spec.degree


def kernel_matrix(spec: KernelSpec, x, z) -> np.ndarray:
    """Cross-kernel matrix K[i, j] = k(x_i, z_j)."""
    check_spec(spec)
    xx = as_points(x)
    return kernel_block(spec, xx, as_points(z, dim=xx.shape[1]))


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix of a point set (PSD up to eigenvalue roundoff)."""
    return kernel_matrix(spec, points, points)


def expansion_inner_product(spec: KernelSpec, h, g) -> float:
    """Inner product of two kernel expansions h = (coeffs, centers), g likewise.

    For h(.) = sum_i a_i k(c_i, .) and g(.) = sum_j b_j k(e_j, .) this is
    sum_ij a_i b_j k(c_i, e_j): symmetric, bilinear, and nonnegative on the
    diagonal up to roundoff. The coefficients are read as `as_input` reads a
    vector, one per center.
    """
    (a, ca), (b, cb) = h, g
    K = kernel_matrix(spec, ca, cb)
    return float(as_input(a, dim=K.shape[0]) @ K @ as_input(b, dim=K.shape[1]))
