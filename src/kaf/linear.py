"""Linear LMS and RLS baselines for the nonlinear comparisons.

Both expose the same predict-then-update loop as the kernel filters: the
recorded output always uses the pre-update weights. Textbook update rules
are used (stochastic gradient for LMS, rank-one inverse-correlation update
for RLS); RLS initializes its inverse-correlation matrix as (1/eps) I with
eps playing the same role as the kernel filter's ridge parameter.
"""

from __future__ import annotations

import numpy as np

from .base import StepOutput, as_input, check_target, scalar_field, snapshot_array
from .exceptions import NumericalError, ValidationError


class Lms:
    """omega <- omega + eta * e * u"""

    def __init__(self, dim: int, eta: float):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim!r}")
        eta = float(eta)
        if not (np.isfinite(eta) and eta >= 0):
            raise ValidationError(f"eta must be a nonnegative real, got {eta!r}")
        self.eta = eta
        self.weights = np.zeros(dim)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def predict(self, u) -> float:
        return float(as_input(u, dim=self.dim) @ self.weights)

    def step(self, u, d) -> StepOutput:
        uu = as_input(u, dim=self.dim)
        dd = check_target(d)
        y = float(self.weights @ uu)
        e = dd - y
        self.weights = self.weights + self.eta * e * uu
        return StepOutput(y=y, e=e, grew=False, dict_size=0)

    def to_snapshot(self) -> dict:
        return {"algorithm": "lms", "eta": self.eta, "weights": self.weights.tolist()}

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Lms":
        if snap.get("algorithm") != "lms":
            raise ValidationError(f"not an lms snapshot: {snap.get('algorithm')!r}")
        weights = snapshot_array(snap, "weights", (None,))
        obj = cls(weights.shape[0], scalar_field(snap, "eta"))
        obj.weights = weights
        return obj


class Rls:
    """Exponentially windowed recursive least squares (forgetting 1 = growing window).

    With forgetting = 1 the weights after n samples equal the ridge solution
    (sum u u^T + eps I)^-1 sum u d exactly, which the tests verify against a
    dense solve.
    """

    def __init__(self, dim: int, lam: float, forgetting: float = 1.0):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim!r}")
        lam = float(lam)
        if not (np.isfinite(lam) and lam > 0):
            raise ValidationError(f"lambda must be > 0, got {lam!r}")
        if not (0.0 < forgetting <= 1.0):
            raise ValidationError(f"forgetting must be in (0, 1], got {forgetting!r}")
        self.lam = lam
        self.forgetting = float(forgetting)
        self.weights = np.zeros(dim)
        self.aux = np.eye(dim) / lam

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def predict(self, u) -> float:
        return float(as_input(u, dim=self.dim) @ self.weights)

    def step(self, u, d) -> StepOutput:
        uu = as_input(u, dim=self.dim)
        dd = check_target(d)
        y = float(self.weights @ uu)
        e = dd - y
        with np.errstate(over="ignore", invalid="ignore"):
            Pu = self.aux @ uu
            denom = self.forgetting + float(uu @ Pu)
            weights = self.weights + Pu / denom * e
            # outer(Pu, Pu) keeps aux exactly symmetric.
            aux = (self.aux - np.outer(Pu, Pu) / denom) / self.forgetting
        if not (np.isfinite(aux).all() and np.isfinite(weights).all()):
            raise NumericalError("RLS update overflowed: with forgetting < 1, aux grows "
                                 "without bound along a direction the inputs never excite")
        self.weights, self.aux = weights, aux
        return StepOutput(y=y, e=e, grew=False, dict_size=0)

    def to_snapshot(self) -> dict:
        return {
            "algorithm": "rls",
            "lambda": self.lam,
            "forgetting": self.forgetting,
            "weights": self.weights.tolist(),
            "aux": self.aux.tolist(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Rls":
        if snap.get("algorithm") != "rls":
            raise ValidationError(f"not an rls snapshot: {snap.get('algorithm')!r}")
        weights = snapshot_array(snap, "weights", (None,))
        dim = weights.shape[0]
        obj = cls(dim, scalar_field(snap, "lambda"),
                  scalar_field(snap, "forgetting", default=1.0))
        obj.weights = weights
        obj.aux = snapshot_array(snap, "aux", (dim, dim))
        return obj
