"""Linear LMS and RLS baselines for the nonlinear comparisons.

Both expose the same predict-then-update loop as the kernel filters: the
recorded output always uses the pre-update weights. They share one private
linear model, `_LinearModel`: the dimension rule, the weights, `predict` and
`step` up to the checked input with its a-priori output and error. Each
class keeps its own hyperparameter checks, `_update` and snapshot. Textbook
update rules are used (stochastic gradient for LMS, rank-one
inverse-correlation update for RLS); RLS initializes its inverse-correlation
matrix as (1/eps) I with eps playing the same role as the kernel filter's
ridge parameter. Either refuses an update that overflows, a divergent LMS
eta included, with NumericalError and leaves its state as it was.
"""

from __future__ import annotations

import numpy as np

from .base import (StepOutput, as_input, as_object, check_target, convert, scalar_field,
                   snapshot_array)
from .exceptions import NumericalError, ValidationError

# RLS refuses a denominator forgetting + u'.aux.u at or below
# DENOM_ROUNDOFF dim max|aux| u.u: an error E of up to DENOM_ROUNDOFF max|aux|
# per entry of aux moves u'.aux.u by at most that, as (sum |u_i|)^2 <= dim u.u.
DENOM_ROUNDOFF = 4 * np.finfo(float).eps


class _LinearModel:
    """The linear model `Lms` and `Rls` share: the weights, their dimension
    rule, `predict`, and a step up to its a-priori output and error."""

    def __init__(self, dim: int):
        dim = convert(dim, int, "dim")
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim!r}")
        self.weights = np.zeros(dim)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def predict(self, u) -> float:
        return float(as_input(u, dim=self.dim) @ self.weights)

    def step(self, u, d) -> StepOutput:
        """Check the sample, predict with the current weights, then update
        them by the class's `_update` rule on the checked input and the
        a-priori error e = d - y."""
        uu, dd = as_input(u, dim=self.dim), check_target(d)
        y = float(np.vdot(self.weights, uu))  # no overflow warning: `_update` refuses it
        e = dd - y
        self._update(uu, e)
        return StepOutput(y=y, e=e, grew=False, dict_size=0)


class Lms(_LinearModel):
    """omega <- omega + eta * e * u"""

    def __init__(self, dim: int, eta: float):
        super().__init__(dim)
        eta = convert(eta, float, "eta")
        if not (np.isfinite(eta) and eta >= 0):
            raise ValidationError(f"eta must be a nonnegative real, got {eta!r}")
        self.eta = eta

    def _update(self, uu: np.ndarray, e: float) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            weights = self.weights + self.eta * e * uu
        if not np.isfinite(weights).all():
            raise NumericalError("LMS update overflowed: the weights have diverged "
                                 "(eta too large for the input power)")
        self.weights = weights

    def to_snapshot(self) -> dict:
        return {"algorithm": "lms", "eta": self.eta, "weights": self.weights.tolist()}

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Lms":
        if as_object(snap, "snapshot").get("algorithm") != "lms":
            raise ValidationError(f"not an lms snapshot: {snap.get('algorithm')!r}")
        weights = snapshot_array(snap, "weights", (None,))
        obj = cls(weights.shape[0], scalar_field(snap, "eta"))
        obj.weights = weights
        return obj


class Rls(_LinearModel):
    """Exponentially windowed recursive least squares (forgetting 1 = growing window).

    With forgetting = 1 the weights after n samples equal the ridge solution
    (sum u u^T + eps I)^-1 sum u d exactly, which the tests verify against a
    dense solve.
    """

    def __init__(self, dim: int, lam: float, forgetting: float = 1.0):
        super().__init__(dim)
        lam = convert(lam, float, "lambda")
        if not (np.isfinite(lam) and lam > 0 and np.isfinite(1.0 / lam)):  # aux = I / lam
            raise ValidationError(f"lambda must be > 0 with 1/lambda finite, got {lam!r}")
        forgetting = convert(forgetting, float, "forgetting")
        if not (0.0 < forgetting <= 1.0):
            raise ValidationError(f"forgetting must be in (0, 1], got {forgetting!r}")
        self.lam = lam
        self.forgetting = forgetting
        self.aux = np.eye(self.dim) / lam

    def _update(self, uu: np.ndarray, e: float) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            Pu = self.aux @ uu
            denom = self.forgetting + float(uu @ Pu)
            # denom >= forgetting for a PD aux; at or below the floor it is
            # roundoff, as once an unexcited direction of aux has outgrown it
            floor = DENOM_ROUNDOFF * self.dim * float(np.abs(self.aux).max()) * float(uu @ uu)
            if not (np.isfinite(denom) and denom > floor):
                raise NumericalError(f"RLS denominator forgetting + u'.aux.u is {denom!r}, not a "
                                     f"finite number above its roundoff floor {floor!r}: aux is "
                                     "not positive definite, has overflowed, or has grown "
                                     "along a direction the inputs never excite")
            weights = self.weights + Pu / denom * e
            # outer(Pu, Pu) keeps aux exactly symmetric.
            aux = (self.aux - np.outer(Pu, Pu) / denom) / self.forgetting
        if not (np.isfinite(aux).all() and np.isfinite(weights).all()):
            raise NumericalError("RLS update overflowed: with forgetting < 1, aux grows "
                                 "without bound along a direction the inputs never excite")
        self.weights, self.aux = weights, aux

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
        if as_object(snap, "snapshot").get("algorithm") != "rls":
            raise ValidationError(f"not an rls snapshot: {snap.get('algorithm')!r}")
        weights = snapshot_array(snap, "weights", (None,))
        dim = weights.shape[0]
        obj = cls(dim, scalar_field(snap, "lambda"),
                  scalar_field(snap, "forgetting", default=1.0))
        obj.weights = weights
        obj.aux = snapshot_array(snap, "aux", (dim, dim))
        if not np.array_equal(obj.aux, obj.aux.T):  # a saved aux is exactly symmetric
            raise ValidationError("snapshot 'aux' is not symmetric")
        try:  # an aux that is not positive definite loads but could not train
            np.linalg.cholesky(obj.aux)
        except np.linalg.LinAlgError:
            raise ValidationError("snapshot 'aux' is not positive definite") from None
        return obj
