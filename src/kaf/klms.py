"""Kernel LMS: a growing RBF expansion trained by stochastic gradient.

Every processed sample adds one kernel unit, so after n steps the model is

    y(u) = sum_{i=1..n} c_i k(u_i, u),    c_i = eta * e(i)

with e(i) the a-priori error at step i. Coefficients are stored
pre-multiplied by eta so prediction is a single kernel-weighted sum; the raw
error sequence is recoverable as coeffs / eta.

The first recorded output is y(1) = 0 and e(1) = d(1), consistent with a
zero initial weight vector. Memory grows linearly with the stream; an
optional hard cap aborts with CapacityError instead of silently degrading.

The Gaussian sum is taken from squared distances about the first center
c_1: with q_i = ||c_i - c_1||^2, kept beside the centers, and w = u - c_1,

    ||c_i - u||^2 = q_i + ||w||^2 - 2 (c_i . w - c_1 . w),

one matrix-vector product over the centers and a few length-n passes, with
no n x L difference array. Distances about c_1 rather than the origin keep
the rounding error proportional to the spread of the data, not to its
offset (see `_expansion`).
"""

from __future__ import annotations

import numpy as np

from .base import (StepOutput, append_row, as_input, as_object, check_target, convert,
                   scalar_field, snapshot_array)
from .exceptions import CapacityError, ValidationError
from .kernels import KernelSpec, check_spec, kernel_vector


def _norm2(w: np.ndarray) -> float:
    return float(w @ w)


class Klms:
    def __init__(self, spec: KernelSpec, eta: float, first_input, first_target,
                 *, max_terms: int | None = None):
        self.spec = check_spec(spec)
        eta = convert(eta, float, "eta")
        if not (np.isfinite(eta) and eta > 0):
            raise ValidationError(f"eta must be > 0, got {eta!r}")
        if max_terms is not None:
            max_terms = convert(max_terms, int, "max_terms")
            if max_terms < 1:
                raise ValidationError(f"max_terms must be >= 1, got {max_terms!r}")
        u = as_input(first_input)
        d = check_target(first_target)
        self.eta = eta
        self.max_terms = max_terms
        # Amortized-doubling buffers: every step appends one row.
        self._centers = np.empty((16, u.shape[0]))
        self._coeffs = np.empty(16)
        self._q = np.empty(16)  # q_i = ||c_i - c_1||^2
        self._centers[0] = u
        self._coeffs[0] = eta * d
        self._q[0] = 0.0
        self.n = 1

    @property
    def dim(self) -> int:
        return self._centers.shape[1]

    @property
    def centers(self) -> np.ndarray:
        view = self._centers[: self.n]
        view.flags.writeable = False
        return view

    @property
    def coeffs(self) -> np.ndarray:
        view = self._coeffs[: self.n]
        view.flags.writeable = False
        return view

    def _expansion(self, u: np.ndarray) -> tuple[float, float]:
        """The expansion at validated u, and ||u - c_1||^2 (u's q if appended).

        Gaussian: sq_i = q_i + ||w||^2 - 2 (c_i . w - c_1 . w) with w = u - c_1,
        clamped at 0. Against ||c_i - u||^2 it is off by at most

            4 (L + 2) eps (q_i + ||w||^2 + (||c_i|| + ||c_1||) ||w||),

        eps = 2^-53, so each kernel value is off by at most that over sigma^2.
        The polynomial kernel is (c_i . u + 1)^degree.
        """
        n = self.n
        c1 = self._centers[0]
        w = u - c1
        ww = _norm2(w)
        if self.spec.family != "gaussian":
            h = kernel_vector(self.spec, self._centers[:n], u)
        else:
            h = self._centers[:n] @ w
            h -= c1 @ w
            h *= -2.0
            h += self._q[:n]
            h += ww
            np.maximum(h, 0.0, out=h)
            h /= -(self.spec.sigma * self.spec.sigma)
            np.exp(h, out=h)
        return float(h @ self._coeffs[:n]), ww

    def predict(self, u) -> float:
        return self._expansion(as_input(u, dim=self.dim))[0]

    def step(self, u, d) -> StepOutput:
        """Predict with the current expansion, then append a unit for this sample."""
        uu = as_input(u, dim=self.dim)
        dd = check_target(d)
        if self.max_terms is not None and self.n >= self.max_terms:
            raise CapacityError(
                f"expansion reached the configured cap of {self.max_terms} terms"
            )
        n = self.n
        y, q = self._expansion(uu)
        e = dd - y

        self._centers = append_row(self._centers, n, uu)
        self._coeffs = append_row(self._coeffs, n, self.eta * e)
        self._q = append_row(self._q, n, q)
        self.n = n + 1
        return StepOutput(y=y, e=e, grew=True, dict_size=self.n)

    def to_snapshot(self) -> dict:
        snap = {
            "algorithm": "klms",
            "kernel": self.spec.to_json(),
            "eta": self.eta,
            "centers": self._centers[: self.n].tolist(),
            "coeffs": self._coeffs[: self.n].tolist(),
        }
        if self.max_terms is not None:
            snap["max_terms"] = self.max_terms
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Klms":
        if as_object(snap, "snapshot").get("algorithm") != "klms":
            raise ValidationError(f"not a klms snapshot: {snap.get('algorithm')!r}")
        centers = snapshot_array(snap, "centers", (None, None))
        n = centers.shape[0]
        if n == 0:
            raise ValidationError("snapshot centers must be a nonempty list of vectors")
        coeffs = snapshot_array(snap, "coeffs", (n,))
        obj = cls(KernelSpec.from_json(snap.get("kernel")), scalar_field(snap, "eta"),
                  centers[0], 0.0, max_terms=snap.get("max_terms"))
        if obj.max_terms is not None and n > obj.max_terms:
            raise ValidationError(f"snapshot holds {n} terms, above its cap of {obj.max_terms}")
        obj._centers = centers
        obj._coeffs = coeffs
        # Row by row, as `step` computes each q: resumed steps match bit for bit.
        obj._q = np.array([_norm2(c - centers[0]) for c in centers])
        obj.n = n
        return obj
