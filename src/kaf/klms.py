"""Kernel LMS: a growing RBF expansion trained by stochastic gradient.

Every processed sample adds one kernel unit, so after n steps the model is

    y(u) = sum_{i=1..n} c_i k(u_i, u),    c_i = eta * e(i)

with e(i) the a-priori error at step i. Coefficients are stored
pre-multiplied by eta so prediction is a single kernel-weighted sum; the raw
error sequence is recoverable as coeffs / eta.

The first recorded output is y(1) = 0 and e(1) = d(1), consistent with a
zero initial weight vector. Memory grows linearly with the stream: KLMS
never sparsifies, so there is no term cap. A step whose new coefficient is
not finite (a divergent eta) raises NumericalError before any write.

The Gaussian sum is taken from squared distances about the first center,
in one matrix-vector product with a buffer of shifted centers
(`kernels.ShiftedSum`, one column per term), and from `kernel_vector`'s
explicit differences where that sum's rounding bound exceeds SHIFT_TOL.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (StepOutput, as_input, as_object, check_target, convert, reserve,
                   scalar_field, snapshot_array)
from .exceptions import NumericalError, ValidationError
from .kernels import KernelSpec, ShiftedSum, check_spec, kernel_vector


class Klms:
    def __init__(self, spec: KernelSpec, eta: float, first_input, first_target):
        self.spec = check_spec(spec)
        eta = convert(eta, float, "eta")
        if not (np.isfinite(eta) and eta > 0):
            raise ValidationError(f"eta must be > 0, got {eta!r}")
        u = as_input(first_input)
        d = check_target(first_target)
        self.eta = eta
        # Amortized-doubling buffers: every term is a row (a column of the
        # shifted sum's buffer).
        self._centers = np.empty((16, u.shape[0]))
        self._coeffs = np.empty(16)
        self._shifted = ShiftedSum(self.spec, u)
        self.n = 0
        self._append(u, eta * d, *self._shifted.shift(u))

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

    def _expansion(self, u: np.ndarray) -> tuple[float, np.ndarray, float]:
        """The expansion at validated u, with w = u - c_1 and ||w||^2 (u's
        shifted column if appended): `ShiftedSum.dot`, within its bound, or
        where it refuses `kernel_vector`'s, overflow quiet. The polynomial
        kernel is (c_i . u + 1)^degree, always explicit.
        """
        n = self.n
        w, ww = self._shifted.shift(u)
        y = self._shifted.dot(w, ww, self._coeffs[:n])
        if y is None:
            with np.errstate(over="ignore"):
                h = kernel_vector(self.spec, self._centers[:n], u)
            # np.vdot, unlike @, warns of no overflow: `_append` refuses a diverged y
            y = float(np.vdot(h, self._coeffs[:n]))
        return y, w, ww

    def predict(self, u) -> float:
        return self._expansion(as_input(u, dim=self.dim))[0]

    def step(self, u, d) -> StepOutput:
        """Predict with the current expansion, then append a unit for this sample."""
        uu = as_input(u, dim=self.dim)
        dd = check_target(d)
        y, w, ww = self._expansion(uu)
        e = dd - y
        self._append(uu, self.eta * e, w, ww)
        return StepOutput(y=y, e=e, grew=True, dict_size=self.n)

    def _append(self, u: np.ndarray, c: float, w: np.ndarray, ww: float) -> None:
        """Append the term c k(u, .), with w = u - c_1 and ww = ||w||^2: its
        center, its coefficient and its shifted column, the one path every
        term is written through. A c that is not finite raises NumericalError
        before any write."""
        if not math.isfinite(c):
            raise NumericalError(f"KLMS coefficient eta * e = {c!r} is not finite: "
                                 "the expansion has diverged (eta too large)")
        n = self.n
        self._centers = reserve(self._centers, n)
        self._centers[n] = u
        self._coeffs = reserve(self._coeffs, n)
        self._coeffs[n] = c
        self._shifted.append(w, ww)
        self.n = n + 1

    def to_snapshot(self) -> dict:
        return {
            "algorithm": "klms",
            "kernel": self.spec.to_json(),
            "eta": self.eta,
            "centers": self._centers[: self.n].tolist(),
            "coeffs": self._coeffs[: self.n].tolist(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Klms":
        """Rebuild from the kernel, eta, centers and coefficients; any other
        key, such as the term cap older snapshots carry, is ignored."""
        if as_object(snap, "snapshot").get("algorithm") != "klms":
            raise ValidationError(f"not a klms snapshot: {snap.get('algorithm')!r}")
        centers = snapshot_array(snap, "centers", (None, None))
        n = centers.shape[0]
        if n == 0:
            raise ValidationError("snapshot centers must be a nonempty list of vectors")
        coeffs = snapshot_array(snap, "coeffs", (n,))
        obj = cls(KernelSpec.from_json(snap.get("kernel")), scalar_field(snap, "eta"),
                  centers[0], 0.0)
        # Replay the terms in order through `_append`, each column as `step`
        # computes it: the buffers match the saved filter's, and resumed
        # steps match bit for bit.
        obj.n = 0
        obj._shifted = ShiftedSum(obj.spec, centers[0])
        for u, c in zip(centers, coeffs):
            obj._append(u, c, *obj._shifted.shift(u))
        return obj
