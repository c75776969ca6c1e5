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

The centers live in one `kernels.Centers`, which also sums the expansion.
KLMS asks it for shifted columns at every input dimension: a Gaussian sum
is then one matrix-vector product with distances about the first center,
or `kernel_vector`'s explicit differences where that sum's rounding bound
exceeds SHIFT_TOL. The polynomial sum is always explicit.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (StepOutput, as_input, as_object, check_target, convert, reserve,
                   scalar_field, snapshot_array)
from .exceptions import NumericalError, ValidationError
from .kernels import Centers, KernelSpec, check_spec


class Klms:
    def __init__(self, spec: KernelSpec, eta: float, first_input, first_target):
        self.spec = check_spec(spec)
        eta = convert(eta, float, "eta")
        if not (np.isfinite(eta) and eta > 0):
            raise ValidationError(f"eta must be > 0, got {eta!r}")
        u = as_input(first_input)
        d = check_target(first_target)
        self.eta = eta
        self._centers = Centers(self.spec, u.shape[0], shift=True)
        self._coeffs = np.empty(16)  # amortized doubling, a term per entry
        self._append(u, eta * d)

    @property
    def n(self) -> int:
        return self._centers.size

    @property
    def dim(self) -> int:
        return self._centers.dim

    @property
    def centers(self) -> np.ndarray:
        return self._centers.points

    @property
    def coeffs(self) -> np.ndarray:
        view = self._coeffs[: self.n]
        view.flags.writeable = False
        return view

    def predict(self, u) -> float:
        return self._centers.sum(as_input(u, dim=self.dim), self._coeffs[: self.n])

    def step(self, u, d) -> StepOutput:
        """Predict with the current expansion, then append a unit for this sample."""
        uu = as_input(u, dim=self._centers.dim)
        dd = check_target(d)
        n = self._centers.size
        y = self._centers.sum(uu, self._coeffs[:n])
        e = dd - y
        self._append(uu, self.eta * e)
        return StepOutput(y=y, e=e, grew=True, dict_size=n + 1)

    def _append(self, u: np.ndarray, c: float) -> None:
        """Append the term c k(u, .): its center and its coefficient, the one
        path every term is written through. A c that is not finite raises
        NumericalError before any write."""
        if not math.isfinite(c):
            raise NumericalError(f"KLMS coefficient eta * e = {c!r} is not finite: "
                                 "the expansion has diverged (eta too large)")
        n = self._centers.size
        self._coeffs = reserve(self._coeffs, n)
        self._coeffs[n] = c
        self._centers.append(u)

    def to_snapshot(self) -> dict:
        return {
            "algorithm": "klms",
            "kernel": self.spec.to_json(),
            "eta": self.eta,
            "centers": self.centers.tolist(),
            "coeffs": self.coeffs.tolist(),
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
        # Replay the terms in order through `_append` into a new store: the
        # buffers match the saved filter's, and resumed steps match bit for bit.
        obj._centers = Centers(obj.spec, centers.shape[1], shift=True)
        for u, c in zip(centers, coeffs):
            obj._append(u, c)
        return obj
