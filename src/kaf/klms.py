"""Kernel LMS: a growing RBF expansion trained by stochastic gradient.

Every processed sample adds one kernel unit, so after n steps the model is

    y(u) = sum_{i=1..n} c_i k(u_i, u),    c_i = eta * e(i)

with e(i) the a-priori error at step i. Coefficients are stored
pre-multiplied by eta so prediction is a single kernel-weighted sum; the raw
error sequence is recoverable as coeffs / eta.

The first recorded output is y(1) = 0 and e(1) = d(1), consistent with a
zero initial weight vector. Memory grows linearly with the stream; an
optional hard cap aborts with CapacityError instead of silently degrading.
"""

from __future__ import annotations

import numpy as np

from .base import StepOutput, as_input, check_target, snapshot_array
from .exceptions import CapacityError, ValidationError
from .kernels import KernelSpec, kernel_vector


class Klms:
    def __init__(self, spec: KernelSpec, eta: float, first_input, first_target,
                 *, max_terms: int | None = None):
        eta = float(eta)
        if not (np.isfinite(eta) and eta > 0):
            raise ValidationError(f"eta must be > 0, got {eta!r}")
        if max_terms is not None and max_terms < 1:
            raise ValidationError(f"max_terms must be >= 1, got {max_terms!r}")
        u = as_input(first_input)
        d = check_target(first_target)
        self.spec = spec
        self.eta = eta
        self.max_terms = max_terms
        # Amortized-doubling buffers: every step appends one row.
        self._centers = np.empty((16, u.shape[0]))
        self._coeffs = np.empty(16)
        self._centers[0] = u
        self._coeffs[0] = eta * d
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

    def predict(self, u) -> float:
        uu = as_input(u, dim=self.dim)
        h = kernel_vector(self.spec, self._centers[: self.n], uu)
        return float(h @ self._coeffs[: self.n])

    def step(self, u, d) -> StepOutput:
        """Predict with the current expansion, then append a unit for this sample."""
        uu = as_input(u, dim=self.dim)
        dd = check_target(d)
        if self.max_terms is not None and self.n >= self.max_terms:
            raise CapacityError(
                f"expansion reached the configured cap of {self.max_terms} terms"
            )
        n = self.n
        h = kernel_vector(self.spec, self._centers[:n], uu)
        y = float(h @ self._coeffs[:n])
        e = dd - y

        if n == self._centers.shape[0]:
            grown = np.empty((2 * n, self.dim))
            grown[:n] = self._centers
            self._centers = grown
            grown_c = np.empty(2 * n)
            grown_c[:n] = self._coeffs
            self._coeffs = grown_c
        self._centers[n] = uu
        self._coeffs[n] = self.eta * e
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
        if snap.get("algorithm") != "klms":
            raise ValidationError(f"not a klms snapshot: {snap.get('algorithm')!r}")
        centers = snapshot_array(snap, "centers", (None, None))
        n = centers.shape[0]
        if n == 0:
            raise ValidationError("snapshot centers must be a nonempty list of vectors")
        coeffs = snapshot_array(snap, "coeffs", (n,))
        max_terms = snap.get("max_terms")
        obj = cls(KernelSpec.from_json(snap["kernel"]), float(snap["eta"]),
                  centers[0], 0.0, max_terms=max_terms)
        if max_terms is not None and n > max_terms:
            raise ValidationError(f"snapshot holds {n} terms, above its cap of {max_terms}")
        obj._centers = centers
        obj._coeffs = coeffs
        obj.n = n
        return obj
