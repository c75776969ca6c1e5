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

The Gaussian sum is taken from squared distances about the first center
c_1. A buffer D of shape (L + 2, capacity) holds one column per term,

    D[:, i] = [c_i - c_1; q_i; 1],    q_i = ||c_i - c_1||^2,

and with w = u - c_1 the vector v = [w (2/sigma^2); -1/sigma^2; -||w||^2/sigma^2]
gives every exponent in one matrix-vector product:

    (v^T D)_i = -(q_i + ||w||^2 - 2 (c_i - c_1) . w) / sigma^2
              = -||c_i - u||^2 / sigma^2.

A clamp at 0, an in-place exp and the dot with the coefficients follow, with
no n x L difference array. Distances about c_1 rather than the origin keep
the rounding error proportional to the spread of the data, not to its
offset, and the first term (c_1 - c_1 = 0, q_1 = 0) is exactly
-||w||^2/sigma^2 (see `_expansion`). But that error still grows with the
spread: where its bound exceeds SHIFT_TOL, the product could lose a kernel
value of order 1, or overflow, and the sum is `kernel_vector`'s explicit
differences instead, whose values past the float range are 0, as they are
exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (StepOutput, as_input, as_object, check_target, convert, reserve,
                   scalar_field, snapshot_array)
from .exceptions import NumericalError, ValidationError
from .kernels import KernelSpec, check_spec, kernel_vector

# Largest bound on an exponent's rounding error (see `_expansion`) for which
# the shifted sum is taken. The bound stays below 3e-13 on the dim-3
# `nonlinear_sysid` streams at sigma = 1 (q_i/sigma^2 up to about 50) and
# below 4e-11 on `kaf bench`'s dim-128 stream (about 350).
SHIFT_TOL = 1e-10


class Klms:
    def __init__(self, spec: KernelSpec, eta: float, first_input, first_target):
        self.spec = check_spec(spec)
        eta = convert(eta, float, "eta")
        if not (np.isfinite(eta) and eta > 0):
            raise ValidationError(f"eta must be > 0, got {eta!r}")
        u = as_input(first_input)
        d = check_target(first_target)
        self.eta = eta
        # Amortized-doubling buffers: every term is a row (a column of D).
        self._centers = np.empty((16, u.shape[0]))
        self._coeffs = np.empty(16)
        self._D = np.empty((u.shape[0] + 2, 16))  # columns [c_i - c_1; q_i; 1]
        # 6 (dim + 5) eps / sigma^2, inf where the shifted sum's factor
        # 2/sigma^2 overflows, or once a stored q_i times it exceeds
        # SHIFT_TOL: the shifted sum is taken only where ||w||^2 times this
        # is at most SHIFT_TOL (see `_expansion`)
        self._scale = (3 * (u.shape[0] + 5) * 2.0 ** -53 * (2.0 / (spec.sigma * spec.sigma))
                       if spec.family == "gaussian" else math.inf)
        self.n = 0
        self._append(u, eta * d, np.zeros(u.shape[0]), 0.0)

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
        column of D if appended).

        Gaussian: h = v^T D[:, :n], clamped at 0. Against -||c_i - u||^2/sigma^2,
        h_i is off by at most

            2 (L + 5) eps (q_i + ||w||^2 + ||c_i - c_1|| ||w||) / sigma^2,

        eps = 2^-53, besides a relative 2 eps of the whole exponent from
        rounding 1/sigma^2; the ||w||^2 term carries v's separate rounding
        of ||w||^2/sigma^2. A kernel value moves by at most as much.
        Since ||c_i - c_1|| ||w|| <= (q_i + ||w||^2)/2, the bound is at most
        (q_i + ||w||^2) `_scale` / 2, so the sum is taken so only while
        ||w||^2 `_scale` and every q_i `_scale` are at most SHIFT_TOL; then
        ||w||^2 and q_i are below 3e4 sigma^2 and nothing overflows.
        Otherwise h is `kernel_vector`'s, overflow quiet. The polynomial
        kernel is (c_i . u + 1)^degree.
        """
        n = self.n
        w = u - self._centers[0]
        ww = float(np.vdot(w, w))  # np.vdot, unlike @, warns of no overflow, as for y below
        if self.spec.family != "gaussian":
            h = kernel_vector(self.spec, self._centers[:n], u)
        elif not ww * self._scale <= SHIFT_TOL:  # NaN at ww = 0 once _scale is inf
            with np.errstate(over="ignore"):
                h = kernel_vector(self.spec, self._centers[:n], u)
        else:
            s2 = self.spec.sigma * self.spec.sigma
            v = np.empty(w.shape[0] + 2)
            np.multiply(w, 2.0 / s2, out=v[:-2])
            v[-2:] = -1.0 / s2, -ww / s2
            h = v @ self._D[:, :n]
            np.minimum(h, 0.0, out=h)
            np.exp(h, out=h)
        # np.vdot, unlike @, warns of no overflow: `_append` refuses a diverged y
        return float(np.vdot(h, self._coeffs[:n])), w, ww

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
        center, its coefficient and its column of D, the one path every term
        is written through. A c that is not finite raises NumericalError
        before any write."""
        if not math.isfinite(c):
            raise NumericalError(f"KLMS coefficient eta * e = {c!r} is not finite: "
                                 "the expansion has diverged (eta too large)")
        n = self.n
        self._centers = reserve(self._centers, n)
        self._centers[n] = u
        self._coeffs = reserve(self._coeffs, n)
        self._coeffs[n] = c
        self._D = reserve(self._D, n, axis=1)
        self._D[:-2, n] = w
        self._D[-2, n] = ww
        self._D[-1, n] = 1.0
        if not ww * self._scale <= SHIFT_TOL:
            self._scale = math.inf
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
        for u, c in zip(centers, coeffs):
            w = u - centers[0]
            obj._append(u, c, w, float(np.vdot(w, w)))
        return obj
