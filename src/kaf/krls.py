"""Regularized kernel RLS with ALD sparsification (online recursion).

Model state after n samples, with K = dictionary size:

    alpha  (K,)    expansion coefficients; prediction is h(u) . alpha
    P      (K, K)  inverse of (M G + lambda I), where G is the Gram matrix
    M      (K, K)  accumulated A^T A for the sample-to-center expansion
                   matrix A (A itself is never stored: rejected samples add
                   a a^T to M, admitted ones extend M by a unit diagonal)

plus the dictionary's centers and G^-1. G is never stored: the recursion
needs only G^-1 and kernel vectors, and `dict.gram` recomputes G on demand.

Each step runs the ALD admission test and then applies exactly one of two
O(K^2) updates: a Sherman-Morrison rank-one correction of P when the
dictionary is unchanged, or a block-inverse extension when it grows. The
rank-one branch updates P and M in place; the growth branch builds new
(K+1)^2 arrays and assigns them at the end.

Steps are transactional: all floor checks precede the first write, so a
raised error leaves the state bit-identical.
"""

from __future__ import annotations

import numpy as np

from .base import StepOutput, as_input, check_target, snapshot_array
from .dictionary import Dictionary, rank_one_update
from .exceptions import KafError, NumericalError, ValidationError
from .kernels import KernelSpec, kernel_eval

DEGENERACY_FLOOR = 1e-12


class KrlsAldReg:
    """Online regularized KRLS filter with an ALD-sparsified dictionary.

    Parameters
    ----------
    spec : KernelSpec
        Kernel family and hyperparameters.
    lam : float
        Ridge regularizer, > 0. Pass 0 together with ``unregularized=True``
        to run the degenerate unregularized variant (the denominator floors
        are relaxed; only exact zeros and non-finite values are rejected).
    delta : float
        ALD admission threshold, >= 0: a sample joins the dictionary iff its
        squared approximation residual d2 exceeds delta. Callers wanting a
        threshold expressed as a residual norm should pass its square.
    first_input, first_target
        The first sample, which always becomes the first center.
    """

    def __init__(self, spec: KernelSpec, lam: float, delta: float,
                 first_input, first_target, *, unregularized: bool = False):
        self._set_parameters(lam, delta, unregularized)
        u = as_input(first_input)
        d = check_target(first_target)
        self.dict = Dictionary(spec, u)
        k11_lam = kernel_eval(spec, u, u) + self.lam
        if abs(k11_lam) < self._floor():
            raise ValidationError(f"degenerate initialization: k(u,u) + lambda = {k11_lam!r}")
        self.alpha = np.array([d / k11_lam])
        self.P = np.array([[1.0 / k11_lam]])
        self.M = np.array([[1.0]])
        self.n = 1

    def _set_parameters(self, lam, delta, unregularized) -> None:
        """Validate and set lambda, delta and the unregularized flag."""
        lam = float(lam)
        if unregularized:
            if lam != 0.0:
                raise ValidationError("unregularized mode requires lambda == 0")
        elif not (np.isfinite(lam) and lam > 0):
            raise ValidationError(f"lambda must be > 0, got {lam!r}")
        delta = float(delta)
        if np.isnan(delta) or delta < 0:
            raise ValidationError(f"delta must be a nonnegative real, got {delta!r}")
        self.lam = lam
        self.delta = delta
        self.unregularized = bool(unregularized)

    @property
    def spec(self) -> KernelSpec:
        return self.dict.spec

    @property
    def dict_size(self) -> int:
        return self.dict.size

    def _floor(self) -> float:
        return 0.0 if self.unregularized else DEGENERACY_FLOOR

    def predict(self, u) -> float:
        """Current model output sum_i alpha_i k(c_i, u); no state mutation."""
        uu = as_input(u, dim=self.dict.dim)
        return float(self.dict.kernel_vector(uu) @ self.alpha)

    def step(self, u, d) -> StepOutput:
        """Process one sample: predict with the pre-update coefficients, then
        update along the branch selected by the ALD test."""
        self._require_resumable()
        uu = as_input(u, dim=self.dict.dim)
        dd = check_target(d)

        ald = self.dict.ald_test(uu, self.delta)
        y = float(ald.h @ self.alpha)
        e = dd - y

        if ald.admitted:
            self._update_grow(uu, e, ald)
        else:
            self._update_unchanged(e, ald)
        self.n += 1
        return StepOutput(y=y, e=e, grew=ald.admitted, dict_size=self.dict.size)

    def _update_unchanged(self, e: float, ald) -> None:
        """Rank-one refresh of P, alpha, M when the dictionary is kept.

        The Sherman-Morrison term uses s = G a, which is h since a = G^-1 h.
        P and M are updated in place, after the denominator check.
        """
        a, h = ald.a, ald.h
        Pa = self.P @ a
        denom = 1.0 + float(h @ Pa)
        if abs(denom) <= self._floor() or not np.isfinite(denom):
            raise NumericalError(f"degenerate rank-one update: 1 + s P a = {denom!r}")
        q = Pa / denom
        new_alpha = self.alpha + q * e
        hP = h @ self.P

        rank_one_update(self.P, q, hP, subtract=True)
        rank_one_update(self.M, a, a)
        self.alpha = new_alpha

    def _update_grow(self, u: np.ndarray, e: float, ald) -> None:
        """Extend alpha, P, M by one center via the block-inverse identity."""
        k = self.dict.size
        h = ald.h
        z_a = self.P @ (self.M @ h)
        z = self.P.T @ h
        gamma = self.lam + ald.kuu - float(h @ z_a)
        if abs(gamma) <= self._floor() or not np.isfinite(gamma):
            raise NumericalError(
                f"degenerate dictionary extension: gamma = {gamma!r} "
                f"(near-duplicate admission or lambda too small)"
            )
        ginv = 1.0 / gamma

        new_alpha = np.empty(k + 1)
        new_alpha[:k] = self.alpha - z_a * (ginv * e)
        new_alpha[k] = ginv * e

        new_P = np.empty((k + 1, k + 1))
        new_P[:k, :k] = self.P
        rank_one_update(new_P[:k, :k], z_a, z, mul=ginv)
        new_P[:k, k] = -z_a * ginv
        new_P[k, :k] = -z * ginv
        new_P[k, k] = ginv

        new_M = np.zeros((k + 1, k + 1))
        new_M[:k, :k] = self.M
        new_M[k, k] = 1.0

        # May refuse near-singular growth; runs before any state assignment.
        self.dict.grow(u, ald)
        self.alpha = new_alpha
        self.P = new_P
        self.M = new_M

    # -- serialization ----------------------------------------------------

    def to_snapshot(self, resume_exact: bool = False) -> dict:
        """Model snapshot. With ``resume_exact`` the P and M matrices are
        embedded so training can continue exactly; without it the snapshot
        supports prediction only (or resume by replaying the stream)."""
        snap = {
            "algorithm": "krls-ald-reg",
            "kernel": self.spec.to_json(),
            "lambda": self.lam,
            "delta": self.delta,
            "unregularized": self.unregularized,
            "centers": self.dict.centers.tolist(),
            "centers_sha256": self.dict.centers_checksum(),
            "alpha": self.alpha.tolist(),
            "n": self.n,
        }
        if resume_exact:
            snap["resume_exact"] = True
            snap["P"] = self.P.tolist()
            snap["M"] = self.M.tolist()
            # exact resume also needs the incrementally built Gram inverse:
            # a recomputed dense inverse differs in the last ulps
            snap["gram_inv"] = self.dict.gram_inv.tolist()
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "KrlsAldReg":
        """Rebuild a filter, checking every field as the constructor would."""
        if snap.get("algorithm") != "krls-ald-reg":
            raise ValidationError(f"not a krls-ald-reg snapshot: {snap.get('algorithm')!r}")
        obj = object.__new__(cls)
        try:
            obj._set_parameters(snap["lambda"], snap["delta"], snap.get("unregularized", False))
            n = int(snap["n"])
        except KeyError as exc:
            raise ValidationError(f"snapshot lacks {exc.args[0]!r}") from None
        obj.dict = Dictionary.from_snapshot(snap)
        k = obj.dict.size
        if n < k:
            raise ValidationError(f"snapshot n = {n} is below its center count {k}")
        obj.n = n
        obj.alpha = snapshot_array(snap, "alpha", (k,))
        if snap.get("resume_exact"):
            obj.P = snapshot_array(snap, "P", (k, k))
            obj.M = snapshot_array(snap, "M", (k, k))
        else:
            obj.P = None
            obj.M = None
        return obj

    def _require_resumable(self):
        if self.P is None or self.M is None:
            raise KafError(
                "snapshot was saved without resume_exact: this state supports "
                "predict only; re-save with resume_exact=True or rebuild by replay"
            )
