"""Regularized kernel RLS with ALD sparsification (online recursion).

With the dictionary's factor W (W G W^T = I) and alpha = W^T b, the batch
problem (A^T A G + lambda I) alpha = A^T d, for the n x K sample-to-center
expansion matrix A, is ridge regression on the whitened features l = W h(u),
the rows of L = A G W^T. Model state after n samples, K = dictionary size:

    P  (K, K)  (L^T L + lambda I)^-1, kept exactly symmetric
    b  (K,)    the ridge solution P L^T d; y(u) = l(u) . b = h(u) . alpha

plus the dictionary's centers and W. `alpha` = W^T b is computed when first
read after a step and cached until the next one.

Both branches take q = P l and D = 1 + l^T q (>= 1 in exact arithmetic,
floor-checked). An unchanged step is the Sherman-Morrison update of P and b
along l, in place. A growth step appends the row [l^T, s], s = sqrt(d2), to
L (earlier samples get a 0 in the new coordinate) and writes the bordered
inverse in new arrays, with den = lambda D + d2 and a priori error e:

    P' = [[P - (lambda/den) q q^T, -(s/den) q], [-(s/den) q^T, D/den]]
    b' = [b + (lambda e/den) q; s e/den]

One formula serves every lambda >= 0 (lambda = 0 is Engel, Mannor & Meir's
original KRLS) and the first sample, bordered onto the empty state.

Steps are transactional: all floor checks precede the first write, so a
raised error leaves the state bit-identical. `step` validates its input once
and passes the checked vector to the dictionary's trusted `_ald`/`_grow`.
"""

from __future__ import annotations

import math

import numpy as np

from .base import StepOutput, as_input, check_target, scalar_field, snapshot_array
from .dictionary import Dictionary
from .exceptions import KafError, NumericalError, ValidationError
from .kernels import KernelSpec, kernel_self

DEGENERACY_FLOOR = 1e-12

# Rows per block of `_downdate`: each block's outer-product temporary stays
# small enough to be cache-resident (64 x 800 doubles = 400 KiB).
ROW_BLOCK = 64


def _downdate(P: np.ndarray, q: np.ndarray, c: float) -> None:
    """P -= c outer(q, q) in place, ROW_BLOCK rows at a time, with no K x K
    temporary. Entry (i, j) is rounded as (q_i q_j) c, the same float as
    entry (j, i), so a symmetric P stays exactly symmetric."""
    for i in range(0, P.shape[0], ROW_BLOCK):
        P[i:i + ROW_BLOCK] -= q[i:i + ROW_BLOCK, None] * q * c


class KrlsAldReg:
    """Online regularized KRLS filter with an ALD-sparsified dictionary.

    Parameters
    ----------
    spec : KernelSpec
        Kernel family and hyperparameters.
    lam : float
        Ridge regularizer, > 0. Pass 0 together with ``unregularized=True``
        to run the unregularized variant, P = (L^T L)^-1; it takes the same
        update formulas and floors, and needs a well-conditioned Gram matrix.
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
        self.P, self.b = np.empty((0, 0)), np.empty(0)  # K = 0: border the empty state
        self.P, self.b = self._border(np.empty(0), kernel_self(spec, u), d)
        self._alpha = None
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

    @property
    def alpha(self) -> np.ndarray:
        """Expansion coefficients W^T b; the model is sum_i alpha_i k(c_i, .)."""
        if self._alpha is None:
            self._alpha = self.b @ self.dict.W
        return self._alpha

    def predict(self, u) -> float:
        """Current model output sum_i alpha_i k(c_i, u); no state mutation."""
        uu = as_input(u, dim=self.dict.dim)
        return float(self.dict.kernel_vector(uu) @ self.alpha)

    def step(self, u, d) -> StepOutput:
        """Process one sample: predict with the pre-update coefficients, then
        update along the branch selected by the ALD test."""
        if self.P is None:
            raise KafError("snapshot was saved without resume_exact: this state supports "
                           "predict only; re-save with resume_exact=True or rebuild by replay")
        uu = as_input(u, dim=self.dict.dim)
        dd = check_target(d)

        ald = self.dict._ald(uu, self.delta)
        y = float(ald.l @ self.b)
        e = dd - y

        if ald.admitted:
            self._grow(uu, e, ald)
        else:
            self._update(ald.l, e)
        self._alpha = None
        self.n += 1
        return StepOutput(y=y, e=e, grew=ald.admitted, dict_size=self.dict.size)

    def _gain(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """q = P f and the floor-checked denominator 1 + f^T P f, which is
        >= 1 in exact arithmetic since P is positive definite."""
        q = self.P @ f
        denom = 1.0 + float(f @ q)
        if not DEGENERACY_FLOOR < denom < math.inf:
            raise NumericalError(f"degenerate rank-one update: 1 + f^T P f = {denom!r}")
        return q, denom

    def _update(self, f: np.ndarray, e: float) -> None:
        """Sherman-Morrison step of P and b along f, in place after the check."""
        q, denom = self._gain(f)
        self.b += q * (e / denom)
        _downdate(self.P, q, 1.0 / denom)

    def _border(self, l: np.ndarray, d2: float, e: float) -> tuple[np.ndarray, np.ndarray]:
        """P and b extended by a coordinate for the feature [l; sqrt(d2)] with
        a priori error e, in new arrays (see the module docstring)."""
        k = l.shape[0]
        q, D = self._gain(l)
        s = math.sqrt(d2)
        den = self.lam * D + d2
        P = np.empty((k + 1, k + 1))
        P[:k, :k] = self.P
        _downdate(P[:k, :k], q, self.lam / den)
        P[:k, k] = P[k, :k] = -(s / den) * q
        P[k, k] = D / den
        return P, np.append(self.b + (self.lam * e / den) * q, s * e / den)

    def _grow(self, u: np.ndarray, e: float, ald) -> None:
        """Border P and b for the new center; they are assigned only after the
        dictionary has grown, since `Dictionary._grow` may refuse the sample."""
        P, b = self._border(ald.l, ald.d2, e)
        self.dict._grow(u, ald)
        self.P, self.b = P, b

    # -- serialization ----------------------------------------------------

    def to_snapshot(self, resume_exact: bool = False) -> dict:
        """Model snapshot. With ``resume_exact`` the W, P and b matrices are
        embedded so training can continue exactly; without it the snapshot
        supports prediction only (or resume by replaying the stream)."""
        snap = {
            "algorithm": "krls-ald-reg",
            "lambda": self.lam,
            "delta": self.delta,
            "unregularized": self.unregularized,
            # exact resume needs the incrementally built W: a recomputed
            # dense factor differs in the last ulps
            **self.dict.to_snapshot(store_matrices=resume_exact),
            "alpha": self.alpha.tolist(),
            "n": self.n,
        }
        if resume_exact:
            snap["resume_exact"] = True
            snap["P"] = self.P.tolist()
            snap["b"] = self.b.tolist()
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "KrlsAldReg":
        """Rebuild a filter, checking every field as the constructor would.

        Snapshots of the former P/M/G^-1 state (with "M" or "gram_inv") are
        refused: their P is a different matrix from this version's.
        """
        if snap.get("algorithm") != "krls-ald-reg":
            raise ValidationError(f"not a krls-ald-reg snapshot: {snap.get('algorithm')!r}")
        legacy = sorted({"M", "gram_inv"} & snap.keys())
        if legacy:
            raise ValidationError(f"snapshot stores {legacy} of the former P/M/G^-1 state, "
                                  f"which this version cannot resume; replay the stream")
        obj = object.__new__(cls)
        obj._set_parameters(scalar_field(snap, "lambda"), scalar_field(snap, "delta"),
                            scalar_field(snap, "unregularized", bool, False))
        n = scalar_field(snap, "n", int)
        obj.dict = Dictionary.from_snapshot(snap)
        k = obj.dict.size
        if n < k:
            raise ValidationError(f"snapshot n = {n} is below its center count {k}")
        obj.n = n
        obj._alpha = snapshot_array(snap, "alpha", (k,))
        if scalar_field(snap, "resume_exact", bool, False):
            obj.P = snapshot_array(snap, "P", (k, k))
            if not np.array_equal(obj.P, obj.P.T):
                raise ValidationError("snapshot 'P' is not symmetric")
            obj.b = snapshot_array(snap, "b", (k,))
            obj._alpha = None
        else:
            obj.P = None
            obj.b = None
        return obj
