"""Regularized kernel RLS with ALD sparsification (online recursion).

With the dictionary's factor W (W G W^T = I) and alpha = W^T b, the batch
problem (A^T A G + lambda I) alpha = A^T d, for the n x K sample-to-center
expansion matrix A, is ridge regression on the whitened features l = W h(u),
the rows of L = A G W^T. Model state after n samples, K = dictionary size:

    P  (K, K)  (L^T L + lambda I)^-1 = P_b - Y^T Y
    b  (K,)    the ridge solution P L^T d; y(u) = l(u) . b = h(u) . alpha

plus the dictionary's centers and W. `alpha` = W^T b is computed when first
read and cached until `_stack`, which every write to P and b goes through.

P is kept as a base P_b less the rank-m term Y^T Y of the m < PENDING rows
of Y that P_b has not absorbed yet (Woodbury applied lazily, as blocked
LAPACK codes delay rank-k updates). Every write to P stacks rows on Y; once
PENDING or more rows are pending, the flush P_b -= Y^T Y absorbs them in
one level-3 product. Reads go through both terms: q = P f = P_b f -
Y^T (Y f). While K <= PENDING, where reading Y would cost more than the
flush saves, every stack is flushed at once. The flushes fall at fixed
pending counts, so reruns are bit-identical. P_b and W live in square
capacity buffers that grow by an eighth when full, and Y in one whose
columns double, so growth and a snapshot's replay copy a K x K array only
at every eighth of growth.

Up to K = W_BLOCK, and on `_blas`'s reference path (a numpy whose BLAS does
not export the kernels), P_b is exactly symmetric: numpy reads it whole,
forms the flush's Y^T Y exactly symmetric, and a growth writes P_b's new
row and column alike. Past W_BLOCK with the kernels, P_b's lower triangle
is the state: P_b f (dsymv) and L P_b (dsymm) read only that triangle, and
the flush is one dsyrk into it, in place, with no K x K temporary; the
strict upper triangle goes stale and is never read.
The property `P` and a snapshot's "P" mirror the lower triangle, so they
are exactly symmetric either way, and either path resumes the other's
snapshots. `P` forms P_b - Y^T Y in a new array without changing the state.

A step takes q = P l and D = 1 + l^T q (>= 1 in exact arithmetic,
floor-checked) once, then takes one of two branches. An unchanged step is
the Sherman-Morrison update along l: b += (e/D) q, and the row q/sqrt(D)
joins Y. A growth step appends the row [l^T, s], s = sqrt(d2), to L
(earlier samples get a 0 in the new coordinate) and borders the inverse,
with den = lambda D + d2 and a priori error e:

    P' = [[P - (lambda/den) q q^T, -(s/den) q], [-(s/den) q^T, D/den]]
    b' = [b + (lambda/den) e q; s e/den]

It writes only P_b's new row and column, -(s/den) q and D/den, on
either backend; the pending rows get a 0 in the new coordinate, and the
row [sqrt(lambda/den) q^T, 0] joins Y. One formula serves every
lambda >= 0 (lambda = 0 is Engel, Mannor & Meir's original KRLS) and the
first sample, bordered onto the empty state.

Steps are transactional: all floor checks precede the first write, so a
raised error leaves the state bit-identical. `step` validates its input once
and passes the checked vector to the dictionary's trusted `_ald`/`_grow`.

`run` feeds a stream through the same recursion, in blocks of
`base.BLOCK` samples handed to `_block` by the one bulk driver,
`base.run_stream`, whose docstring gives the failure rule. The ALD test
reads only the dictionary, never P or b (Engel, Mannor & Meir 2004), so one
kernel matrix H and one product L = H W^T screen a block's residuals
d2 = k(u, u) - rowsum(L^2) at once (`dictionary.AldScreen`).
Admission rule: a sample goes through `step` when its screened d2 is not
below delta by more than the screen's roundoff bound, so `step` makes every
decision that could go either way, and the samples before it are ones
`step` would not admit. After an admission the screen gains W's new row,
and the block goes on.

Between admissions the samples are plain RLS on fixed features: the rows
of L and their targets d, in order. The innovations form of block RLS
(Sayed & Kailath 1994) applies them in one update. With
S = I + L P L^T = R R^T (Cholesky, R lower triangular) and
Z = R^-1 [L P, d - L b] = [X, nu]:

    e~ = diag(R) nu            (the a priori errors)
    P' = P - X^T X             (the rows of X join Y)
    b' = b + X^T nu

and the outputs are y = d - e~, then e = d - y, so e = d - y exactly. The
per-sample denominators 1 + l^T P l are diag(R)^2. R and Z come from one
Cholesky factorization F F^T of S bordered so that the Schur complement is
at least I, since S >= I. For a block of j rows, B = [L P, d - L b] and the
border E = B while K + 1 <= j, E = I beyond (see `base.BLOCK`):

    M = [[S, E], [E^T, c I]], c = |E|_F^2 + 1    F = [[R, 0], [(R^-1 E)^T, T]]

so Z = R^-1 B is F's lower-left block, transposed, or that times B. R^-1 E
does not depend on c, so a c that overflows (targets beyond about 1e154)
leaves Z as it is, or makes the Cholesky fail and the block go through `step`.
A block whose Cholesky fails, whose results are not finite, or whose
diag(R)^2 are not all above BLOCK_DENOM_MIN, is re-stepped sample by sample
from the state before it, so a floor violation raises from `step` at the
step loop's sample.
"""

from __future__ import annotations

import math

import numpy as np

from . import _blas
from .base import (BLOCK, StepOutput, as_input, as_object, check_target, convert, reserve,
                   reserve_square, run_stream, scalar_field, snapshot_array)
from .dictionary import AldScreen, Dictionary, check_delta, check_lambda
from .exceptions import KafError, NumericalError, ValidationError
from .kernels import KernelSpec, check_spec, kernel_self

DEGENERACY_FLOOR = 1e-12

# 1 + l^T P l >= 1 in exact arithmetic: a block update whose denominators
# diag(R)^2 do not all exceed this has lost P's definiteness to roundoff, and
# its samples go through `step`, which applies DEGENERACY_FLOOR one at a time.
BLOCK_DENOM_MIN = 0.5

# Rows of Y pending before the flush P_b -= Y^T Y (see the module docstring).
# Over PENDING steps, deferring costs about PENDING^2 K in reads of Y and
# saves about PENDING K^2 in writes of P_b, so rows are deferred only while
# K > PENDING. Measured at K = 500 and 1000, 32 and 64 step alike and 8 and
# 16 slower; at K = 13 no row is deferred.
PENDING = 32


class KrlsAldReg:
    """Online regularized KRLS filter with an ALD-sparsified dictionary.

    Parameters
    ----------
    spec : KernelSpec
        Kernel family and hyperparameters.
    lam : float
        Ridge regularizer, finite and >= 0. At 0 the filter is Engel, Mannor
        & Meir's original KRLS, P = (L^T L)^-1: the same formulas and floors,
        but the Gram matrix must stay well conditioned on its own.
    delta : float
        ALD admission threshold, >= 0: a sample joins the dictionary iff its
        squared approximation residual d2 exceeds delta. Callers wanting a
        threshold expressed as a residual norm should pass its square.
    first_input, first_target
        The first sample, which always becomes the first center.
    """

    def __init__(self, spec: KernelSpec, lam: float, delta: float,
                 first_input, first_target):
        check_spec(spec)
        self.lam, self.delta = check_lambda(lam), check_delta(delta)
        u = as_input(first_input)
        self.dict = Dictionary(spec, u)
        d = check_target(first_target)
        # K = 0: border the empty state. Y holds the pending rows and a
        # block's, up to BLOCK, before the flush.
        self._Pb, self._Y, self._m = np.empty((0, 0)), np.empty((PENDING + BLOCK, 1)), 0
        self.b = np.empty(0)
        self._border(*self._gain(np.empty(0)), kernel_self(spec, u), d)
        self.n = 1

    @property
    def spec(self) -> KernelSpec:
        return self.dict.spec

    @property
    def dict_size(self) -> int:
        return self.dict.size

    @property
    def P(self) -> np.ndarray | None:
        """P = P_b - Y^T Y in a new array, exactly symmetric; None in a
        predict-only state. Reading it changes no state."""
        if self._Pb is None:
            return None
        k, m = self.dict.size, self._m
        Y = self._Y[:m, :k]
        return _blas.mirror_lower(self._Pb, k) - Y.T @ Y

    @property
    def alpha(self) -> np.ndarray:
        """Expansion coefficients W^T b; the model is sum_i alpha_i k(c_i, .)."""
        if self._alpha is None:
            self._alpha = _blas.dot_tril(self.b.copy(), self.dict._W, self.dict.size)
        return self._alpha

    def predict(self, u) -> float:
        """Current model output sum_i alpha_i k(c_i, u); no state mutation.

        The dictionary's center store sums it (`kernels.Centers.sum`).
        Below input dimension `dictionary.SHIFT_DIM_MIN` (L = 1 and 2), or for
        a polynomial kernel, the store keeps no shifted columns and the sum is
        `float(np.vdot(kernel_vector(spec, centers, u), alpha))`, bit for bit
        `kernel_vector(spec, centers, u) @ alpha`. From there on a Gaussian
        sum is taken from the store's shifted columns: each exponent, and so
        each kernel value, lies within
        2 (L + 5) eps (q_i + ||w||^2 + ||c_i - c_1|| ||w||) / sigma^2 of the
        explicit one, for eps = 2^-53, w = u - c_1 and q_i = ||c_i - c_1||^2,
        besides a relative 2 eps of the exponent from rounding 1/sigma^2,
        and the dot with alpha adds its own rounding. Where that bound could
        exceed `kernels.SHIFT_TOL`, the sum is the explicit one, with no
        numpy overflow warning.
        """
        return self.dict._centers.sum(as_input(u, dim=self.dict.dim), self.alpha)

    def step(self, u, d) -> StepOutput:
        """Process one sample: predict with the pre-update coefficients, then
        update along the branch selected by the ALD test."""
        self._check_trainable()
        uu = as_input(u, dim=self.dict.dim)
        dd = check_target(d)

        ald = self.dict._ald(uu, self.delta)
        y = float(ald.l @ self.b)
        e = dd - y

        q, D = self._gain(ald.l)
        if ald.admitted:
            self.dict._grow(uu, ald)
            self._border(q, D, ald.d2, e)
        else:
            self._update(q, D, e)
        self.n += 1
        return StepOutput(y, e, ald.admitted, self.dict.size)

    def run(self, U, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Process the samples (U[i], d[i]) in order, as `step` on each would,
        and return arrays of their y, e and dict_size, through
        `base.run_stream` and `_block`."""
        return run_stream(self, U, d, self.dict.dim, self._block)

    def _block(self, X: np.ndarray, t: np.ndarray, y: np.ndarray, size: np.ndarray,
               step) -> None:
        """`run_stream`'s block step: screen the validated samples (X[j], t[j]),
        take each stretch that `step` would not admit in one `_update_block`,
        and hand `step` each sample that might be admitted and each stretch
        the update refuses (see the module docstring)."""
        self._check_trainable()
        screen = AldScreen(self.dict, X)
        clear = screen.rejects(self.delta)
        i, m = 0, t.shape[0]
        while i < m:
            # Samples i..j-1 are ones `step` would not admit; j might be.
            hit = np.flatnonzero(~clear[i:])
            j = i + int(hit[0]) if hit.size else m
            if j > i:
                errs = self._update_block(screen.L[i:j], t[i:j])
                if errs is None:
                    for k in range(i, j):
                        step(k)
                else:
                    y[i:j] = t[i:j] - errs
                    size[i:j] = self.dict.size
            if j < m and step(j):
                screen.extend()
                clear = screen.rejects(self.delta)
            i = j + 1

    def _update_block(self, L: np.ndarray, d: np.ndarray) -> np.ndarray | None:
        """One block RLS update for samples `step` would not admit, with the
        rows of L as features and targets d: P and b as the steps would leave
        them, up to roundoff. Returns the samples' a priori errors, or None,
        with the state untouched, when a denominator is below BLOCK_DENOM_MIN
        or a result is not finite."""
        j, k, m = L.shape[0], L.shape[1], self._m
        LP = _blas.rows_sym(L, self._Pb, k)
        if m:
            Y = self._Y[:m, :k]
            LP -= (L @ Y.T) @ Y
        B = np.column_stack((LP, d - L @ self.b))
        # One Cholesky factor F of M = [[S, E], [E^T, c I]] (see the module
        # docstring); np.linalg.cholesky reads M's lower triangle.
        E = B if k + 1 <= j else np.eye(j)
        n = j + E.shape[1]
        M = np.zeros((n, n))
        M[:j, :j] = LP @ L.T
        M[j:, :j] = E.T
        diagonal = M.reshape(-1)[::n + 1]
        diagonal[:j] += 1.0
        diagonal[j:] = np.einsum("ij,ij->", E, E) + 1.0
        try:
            F = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return None
        r = np.diagonal(F)[:j]
        Z = F[j:, :j].T if E is B else F[j:, :j].T @ B
        if not (np.isfinite(Z).all() and (r * r).min() > BLOCK_DENOM_MIN):
            return None
        X, nu = Z[:, :-1], Z[:, -1]
        self._stack(X)
        self.b += nu @ X
        self.n += j
        return r * nu

    def _gain(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """q = P f and the floor-checked denominator 1 + f^T P f, which is
        >= 1 in exact arithmetic since P is positive definite."""
        k, m = f.shape[0], self._m
        q = _blas.sym_dot(self._Pb, k, f)
        if m:
            Y = self._Y[:m, :k]
            q -= (Y @ f) @ Y
        denom = 1.0 + float(f @ q)
        if not DEGENERACY_FLOOR < denom < math.inf:
            raise NumericalError(f"degenerate rank-one update: 1 + f^T P f = {denom!r}")
        return q, denom

    def _update(self, q: np.ndarray, D: float, e: float) -> None:
        """Sherman-Morrison step of P and b for the gain q, D that `_gain` checked."""
        self.b += q * (e / D)
        self._stack((q / math.sqrt(D))[None])

    def _stack(self, rows: np.ndarray) -> None:
        """P -= rows^T rows, for at most BLOCK rows over the current K
        coordinates: they join Y, which is flushed into P_b once PENDING or
        more rows are pending. While K <= PENDING none are pending, and the
        rows go into P_b at once. It drops the cached alpha."""
        self._alpha = None
        j, k = rows.shape
        if k > PENDING:
            m = self._m + j
            self._Y[self._m:m, :k] = rows
            if m < PENDING:
                self._m = m
                return
            rows, self._m = self._Y[:m, :k], 0
        _blas.sym_flush(self._Pb, k, rows)

    def _border(self, q: np.ndarray, D: float, d2: float, e: float) -> None:
        """Extend P and b by a coordinate for the feature [l; sqrt(d2)], for
        the gain q = P l and D = 1 + l^T q, with a priori error e (see the
        module docstring). K grows from len(q) to len(q) + 1."""
        k = q.shape[0]
        s = math.sqrt(d2)
        den = self.lam * D + d2
        r = self.lam / den  # <= 1/D <= 1, where lambda e alone can overflow
        self._Pb = Pb = reserve_square(self._Pb, k)
        self._Y = Y = reserve(self._Y, k, axis=1)
        Pb[k, :k] = Pb[:k, k] = -(s / den) * q
        Pb[k, k] = D / den
        Y[:self._m, k] = 0.0
        self.b = np.append(self.b + (r * e) * q, s * e / den)
        self._stack(np.append(math.sqrt(r) * q, 0.0)[None])

    def _check_trainable(self) -> None:
        """Refuse the predict-only state, loaded without resume_exact: no P_b or b."""
        if self._Pb is None:
            raise KafError("snapshot was saved without resume_exact: this state supports "
                           "predict only; re-save with resume_exact=True or rebuild by replay")

    # -- serialization ----------------------------------------------------

    def to_snapshot(self, resume_exact: bool = False) -> dict:
        """Model snapshot. With ``resume_exact`` the state P_b ("P", exactly
        symmetric, mirrored from its lower triangle), the
        pending rows of Y ("P_pending", when there are any) and b are
        embedded, so training continues bit for bit; without it the snapshot,
        and a filter loaded from it, support prediction only (or resume by
        replaying the stream). Taking it flushes nothing. W is never stored:
        the loader rebuilds it bit for bit from the centers."""
        snap = {
            "algorithm": "krls-ald-reg",
            "lambda": self.lam,
            "delta": self.delta,
            **self.dict.to_snapshot(),
            "alpha": self.alpha.tolist(),
            "n": self.n,
        }
        if convert(resume_exact, bool, "resume_exact"):
            self._check_trainable()
            k, m = self.dict.size, self._m
            snap["resume_exact"] = True
            snap["P"] = _blas.mirror_lower(self._Pb, k).tolist()
            if m:
                snap["P_pending"] = self._Y[:m, :k].tolist()
            snap["b"] = self.b.tolist()
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "KrlsAldReg":
        """Rebuild a filter, checking every field as the constructor would.

        The dictionary's W is rebuilt from the centers (see
        `Dictionary.from_snapshot`); a stored "W" entry is ignored. A
        snapshot without "P_pending", as older ones are, has no pending
        rows. Snapshots of the former P/M/G^-1 state (with "M" or
        "gram_inv") are refused: their P is a different matrix from this
        version's. With resume_exact, P = P_b - Y^T Y must be positive
        definite: one Cholesky factorization checks it.
        """
        if as_object(snap, "snapshot").get("algorithm") != "krls-ald-reg":
            raise ValidationError(f"not a krls-ald-reg snapshot: {snap.get('algorithm')!r}")
        legacy = sorted({"M", "gram_inv"} & snap.keys())
        if legacy:
            raise ValidationError(f"snapshot stores {legacy} of the former P/M/G^-1 state, "
                                  f"which this version cannot resume; replay the stream")
        obj = object.__new__(cls)
        obj.lam = check_lambda(scalar_field(snap, "lambda"))
        obj.delta = check_delta(scalar_field(snap, "delta"))
        n = scalar_field(snap, "n", int)
        obj.dict = Dictionary.from_snapshot(snap)
        k = obj.dict.size
        if n < k:
            raise ValidationError(f"snapshot n = {n} is below its center count {k}")
        obj.n = n
        obj._alpha = snapshot_array(snap, "alpha", (k,))
        if scalar_field(snap, "resume_exact", bool, False):
            Pb = snapshot_array(snap, "P", (k, k))
            if not np.array_equal(Pb, Pb.T):
                raise ValidationError("snapshot 'P' is not symmetric")
            Y = (snapshot_array(snap, "P_pending", (None, k)) if "P_pending" in snap
                 else np.empty((0, k)))
            m = Y.shape[0]
            if m > (PENDING - 1 if k > PENDING else 0):
                raise ValidationError(f"snapshot 'P_pending' has {m} rows; at most "
                                      f"{PENDING - 1} can be pending, and none at K <= {PENDING}")
            cap = obj.dict._W.shape[0]  # P_b's capacity grows with W's
            obj._Pb, obj._Y, obj._m = np.empty((cap, cap)), np.empty((PENDING + BLOCK, cap)), m
            obj._Pb[:k, :k] = Pb
            obj._Y[:m, :k] = Y
            try:  # a P that is not positive definite loads but could not train
                np.linalg.cholesky(obj.P)
            except np.linalg.LinAlgError:
                raise ValidationError("snapshot P = 'P' - 'P_pending'^T 'P_pending' "
                                      "is not positive definite") from None
            obj.b = snapshot_array(snap, "b", (k,))
            obj._alpha = None
        else:
            obj._Pb = obj._Y = obj.b = None
            obj._m = 0
        return obj
