"""ALD center dictionary: the centers and their recursively updated Gram inverse.

The dictionary holds the ordered centers c_1..c_K admitted so far and G^-1,
the inverse of the Gram matrix G[i, j] = k(c_i, c_j), maintained
incrementally via the block-inverse identity, so admission tests cost O(K^2)
instead of O(K^3). G itself is not kept: no step needs it, and `gram`
recomputes it from the centers for verification and diagnostics.

A Dictionary is a single-writer value: `grow` needs exclusive access, while
`ald_test` and `kernel_vector` are read-only.

The public `ald_test` and `grow` validate their input vector (and `delta`)
and delegate to `_ald` and `_grow`, which take a vector already checked by
the caller: `KrlsAldReg.step` validates once and calls those directly.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple

import numpy as np

from .base import as_input, snapshot_array
from .exceptions import (
    NearSingularGrowthError,
    NumericalError,
    ValidationError,
)
from .kernels import KernelSpec, gram as full_gram, kernel_self, kernel_vector

# Residuals below this cannot be admitted: the inverse update divides by d2.
GROWTH_FLOOR = 1e-12

# The snapshot identity check accepts ||G G^-1 - I||_inf up to IDENTITY_FACTOR
# times the roundoff scale K eps ||G||_inf ||inv(G)||_inf, where inv(G) is a
# dense inverse of the G rebuilt from the centers, and never less than
# IDENTITY_FLOOR. Inverses built by `grow` reach 0.03-33x that scale at
# delta = 0.01 (up to ~300x at delta = 1e-4); one largest entry of G^-1 off by
# a relative 1e-6 reads >= 8000x.
IDENTITY_FACTOR = 1000.0
IDENTITY_FLOOR = 1e-8

# Rows per block of `rank_one_update`: each block's outer-product temporary
# stays small enough to be cache-resident (64 x 800 doubles = 400 KiB).
ROW_BLOCK = 64


def rank_one_update(A: np.ndarray, x: np.ndarray, y: np.ndarray, *,
                    mul: float | None = None, div: float | None = None,
                    subtract: bool = False) -> None:
    """A += outer(x, y) in place, ROW_BLOCK rows at a time.

    The term is outer(x, y) * mul or outer(x, y) / div when given, and is
    subtracted instead with `subtract`. Each entry is rounded exactly as in
    the whole-matrix expression, e.g. A - np.outer(x, y), so the result is
    bit-identical to it without its K x K temporaries. The block term is the
    broadcast product np.outer itself computes.
    """
    for i in range(0, A.shape[0], ROW_BLOCK):
        rows = A[i:i + ROW_BLOCK]
        term = x[i:i + ROW_BLOCK, None] * y
        if mul is not None:
            term *= mul
        if div is not None:
            term /= div
        if subtract:
            rows -= term
        else:
            rows += term


class AldResult(NamedTuple):
    """Outcome of the approximate-linear-dependency test for one input.

    `a` solves G a = h for the current Gram matrix G and kernel vector
    h_i = k(c_i, u); `d2` is the squared residual of approximating the
    feature vector of u by the span of the current centers, clamped to 0
    (the raw value is kept in `d2_raw`). `admitted` is d2 > delta. `kuu` is
    k(u, u), which d2 is computed from and the KRLS growth step reuses.
    """

    a: np.ndarray
    d2: float
    h: np.ndarray
    admitted: bool
    d2_raw: float
    kuu: float


class Dictionary:
    """Ordered center set with incrementally maintained Gram inverse.

    State: the centers and `gram_inv` (G^-1). `gram` is computed on demand.
    """

    def __init__(self, spec: KernelSpec, first_center):
        c = as_input(first_center)
        k11 = kernel_self(spec, c)
        if not math.isfinite(k11) or k11 <= GROWTH_FLOOR:
            raise ValidationError(
                f"degenerate first center: k(u, u) = {k11!r} is not invertible"
            )
        self.spec = spec
        self.gram_inv = np.array([[1.0 / k11]])
        self._centers = np.empty((4, c.shape[0]))
        self._centers[0] = c
        self._size = 1

    @property
    def size(self) -> int:
        return self._size

    @property
    def dim(self) -> int:
        return self._centers.shape[1]

    @property
    def centers(self) -> np.ndarray:
        """Read-only (K, L) view of the admitted centers, in admission order."""
        view = self._centers[: self._size]
        view.flags.writeable = False
        return view

    @property
    def gram(self) -> np.ndarray:
        """G[i, j] = k(c_i, c_j), recomputed from the centers on every access."""
        return full_gram(self.spec, self._centers[: self._size])

    def kernel_vector(self, u: np.ndarray) -> np.ndarray:
        """h_i = k(c_i, u) against every stored center."""
        return kernel_vector(self.spec, self._centers[: self._size], u)

    def ald_test(self, u, delta: float) -> AldResult:
        """Test whether u's feature vector is within residual `delta` of the span.

        Does not mutate the dictionary. Raises NumericalError when the
        maintained Gram inverse produces non-finite results (ill-conditioned
        Gram matrix), reporting a condition-number diagnostic.
        """
        uu = as_input(u, dim=self.dim)
        if np.isnan(delta) or delta < 0:
            raise ValidationError(f"delta must be a nonnegative real, got {delta!r}")
        return self._ald(uu, delta)

    def _ald(self, uu: np.ndarray, delta: float) -> AldResult:
        """`ald_test` for a validated length-`dim` float64 vector and delta."""
        h = self.kernel_vector(uu)
        a = self.gram_inv @ h
        kuu = kernel_self(self.spec, uu)
        d2_raw = float(kuu - h @ a)
        if not (math.isfinite(d2_raw) and np.isfinite(a).all()):
            cond = float(np.linalg.cond(self.gram))
            raise NumericalError(
                f"ALD test produced non-finite values; Gram matrix is "
                f"ill-conditioned (cond ~ {cond:.3e}, size {self._size})"
            )
        d2 = max(d2_raw, 0.0)
        return AldResult(a=a, d2=d2, h=h, admitted=d2 > delta, d2_raw=d2_raw, kuu=kuu)

    def grow(self, u, ald: AldResult) -> None:
        """Admit u as a new center, extending the Gram inverse.

        Requires an admitted AldResult computed against the current contents.
        Refuses near-singular extensions (d2 below GROWTH_FLOOR) before any
        mutation, so a raised error leaves the dictionary untouched.
        """
        self._grow(as_input(u, dim=self.dim), ald)

    def _grow(self, uu: np.ndarray, ald: AldResult) -> None:
        """`grow` for a validated length-`dim` float64 vector."""
        if not ald.admitted:
            raise ValidationError("grow requires an admitted ALD result")
        k = self._size
        if ald.a.shape[0] != k:
            raise ValidationError(
                f"stale ALD result: computed for size {ald.a.shape[0]}, dictionary has {k}"
            )
        if ald.d2 < GROWTH_FLOOR:
            raise NearSingularGrowthError(
                f"refusing near-singular dictionary extension: d2 = {ald.d2:.3e} "
                f"< {GROWTH_FLOOR:.0e}"
            )

        a, d2 = ald.a, ald.d2

        # Block-inverse of [[G, h], [h^T, k(u, u)]] with Schur complement d2,
        # reusing a = G^-1 h from the admission test.
        new_inv = np.empty((k + 1, k + 1))
        new_inv[:k, :k] = self.gram_inv
        rank_one_update(new_inv[:k, :k], a, a, div=d2)
        new_inv[:k, k] = -a / d2
        new_inv[k, :k] = -a / d2
        new_inv[k, k] = 1.0 / d2

        if k == self._centers.shape[0]:
            bigger = np.empty((2 * k, self._centers.shape[1]))
            bigger[:k] = self._centers
            self._centers = bigger
        self._centers[k] = uu
        self.gram_inv = new_inv
        self._size = k + 1

    # -- serialization ----------------------------------------------------

    def centers_checksum(self) -> str:
        c = np.ascontiguousarray(self._centers[: self._size])
        digest = hashlib.sha256()
        digest.update(repr(c.shape).encode())
        digest.update(c.tobytes())
        return digest.hexdigest()

    def to_snapshot(self, store_matrices: bool = False) -> dict:
        snap = {
            "kernel": self.spec.to_json(),
            "centers": self._centers[: self._size].tolist(),
            "centers_sha256": self.centers_checksum(),
        }
        if store_matrices:
            snap["gram_inv"] = self.gram_inv.tolist()
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Dictionary":
        """Rebuild from a snapshot; G^-1 is recomputed unless stored.

        The stored center checksum is always verified: a snapshot without one
        is rejected. A "gram" entry, which older snapshots carry, is ignored,
        since G follows from the checked centers. G^-1 must pass an identity
        check scaled to its roundoff (see IDENTITY_FACTOR), so the inverse a
        large or ill-conditioned dictionary was grown with still loads.
        """
        spec = KernelSpec.from_json(snap.get("kernel"))
        centers = snapshot_array(snap, "centers", (None, None))
        if centers.shape[0] == 0:
            raise ValidationError("snapshot centers must be a nonempty list of vectors")
        d = cls(spec, centers[0])
        d._centers = centers
        d._size = centers.shape[0]
        want = snap.get("centers_sha256")
        if want is None:
            raise ValidationError("snapshot lacks the centers_sha256 checksum")
        if d.centers_checksum() != want:
            raise ValidationError("snapshot center checksum mismatch")
        gram = d.gram
        stored = snapshot_array(snap, "gram_inv", gram.shape) if "gram_inv" in snap else None
        try:
            dense_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"snapshot Gram matrix cannot be inverted: {exc}") from None
        d.gram_inv = dense_inv if stored is None else stored
        # The scale comes from G and its dense inverse, which follow from the
        # checked centers, never from the stored inverse under test.
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.linalg.norm(gram @ d.gram_inv - np.eye(d._size), ord=np.inf)
        tol = max(IDENTITY_FLOOR, IDENTITY_FACTOR * d._size * np.finfo(float).eps
                  * np.linalg.norm(gram, ord=np.inf) * np.linalg.norm(dense_inv, ord=np.inf))
        if not (math.isfinite(tol) and resid <= tol):
            raise NumericalError(
                f"snapshot Gram inverse fails the identity check "
                f"(residual {resid:.3e} > {tol:.3e})"
            )
        return d
