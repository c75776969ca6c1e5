"""ALD center dictionary: the centers and an inverse Cholesky factor of their Gram matrix.

The dictionary holds the ordered centers c_1..c_K admitted so far and W, a
lower-triangular K x K matrix with W G W^T = I for the Gram matrix
G[i, j] = k(c_i, c_j). The whitened kernel vector l = W h(u), h_i = k(c_i, u),
gives the squared ALD residual d2 = k(u, u) - l . l and is the feature the
KRLS recursion regresses on. Admitting u appends the row [-a^T, 1] / sqrt(d2),
a = W^T l = G^-1 h, to W; no existing row changes. `_grow` admits the first
center too, from the empty factor. W lives in a buffer that grows by an
eighth when full (`base.reserve_square`), so most admissions copy no K x K
array; the property `W` is a read-only (K, K) view. Every product with W,
l = W h, l^T W, a screen's H W^T and KRLS's b W, goes through `_blas`. Up
to K = W_BLOCK each is one numpy product. Past it, OpenBLAS's triangular
kernels read W's lower triangle only: `_ald` forms l = W h by one dtrmv in
place on h, `_grow` forms l^T W by one dtrmv in place on W's new row, and a
screen forms H W^T by one dtrmm. Where numpy's BLAS does not export them,
`_blas._tril_dot` and `_dot_tril` read W by blocks of W_BLOCK rows,
W[lo:hi, :hi]: its lower triangle and the upper triangles of the diagonal
blocks, about (K^2 + K W_BLOCK)/2 entries of K^2. G itself is not kept:
`gram` recomputes it from the centers for verification and diagnostics.

The centers live in one `kernels.Centers`, coordinate-major, one per
column of an (L, capacity) buffer that doubles along its columns when full.
A kernel vector then reads one contiguous row per coordinate, bit for bit
`kernels.kernel_vector`'s. The property `centers` is their read-only (K, L)
view; a snapshot and its checksum see the same values and bytes.

From input dimension SHIFT_DIM_MIN on, a Gaussian dictionary asks its store
for shifted columns too, one [c_i - c_1; ||c_i - c_1||^2; 1] per center,
appended with the center by `_grow`. The store's `sum`, behind KRLS's
`predict`, goes through them while their rounding gate passes, and through
the kernel vector otherwise: below that dimension, for a polynomial kernel,
or where the gate refuses. The ALD test, `AldScreen` and every step keep
the explicit differences, since the screen's roundoff bound relies on
`kernel_vector` matching `kernel_block` bit for bit.

W and the shifted columns depend on the centers alone, so a snapshot stores
only the centers and their checksum: `from_snapshot` rebuilds both by
admitting the centers again in order, the same float operations that grew
them, so they are bit-identical.

A Dictionary is a single-writer value: `grow` needs exclusive access, while
`ald_test` and `kernel_vector` are read-only.

The public `ald_test` and `grow` validate their input vector (and `delta`,
by `check_delta`, as `KrlsAldReg` does) and delegate to `_ald` and `_grow`,
which take a vector already checked by the caller: `KrlsAldReg.step`
validates once and calls those directly.
`AldScreen` is `_ald` for a block of checked inputs at once, up to a
roundoff bound, for `KrlsAldReg.run`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _blas
from .base import as_input, as_object, convert, reserve, reserve_square, snapshot_array
from .exceptions import NearSingularGrowthError, NumericalError, ValidationError
from .kernels import (Centers, KernelSpec, _overflow_quiet, check_spec, kernel_block,
                      kernel_diag, kernel_self)

# Residuals below this cannot be admitted: the new row of W divides by sqrt(d2).
GROWTH_FLOOR = 1e-12

# Safety factor of `AldScreen`'s slack over its roundoff bound.
SCREEN_SAFETY = 2.0

# Smallest input dimension at which a Gaussian dictionary keeps shifted
# columns (`kernels.Centers`) and KRLS's `predict` sums through them. The
# explicit differences take three passes over K values per coordinate (a
# difference, its square and a sum), the shifted sum one product over L + 2
# rows and a clamp, so the shifted sum gains with L. Timed against the
# explicit sum in alternation on one CPU and one BLAS thread (median speed
# ratio of 11 alternations of 1500 queries each, at K from 16 to 2000):
# 1.04-1.35x at L = 3, growing with K (1.26x at K = 500); 0.94-1.01x at
# L = 2; 0.67-0.90x at L = 1.
SHIFT_DIM_MIN = 3

def check_lambda(lam) -> float:
    """The ridge regularizer lambda, a finite float >= 0 by the field rule;
    anything else raises ValidationError."""
    lam = convert(lam, float, "lambda")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lambda must be a finite real >= 0, got {lam!r}")
    return lam


def check_delta(delta) -> float:
    """The ALD threshold, a float >= 0 by the field rule (inf admits no new
    center); anything else raises ValidationError."""
    delta = convert(delta, float, "delta")
    if np.isnan(delta) or delta < 0:
        raise ValidationError(f"delta must be a nonnegative real, got {delta!r}")
    return delta


class AldResult(NamedTuple):
    """Outcome of the approximate-linear-dependency test for one input.

    `l` = W h is the whitened kernel vector, for h_i = k(c_i, u); the
    coefficients of u's best approximation in the span of the centers are
    a = W^T l = G^-1 h. `d2` is the squared residual of that approximation,
    k(u, u) - l . l, clamped to 0 (the raw value is kept in `d2_raw`).
    `admitted` is d2 > delta.
    """

    l: np.ndarray
    d2: float
    admitted: bool
    d2_raw: float


class Dictionary:
    """Ordered center set with an incrementally grown inverse Cholesky factor.

    State: the centers, `W` (W G W^T = I, lower triangular) and the row sums
    of |W|, which `AldScreen` reads; W's rows never change, so each sum is
    taken once, when its row is appended. `gram` is computed on demand.
    """

    def __init__(self, spec: KernelSpec, first_center):
        self.spec = check_spec(spec)
        c = as_input(first_center)
        k11 = kernel_self(spec, c)
        if not math.isfinite(k11) or k11 <= GROWTH_FLOOR:
            raise ValidationError(
                f"degenerate first center: k(u, u) = {k11!r} is not invertible"
            )
        self._W = np.empty((0, 0))
        self._row_l1 = np.empty(4)  # sum_j |W_ij| of each row i
        self._centers = Centers(spec, c.shape[0], shift=c.shape[0] >= SHIFT_DIM_MIN)
        self._grow(c, self._ald(c, 0.0))

    @property
    def size(self) -> int:
        return self._centers.size

    @property
    def dim(self) -> int:
        return self._centers.dim

    @property
    def centers(self) -> np.ndarray:
        """Read-only (K, L) view of the admitted centers, in admission order."""
        return self._centers.points

    @property
    def W(self) -> np.ndarray:
        """Read-only (K, K) view of the factor, in its capacity buffer."""
        k = self.size
        view = self._W[:k, :k]
        view.flags.writeable = False
        return view

    @property
    def gram(self) -> np.ndarray:
        """G[i, j] = k(c_i, c_j), recomputed from the centers on every access."""
        return kernel_block(self.spec, self.centers, self.centers)

    def kernel_vector(self, u: np.ndarray) -> np.ndarray:
        """h_i = k(c_i, u) against every stored center, bit-identical to
        `kernels.kernel_vector(spec, centers, u)`."""
        return self._centers.kernel_vector(u)

    def ald_test(self, u, delta: float) -> AldResult:
        """Test whether u's feature vector is within residual `delta` of the span.

        Does not mutate the dictionary. Raises NumericalError when the result
        is not finite: naming the input's kernel values when they overflow (a
        polynomial kernel), else the Gram matrix's condition number.
        """
        return self._ald(as_input(u, dim=self.dim), check_delta(delta))

    def _ald(self, uu: np.ndarray, delta: float) -> AldResult:
        """`ald_test` for a validated length-`dim` float64 vector and delta."""
        h = self._centers.kernel_vector(uu)
        k_uu = kernel_self(self.spec, uu)
        # Gaussian values lie in (0, 1]; a polynomial one can overflow
        if self.spec.family != "gaussian" and not (math.isfinite(k_uu) and np.isfinite(h).all()):
            raise NumericalError(
                f"ALD test produced non-finite values: the input's kernel values are not "
                f"finite (k(u, u) = {k_uu!r}, max |k(c_i, u)| = {float(np.abs(h).max())!r})")
        k = self.size
        l = _blas.tril_dot(self._W, k, h)
        d2_raw = float(k_uu - l @ l)
        # l . l is a sum of squares, so d2_raw is finite only if every l_i is.
        if not math.isfinite(d2_raw):
            cond = float(np.linalg.cond(self.gram))
            raise NumericalError(
                f"ALD test produced non-finite values; Gram matrix is "
                f"ill-conditioned (cond ~ {cond:.3e}, size {k})"
            )
        d2 = max(d2_raw, 0.0)
        return AldResult(l, d2, d2 > delta, d2_raw)

    def grow(self, u, ald: AldResult) -> None:
        """Admit u as a new center, appending a row to W.

        Requires an admitted AldResult computed against the current contents.
        Refuses near-singular extensions (d2 below GROWTH_FLOOR) before any
        mutation, so a raised error leaves the dictionary untouched.
        """
        if not isinstance(ald, AldResult):
            raise ValidationError("grow requires an admitted ALD result")
        self._grow(as_input(u, dim=self.dim), ald)

    def _grow(self, uu: np.ndarray, ald: AldResult) -> None:
        """`grow` for a validated length-`dim` float64 vector."""
        if not ald.admitted:
            raise ValidationError("grow requires an admitted ALD result")
        k = self.size
        if ald.l.shape[0] != k:
            raise ValidationError(
                f"stale ALD result: computed for size {ald.l.shape[0]}, dictionary has {k}"
            )
        if ald.d2 < GROWTH_FLOOR:
            raise NearSingularGrowthError(
                f"refusing near-singular dictionary extension: d2 = {ald.d2:.3e} "
                f"< {GROWTH_FLOOR:.0e}"
            )

        # The new row whitens [h; k(u, u)]: it is orthogonal, under G, to the
        # old rows, and has unit norm because d2 is the Schur complement.
        # W gains a row in its capacity buffer, whose entries above the
        # diagonal are never written and stay 0.
        s = math.sqrt(ald.d2)
        W = reserve_square(self._W, k)
        W[k, :k] = ald.l  # l^T W is formed in place here past W_BLOCK
        W[k, :k] = -_blas.dot_tril(W[k, :k], W, k) / s
        W[k, k] = 1.0 / s

        self._row_l1 = reserve(self._row_l1, k)
        self._row_l1[k] = np.abs(W[k, :k + 1]).sum()
        self._W = W
        self._centers.append(uu)

    # -- serialization ----------------------------------------------------

    def to_snapshot(self) -> dict:
        return {
            "kernel": self.spec.to_json(),
            "centers": self.centers.tolist(),
            "centers_sha256": _checksum(self.centers),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Dictionary":
        """Rebuild from a snapshot's kernel and centers, replaying their admission.

        The center checksum must be present and match before anything else
        is built. W is then grown as the filter grew it: from the first center,
        each later one is admitted in order through `_ald` and `_grow`, so it
        is bit-identical to the saved factor. A center the replay cannot admit
        (d2 below GROWTH_FLOOR, as for a duplicate) raises
        NearSingularGrowthError. Stored "W", "gram" and "gram_inv" entries are
        ignored: they follow from the checked centers.
        """
        spec = KernelSpec.from_json(as_object(snap, "snapshot").get("kernel"))
        centers = snapshot_array(snap, "centers", (None, None))
        if centers.shape[0] == 0:
            raise ValidationError("snapshot centers must be a nonempty list of vectors")
        want = snap.get("centers_sha256")
        if want is None:
            raise ValidationError("snapshot lacks the centers_sha256 checksum")
        if _checksum(centers) != want:
            raise ValidationError("snapshot center checksum mismatch")
        d = cls(spec, centers[0])
        for c in centers[1:]:
            # Admit unconditionally: the center was admitted when it was saved,
            # and `_grow` still refuses a residual below GROWTH_FLOOR.
            d._grow(c, d._ald(c, 0.0)._replace(admitted=True))
        return d


class AldScreen:
    """`Dictionary._ald` for a validated (m, dim) block of inputs U at once,
    up to roundoff: two products, H = k(U, centers) and L = H W^T, whose
    rows are the inputs' l, give d2 = k(u, u) - |l|^2 per row, unclamped.

    `_ald` sums the same terms in other orders, one product per input, so its
    d2_raw for a row differs from `d2` by roundoff. The slack of `rejects`
    bounds that difference. Each of the two lies within 2 eps n (k(u, u) + h_max
    sum_i |l_i| r_i) of the exact value, where:

    - n = K + p (dim + 8) + 1 counts the rounding steps, for p the
      polynomial degree (1 for the Gaussian);
    - r_i is the i-th row sum of |W|, which the dictionary keeps with W;
    - h_max = sqrt(k(u, u) max_j k(c_j, c_j)) bounds |h| (Cauchy-Schwarz).

    The slack is SCREEN_SAFETY times the sum of the two bounds, so a row
    with d2 < delta - slack is one that `_ald` does not admit (`rejects`).
    A polynomial kernel value past the float range makes its row's d2 or
    slack inf or NaN without a numpy warning; `rejects` does not clear that
    row, and `_ald` refuses it.

    `extend` follows the dictionary's growth by one center. W's old rows do
    not change, so L gains the column of W's new row and d2 drops by its
    square: the same bound, with K one larger. H and L sit in buffers with
    room for one admission per input, so `extend` writes one column of each
    and copies neither; `L` is the view of the columns in use.
    """

    def __init__(self, dic: Dictionary, U: np.ndarray):
        self._dic = dic
        self._U = U
        m, k = U.shape[0], dic.size
        H = kernel_block(dic.spec, U, dic.centers)
        self._H = np.empty((m, k + m))
        self._H[:, :k] = H
        self._L = np.empty((m, k + m))
        self.L = self._L[:, :k]
        self._k_uu = kernel_diag(dic.spec, U)
        with _overflow_quiet(dic.spec):
            _blas.tril_rows(H, dic._W, k, self.L)
            self.d2 = self._k_uu - np.einsum("ij,ij->i", self.L, self.L)
            self._lw = np.abs(self.L) @ dic._row_l1[:dic.size]
        self._k_cc = float(kernel_diag(dic.spec, dic.centers).max())
        self._p = dic.spec.degree if dic.spec.family == "polynomial" else 1

    def rejects(self, delta: float) -> np.ndarray:
        """Mask of the rows that `_ald` does not admit at threshold delta."""
        n = self.L.shape[1] + self._p * (self._U.shape[1] + 8) + 1
        with _overflow_quiet(self._dic.spec):
            h_max = np.sqrt(self._k_uu * self._k_cc)
            slack = (4 * SCREEN_SAFETY * np.finfo(float).eps * n) * (self._k_uu + h_max * self._lw)
            return self.d2 < delta - slack

    def extend(self) -> None:
        """Add the center the dictionary admitted last, and W's new row."""
        k = self._dic.size
        c, w = self._dic.centers[-1:], self._dic.W[-1]
        self._H[:, k - 1:k] = kernel_block(self._dic.spec, self._U, c)
        with _overflow_quiet(self._dic.spec):
            l = self._H[:, :k] @ w
            self.d2 -= l * l
            self._lw += np.abs(l) * self._dic._row_l1[k - 1]
        self._L[:, k - 1] = l
        self.L = self._L[:, :k]
        self._k_cc = max(self._k_cc, float(kernel_diag(self._dic.spec, c)[0]))


def _checksum(centers: np.ndarray) -> str:
    """SHA-256 of a (K, L) center array's shape and float64 bytes, in C order."""
    import hashlib  # only snapshots hash: `import kaf` does not load it
    c = np.ascontiguousarray(centers)
    digest = hashlib.sha256()
    digest.update(repr(c.shape).encode())
    digest.update(c.tobytes())
    return digest.hexdigest()
