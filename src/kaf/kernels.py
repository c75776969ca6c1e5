"""Mercer kernels: evaluation and Gram matrices.

Two kernel families are supported:

    gaussian     k(u, v) = exp(-||u - v||^2 / sigma^2)
    polynomial   k(u, v) = (u . v + 1)^degree

Note the Gaussian width enters as sigma^2, not the also-common 2*sigma^2
convention; callers using the latter should pass sigma * sqrt(2).

Every kernel value is formed one way, by `_kernel_rows`: the terms
t_j = (u_j - v_j)^2 (Gaussian) or u_j v_j (polynomial) are summed in index
order, ((t_0 + t_1) + t_2) + ..., whatever the CPU's SIMD width. The
Gaussian sum is divided by -sigma^2 and passed to `exp` (for sigma < 1 it
is first clamped at 1e308 sigma^2, past which `exp` gives 0 either way, so
the quotient stays in the float range); the polynomial base
b = u . v + 1 is raised to its degree as (b * b) * b ..., never by `pow`,
whose numpy scalar and array paths differ in the last bit. So, bit for bit,

    kernel_vector(spec, C, u) == kernel_block(spec, u[None], C)[0]

for any memory layout of C, `kernel_eval(spec, u, v)` (which is
`kernel_block`'s 1 x 1 entry) equals the matching entry of both,
`kernel_self` and `kernel_diag` equal the diagonal, and `gram` is exactly
symmetric.

`Centers` holds the centers of a kernel expansion sum_i a_i k(c_i, u) for
both kernel filters, KRLS's dictionary and KLMS, and is the one place that
sums one. Where its owner asks for it, a Gaussian store also keeps shifted
columns, which give every exponent from distances about the first center in
one matrix-vector product: the one other Gaussian formula, with its own
error bound and a gate that hands the sum back to the explicit differences
where that bound is too loose. KLMS asks for them at every input dimension,
a KRLS dictionary from `dictionary.SHIFT_DIM_MIN` on, for its `predict`.
`Centers.sums` takes the same shifted sum for a block of queries at once,
one tile of TILE columns at a time, for KLMS's bulk `run`: each tile's
exponents are written into one (block, TILE) buffer, allocated once per
call, and `Centers.extend` writes the block's centers back in one column
block of each buffer. A store's buffers sit on 64-byte boundaries
(`base.aligned_empty`), row by row.

All evaluation is pure and stateless, safe for unsynchronized concurrent
use, apart from a `Centers`' `append` and `extend`, which need exclusive
access.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .base import aligned_empty, as_input, as_points, check_object, convert, realigned, reserve
from .exceptions import ValidationError

FAMILIES = ("gaussian", "polynomial")

# Largest bound on an exponent's rounding error (see `Centers.sum`) for
# which the shifted sum is taken. The bound stays below 3e-13 on the dim-3
# `nonlinear_sysid` streams at sigma = 1 (q_i/sigma^2 up to about 50) and
# below 4e-11 on `kaf bench`'s dim-128 stream (about 350).
SHIFT_TOL = 1e-10

# Columns of the shifted buffer per tile of `Centers.sums`: a 64-row block's
# (64, TILE) exponents then take 512 KiB, a quarter of a 2 MiB L2. Over a
# 16000-sample KLMS `run` at L = 3 and sigma = 1 (an AVX-512 Xeon with 2 MiB
# of L2 per core; one CPU, one BLAS thread, median of seven alternations),
# tiles of 512, 1024 and 2048 columns took 0.178, 0.173 and 0.177 s, of
# 4096 0.224 s, and the whole (64, n) block 0.272 s; the step loop took
# 0.335 s.
TILE = 1024


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its hyperparameters.

    `sigma` is the Gaussian width (same units as the input coordinates) and
    is ignored by the polynomial family; `degree` is the polynomial order
    and is ignored by the Gaussian family.
    """

    family: str
    sigma: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"kernel.family must be one of {FAMILIES}, got {self.family!r}"
            )
        object.__setattr__(self, "sigma", convert(self.sigma, float, "kernel.sigma"))
        object.__setattr__(self, "degree", convert(self.degree, int, "kernel.degree"))
        if self.family == "gaussian":
            # sigma^2 must neither underflow to 0 (k(u, u) would be 0/0 =
            # NaN) nor overflow to inf (a distance past the float range
            # would give inf/inf = NaN). Any sigma between is formed,
            # however small: a value whose exponent leaves the float range
            # is 0, as its exp is.
            if not (self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf):
                raise ValidationError("kernel.sigma must be a positive real whose square is "
                                      "a positive finite float (about 1.6e-162 to 1.3e154)")
        else:
            if self.degree < 1:
                raise ValidationError("kernel.degree must be an integer >= 1")

    def to_json(self) -> dict:
        return {"family": self.family, "sigma": self.sigma, "degree": self.degree}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelSpec":
        return cls(**check_object(obj, ("family", "sigma", "degree"), "kernel spec",
                                  required=("family",)))


def check_spec(spec) -> KernelSpec:
    """`spec` when it is a KernelSpec, else ValidationError: every public kernel argument's check."""
    if not isinstance(spec, KernelSpec):
        raise ValidationError(f"kernel must be a KernelSpec, got {type(spec).__name__}")
    return spec


def kernel_eval(spec: KernelSpec, u, v) -> float:
    """Evaluate k(u, v): `kernel_block`'s 1 x 1 entry. Symmetric in its
    arguments; Gaussian values lie in (0, 1]."""
    check_spec(spec)
    uu = as_input(u)
    vv = as_input(v, dim=uu.shape[0])
    return float(kernel_block(spec, uu[None], vv[None])[0, 0])


def kernel_self(spec: KernelSpec, u: np.ndarray) -> float:
    """k(u, u), bit-identical to kernel_eval(spec, u, u). Hot path: u assumed validated.

    The Gaussian value is exp(-0.0 / sigma^2), which is exactly 1.0.
    """
    if spec.family == "gaussian":
        return 1.0
    return float(kernel_diag(spec, u[None])[0])


def kernel_diag(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """k(x, x) for every row x of X, bit-identical to `kernel_self`. Hot path:
    X assumed validated."""
    if spec.family == "gaussian":
        return np.ones(X.shape[0])
    return _kernel_rows(spec, X.T, X.T)


def kernel_vector(spec: KernelSpec, centers: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k(c_i, u) for every row c_i of the (K, L) `centers`, bit-identical to
    `kernel_block(spec, u[None], centers)[0]`. Fastest when the rows of
    `centers.T` are contiguous, as a `Centers`' `points` are. Hot path:
    inputs assumed validated."""
    return _kernel_rows(spec, centers.T, u)


def kernel_block(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """K[i, j] = k(x_i, z_j) for the rows of X and Z. Hot path: inputs assumed validated.

    One (m, n) term per coordinate, never an (m, n, L) array. The Gaussian's
    explicit differences keep K(x, x) exactly symmetric, which the expanded
    ||x||^2 + ||z||^2 - 2 x.z form does not guarantee."""
    return _kernel_rows(spec, Z.T[:, None, :], X.T[:, :, None])


def _kernel_rows(spec: KernelSpec, rows: np.ndarray, u) -> np.ndarray:
    """k(c, u) in the module docstring's one order, from coordinate rows:
    rows[j], the j-th coordinates of the points c, broadcasts against u[j].

    A polynomial value past the float range is inf, or NaN where infinite
    terms cancel, without a numpy warning: its callers refuse it."""
    if spec.family == "gaussian":
        return _rows(spec, rows, u)
    with _overflow_quiet(spec):
        return _rows(spec, rows, u)


def _overflow_quiet(spec: KernelSpec):
    """numpy's error state for `spec`'s kernel values: overflow and NaN pass
    without a warning for the polynomial family, whose values can exceed
    the float range; nothing changes for the Gaussian's, in (0, 1]."""
    if spec.family == "gaussian":
        return contextlib.nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


def _rows(spec: KernelSpec, rows: np.ndarray, u) -> np.ndarray:
    """`_kernel_rows` under the caller's numpy error state."""
    gaussian = spec.family == "gaussian"
    term = np.subtract if gaussian else np.multiply
    if not rows.shape[0]:  # L = 0: every value is k(0, 0) = 1
        return np.ones(np.broadcast_shapes(rows.shape[1:], np.shape(u)[1:]))
    # One point's (L, K) terms in one pass: at L = 3 and K <= 200 a call then
    # takes about 1.5 us less than with a pass per coordinate.
    if rows.shape[0] > 1 and np.ndim(u) == 1:
        t = term(rows, u[:, None])
        if gaussian:
            t *= t
        acc = t[0]
        for j in range(1, rows.shape[0]):
            acc += t[j]
    else:  # L = 1, or a block (kernel_block): one term per coordinate
        acc = term(rows[0], u[0])
        if gaussian:
            acc *= acc
        if rows.shape[0] > 1:
            t = np.empty_like(acc)
            for j in range(1, rows.shape[0]):
                term(rows[j], u[j], out=t)
                if gaussian:
                    t *= t
                acc += t
    if gaussian:
        s2 = spec.sigma * spec.sigma
        if s2 < 1.0:  # the quotient could overflow (and warn); exp of -1e308 is 0 too
            np.minimum(acc, s2 * 1e308, out=acc)
        # x / -s^2 is the float -x / s^2, one pass fewer
        acc /= -s2
        return np.exp(acc, out=acc)
    acc += 1.0
    power = acc
    for _ in range(spec.degree - 1):
        power = power * acc
    return power


class Centers:
    """The centers c_1..c_K of a kernel expansion sum_i a_i k(c_i, u), and
    that sum.

    The centers sit coordinate-major, one per column of an (L, capacity)
    buffer that doubles along its columns when full (`base.reserve`, axis
    1), so `kernel_vector` reads one contiguous row per coordinate and is
    bit for bit `kernels.kernel_vector(spec, points, u)`. `points` is their
    read-only (K, L) transpose.

    A Gaussian store built with `shift` also keeps shifted columns, for the
    sum in one matrix-vector product. Squared distances are taken about the
    first center c_1. A buffer D of shape (L + 2, capacity) holds one column
    per center,

        D[:, i] = [c_i - c_1; q_i; 1],    q_i = ||c_i - c_1||^2,

    and with w = u - c_1 the vector v = [w (2/sigma^2); -1/sigma^2; -||w||^2/sigma^2]
    gives every exponent in one product:

        (v^T D)_i = -(q_i + ||w||^2 - 2 (c_i - c_1) . w) / sigma^2
                  = -||c_i - u||^2 / sigma^2.

    A clamp at 0, an in-place exp and the dot with the coefficients follow,
    with no K x L difference array. Distances about c_1 rather than the
    origin keep the rounding error proportional to the spread of the data,
    not to its offset, and the first column (c_1 - c_1 = 0, q_1 = 0) gives
    exactly -||w||^2/sigma^2. That error still grows with the spread: where
    its bound exceeds SHIFT_TOL, the gate refuses, and `sum` takes
    `kernel_vector`'s explicit differences instead, whose values past the
    float range are 0, as they are exactly. A polynomial store, or one
    built without `shift`, keeps no D and always sums explicitly.

    The owner appends every center, the first included, in order through
    `append`, or a block of them through `extend`, which leaves what
    `append` on each would, so replaying the centers rebuilds both buffers,
    their capacities and the gate bit for bit. Both buffers start at a
    capacity of 16 on a 64-byte boundary (`base.aligned_empty`) and keep
    it, every row included, as they double, and a copy or an unpickled
    store gets it back (`__setstate__`). `sum`, `sums` and
    `kernel_vector` write nothing; `append` and `extend` need exclusive
    access.
    """

    def __init__(self, spec: KernelSpec, dim: int, shift: bool):
        self.spec = spec
        self.dim = dim
        self.size = 0
        self._C = aligned_empty((dim, 16))
        self._shifted = (aligned_empty((dim + 2, 16)) if shift and spec.family == "gaussian"
                         else None)
        self._s2 = spec.sigma * spec.sigma
        # 6 (dim + 5) eps / sigma^2, inf without shifted columns, where the
        # factor 2/sigma^2 overflows, or once a stored q_i times it exceeds
        # SHIFT_TOL: the shifted sum is taken only where ||w||^2 times this
        # is at most SHIFT_TOL (see `sum`)
        self._scale = (3 * (dim + 5) * 2.0 ** -53 * (2.0 / self._s2)
                       if self._shifted is not None else math.inf)

    def __setstate__(self, state: dict) -> None:
        """A copied or unpickled store, its buffers back on the 64-byte boundary."""
        self.__dict__.update(realigned(state, "_C", "_shifted"))

    @property
    def points(self) -> np.ndarray:
        """Read-only (K, L) view of the centers, in order: the transpose of
        the buffer's used columns."""
        view = self._C[:, :self.size].T
        view.flags.writeable = False
        return view

    def kernel_vector(self, u: np.ndarray) -> np.ndarray:
        """h_i = k(c_i, u) for validated u, bit-identical to
        `kernel_vector(spec, points, u)`."""
        return _kernel_rows(self.spec, self._C[:, :self.size], u)

    def append(self, u: np.ndarray) -> None:
        """Add the validated center u, and its shifted column if kept."""
        n = self.size
        self._C = reserve(self._C, n, axis=1)
        self._C[:, n] = u
        if self._shifted is not None:
            if not n:  # c_1, contiguous: u - C[:, 0] reads a strided column, at twice the cost
                self._c1 = u.copy()
            w = u - self._c1
            ww = float(np.vdot(w, w))  # np.vdot, unlike @, warns of no overflow
            D = self._shifted = reserve(self._shifted, n, axis=1)
            D[:-2, n] = w
            D[-2, n] = ww
            D[-1, n] = 1.0
            if not ww * self._scale <= SHIFT_TOL:
                self._scale = math.inf
        self.size = n + 1

    def extend(self, X: np.ndarray) -> None:
        """Add the rows of the validated (m, L) block X as centers, in one
        column block of each buffer, which `append` on each row in order
        would leave bit for bit: the same columns (each ||w||^2 by `np.vdot`
        on its row, as `append` takes it), capacities and gate."""
        n, m = self.size, X.shape[0]
        self._C = reserve(self._C, n, axis=1, count=m)
        self._C[:, n:n + m] = X.T
        if self._shifted is not None:
            if not n:
                self._c1 = X[0].copy()
            W = X - self._c1
            ww = np.array([np.vdot(w, w) for w in W])
            D = self._shifted = reserve(self._shifted, n, axis=1, count=m)
            D[:-2, n:n + m] = W.T
            D[-2, n:n + m] = ww
            D[-1, n:n + m] = 1.0
            if not (ww * self._scale <= SHIFT_TOL).all():  # one far row shuts it for good
                self._scale = math.inf
        self.size = n + m

    def sum(self, u: np.ndarray, coeffs: np.ndarray) -> float:
        """sum_i coeffs_i k(c_i, u) over the centers, for validated u: from
        the shifted columns where they are kept and the gate passes, else
        `float(np.vdot(kernel_vector(u), coeffs))`, overflow quiet where the
        gate refused.

        With w = u - c_1 and h = v^T D clamped at 0, against
        -||c_i - u||^2/sigma^2 h_i is off by at most

            2 (L + 5) eps (q_i + ||w||^2 + ||c_i - c_1|| ||w||) / sigma^2,

        eps = 2^-53, besides a relative 2 eps of the whole exponent from
        rounding 1/sigma^2; the ||w||^2 term carries v's separate rounding
        of ||w||^2/sigma^2. A kernel value moves by at most as much.
        Since ||c_i - c_1|| ||w|| <= (q_i + ||w||^2)/2, the bound is at most
        (q_i + ||w||^2) `_scale` / 2, so the shifted sum is taken only while
        ||w||^2 `_scale` and every q_i `_scale` are at most SHIFT_TOL; then
        ||w||^2 and q_i are below 3e4 sigma^2 and nothing overflows.
        """
        if self._shifted is None:
            h = self.kernel_vector(u)
        else:
            w = u - self._c1
            ww = float(np.vdot(w, w))
            if ww * self._scale <= SHIFT_TOL:  # False at ww = 0 once _scale is inf
                s2 = self._s2
                v = np.empty(w.shape[0] + 2)
                np.multiply(w, 2.0 / s2, out=v[:-2])
                v[-2] = -1.0 / s2
                v[-1] = -ww / s2
                h = v @ self._shifted[:, :self.size]
                np.minimum(h, 0.0, out=h)
                np.exp(h, out=h)
            else:
                with np.errstate(over="ignore"):
                    h = self.kernel_vector(u)
        return float(np.vdot(h, coeffs))  # np.vdot, unlike @, warns of no overflow

    def sums(self, X: np.ndarray, coeffs: np.ndarray) -> np.ndarray | None:
        """sum_i coeffs_i k(c_i, x) over the centers for each row x of the
        validated (m, L) block X, from the shifted columns, under the
        caller's numpy error state; None where the store keeps no shifted
        columns or the gate refuses some row, as it would refuse `sum`'s.

        Row j of V is the v that `sum` builds for x_j, but for ||w||^2,
        summed by `np.einsum` rather than `np.vdot` (the two can differ in
        the last bit). The exponents V D are taken TILE columns of D at a
        time: E = V D[:, tile], written into one aligned buffer that every
        tile reuses, clamped at 0, exponentiated in place, then
        E coeffs[tile]. So every term keeps `sum`'s bound; only the order of
        the additions differs.
        """
        if self._shifted is None:
            return None
        W = X - self._c1
        ww = np.einsum("ij,ij->i", W, W)
        if not (ww * self._scale <= SHIFT_TOL).all():
            return None
        s2 = self._s2
        V = np.empty((X.shape[0], X.shape[1] + 2))
        np.multiply(W, 2.0 / s2, out=V[:, :-2])
        V[:, -2] = -1.0 / s2
        np.divide(ww, -s2, out=V[:, -1])
        out = np.zeros(X.shape[0])
        buf = aligned_empty((X.shape[0], min(TILE, self._shifted.shape[1])))
        for lo in range(0, self.size, TILE):
            hi = min(lo + TILE, self.size)
            E = np.matmul(V, self._shifted[:, lo:hi], out=buf[:, :hi - lo])
            np.minimum(E, 0.0, out=E)
            np.exp(E, out=E)
            out += E @ coeffs[lo:hi]
        return out


def kernel_matrix(spec: KernelSpec, x, z) -> np.ndarray:
    """Cross-kernel matrix K[i, j] = k(x_i, z_j)."""
    check_spec(spec)
    xx = as_points(x)
    return kernel_block(spec, xx, as_points(z, dim=xx.shape[1]))


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix of a point set (PSD up to eigenvalue roundoff)."""
    return kernel_matrix(spec, points, points)

