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

`run` feeds a stream through the same recursion in blocks of BLOCK samples.
Each sample's prediction is its sum against the centers stored before the
block plus the terms of the block's earlier samples. The first part is one
`Centers.sums` call for the whole block, the shifted sum taken in tiles of
`kernels.TILE` stored columns; the second comes from one kernel block of
the block's inputs, by explicit differences, taken in sub-blocks of SUB
samples: one product adds the terms of the earlier sub-blocks, and the
sub-block's own terms are added as floats, in index order, in a short
loop: y_j, then e_j = d_j - y_j and c_j = eta e_j. The block's terms are
then committed in one `_extend`, which writes each buffer once and leaves
what `_append` on each term in order, the step's write, would. Each term
keeps `Centers.sum`'s bound, but the additions fall in another order, so y
moves from the step loop's by roundoff only; e = d - y and c = eta e hold
exactly, and dict_size is the step loop's.

The coefficients, like the store's buffers, sit on 64-byte boundaries
(`base.aligned_empty`). `from_snapshot` replays the saved terms through
the same `_extend`, so a loaded filter holds the saved one's buffers,
capacities and gate, and continues bit for bit.

Failure rule, as KRLS's `run`: the samples up to the first non-finite one
go in blocks; that one and those after it, or all of a stream that is not
an (n, dim) array of real numbers, go through `step`, which raises where
the step loop would. A block whose sums the store refuses (no shifted
columns, or a sample past the gate) or whose coefficients are not all
finite is stepped sample by sample from the state before it, so a divergent
eta raises from `step` at the step loop's sample. Step and block alike
commit each sample whole, and `n` counts the samples committed.
"""

from __future__ import annotations

import math

import numpy as np

from . import _blas
from .base import (StepOutput, aligned_empty, as_input, as_object, as_stream, check_target,
                   convert, reserve, scalar_field, snapshot_array)
from .exceptions import NumericalError, ValidationError
from .kernels import Centers, KernelSpec, check_spec, kernel_block

# Samples `run` takes at once: their sums against the stored centers are one
# `Centers.sums` call, and the terms between them one (BLOCK, BLOCK) kernel
# block. Over a 16000-sample `nonlinear_sysid` run at L = 3 and sigma = 1
# (an AVX-512 Xeon; one CPU, one BLAS thread, tiles of 1024 columns, median
# of seven alternations), blocks of 32, 64 and 128 took 0.185, 0.173 and
# 0.169 s, the last two within the runs' spread of a few percent; the step
# loop takes 0.335 s.
BLOCK = 64

# Samples of a block whose terms between them are added as floats: the
# terms of the block's earlier sub-blocks come in one product per sub-block.
# On the run above, sub-blocks of 4, 8 and 16 took 0.179, 0.173 and 0.175 s,
# and the whole block's 2016 terms as floats 0.194 s.
SUB = 8


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
        self._coeffs = aligned_empty(16)  # amortized doubling, a term per entry
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

    @_blas.one_thread()  # the tiles' products
    def run(self, U, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Process the samples (U[i], d[i]) in order, as `step` on each would,
        and return arrays of their y, e and dict_size. U is an (n, dim) array,
        or n scalars when dim = 1. The samples go in blocks (see the module
        docstring) up to the first non-finite one, and from there on, or for a
        stream that is not an (n, dim) array of real numbers, through `step`,
        which raises where the step loop would. On a raise, `n` counts the
        samples committed."""
        n, X, t, stop = as_stream(U, d, self.dim)
        y, e = np.empty(n), np.empty(n)
        size = np.arange(self.n + 1, self.n + n + 1)

        def step(i: int) -> None:
            y[i], e[i] = self.step(U[i], d[i])[:2]

        for lo in range(0, stop, BLOCK):
            hi = min(lo + BLOCK, stop)
            out = self._block(X[lo:hi], t[lo:hi])
            if out is None:
                for i in range(lo, hi):
                    step(i)
            else:
                y[lo:hi] = out
                e[lo:hi] = t[lo:hi] - out
        for i in range(stop, n):
            step(i)
        return y, e, size

    def _block(self, X: np.ndarray, t: np.ndarray) -> np.ndarray | None:
        """The outputs y of the validated samples (X[j], t[j]), taken as their
        steps would take them, the terms eta (t_j - y_j) committed in one
        `_extend`; None, with the filter untouched, where the store refuses
        the sums or a coefficient is not finite."""
        eta = self.eta
        with np.errstate(over="ignore", invalid="ignore"):
            y = self._centers.sums(X, self._coeffs[:self.n])
            if y is None:
                return None
            K = kernel_block(self.spec, X, X)
            c = np.empty(t.shape[0])
            for lo in range(0, t.shape[0], SUB):
                hi = min(lo + SUB, t.shape[0])
                if lo:
                    y[lo:hi] += K[lo:hi, :lo] @ c[:lo]
                # the sub-block's own terms, as floats: c_j waits for y_j
                ys, ts, cs = y[lo:hi].tolist(), t[lo:hi].tolist(), []
                for j, row in enumerate(K[lo:hi, lo:hi].tolist()):
                    for k in range(j):
                        ys[j] += row[k] * cs[k]
                    cs.append(eta * (ts[j] - ys[j]))
                y[lo:hi], c[lo:hi] = ys, cs
        if not np.isfinite(c).all():
            return None
        self._extend(X, c)
        return y

    def _append(self, u: np.ndarray, c: float) -> None:
        """Append the term c k(u, .): its center and its coefficient, as
        `step` does. A c that is not finite raises NumericalError before any
        write."""
        if not math.isfinite(c):
            raise NumericalError(f"KLMS coefficient eta * e = {c!r} is not finite: "
                                 "the expansion has diverged (eta too large)")
        n = self._centers.size
        self._coeffs = reserve(self._coeffs, n)
        self._coeffs[n] = c
        self._centers.append(u)

    def _extend(self, X: np.ndarray, c: np.ndarray) -> None:
        """Append the terms c_j k(x_j, .) for the rows x_j of X and the finite
        c, in one write of each buffer, bit for bit as `_append` on each in
        order (see `Centers.extend`)."""
        n, m = self._centers.size, c.shape[0]
        self._coeffs = reserve(self._coeffs, n, count=m)
        self._coeffs[n:n + m] = c
        self._centers.extend(X)

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
        # Replay the terms in one `_extend` into a new store: the buffers
        # match the saved filter's, and resumed steps match bit for bit.
        obj._centers = Centers(obj.spec, centers.shape[1], shift=True)
        obj._extend(centers, coeffs)
        return obj
