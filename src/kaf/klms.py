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

`run` feeds a stream through the same recursion, in blocks of `base.BLOCK`
samples handed to `_block` by the one bulk driver, `base.run_stream`, whose
docstring gives the failure rule. Each sample's prediction is its sum
against the centers stored before the block plus the terms of the block's
earlier samples. The first part is one
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
exactly, and dict_size is the step loop's. A block whose sums the store
refuses (no shifted columns, or a sample past the gate) or whose
coefficients are not all finite is stepped sample by sample from the state
before it, so a divergent eta raises from `step` at the step loop's sample.

The coefficients, like the store's buffers, sit on 64-byte boundaries
(`base.aligned_empty`). `from_snapshot` replays the saved terms through
the same `_extend`, so a loaded filter holds the saved one's buffers,
capacities and gate, and continues bit for bit; a copied or unpickled
filter is realigned (`__setstate__`) and continues bit for bit too.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (BLOCK, StepOutput, aligned_empty, as_input, as_object, check_target,
                   convert, realigned, reserve, run_stream, scalar_field, snapshot_array)
from .exceptions import NumericalError, ValidationError
from .kernels import Centers, KernelSpec, check_spec, kernel_block

# Samples of a block whose terms between them are added as floats: the
# terms of the block's earlier sub-blocks come in one product per sub-block.
# On the 16000-sample run that timed `base.BLOCK`, sub-blocks of 4, 8 and 16
# took 0.179, 0.173 and 0.175 s, and the whole block's 2016 terms as floats
# 0.194 s.
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

    def __setstate__(self, state: dict) -> None:
        """A copied or unpickled filter, its coefficients back on the 64-byte
        boundary (its store realigns its own buffers)."""
        self.__dict__.update(realigned(state, "_coeffs"))

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

    def run(self, U, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Process the samples (U[i], d[i]) in order, as `step` on each would,
        and return arrays of their y, e and dict_size, through
        `base.run_stream` and `_block`."""
        return run_stream(self, U, d, self.dim, self._block)

    def _block(self, X: np.ndarray, t: np.ndarray, y: np.ndarray, size: np.ndarray,
               step) -> None:
        """`run_stream`'s block step: write the outputs y and dict_size of the
        validated samples (X[j], t[j]), taken as their steps would take them,
        and commit the terms eta (t_j - y_j) in one `_extend`. Where the store
        refuses the sums or a coefficient is not finite, the filter is left
        untouched and every sample goes to `step`."""
        eta, n, m = self.eta, self.n, t.shape[0]
        c = np.empty(m)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = self._centers.sums(X, self._coeffs[:n])
            if sums is not None:
                K = kernel_block(self.spec, X, X)
                for lo in range(0, m, SUB):
                    hi = min(lo + SUB, m)
                    if lo:
                        sums[lo:hi] += K[lo:hi, :lo] @ c[:lo]
                    # the sub-block's own terms, as floats: c_j waits for y_j
                    ys, ts, cs = sums[lo:hi].tolist(), t[lo:hi].tolist(), []
                    for j, row in enumerate(K[lo:hi, lo:hi].tolist()):
                        for k in range(j):
                            ys[j] += row[k] * cs[k]
                        cs.append(eta * (ts[j] - ys[j]))
                    sums[lo:hi], c[lo:hi] = ys, cs
        if sums is None or not np.isfinite(c).all():
            for j in range(m):
                step(j)
            return
        self._extend(X, c)
        y[:] = sums
        size[:] = np.arange(n + 1, n + m + 1)

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
