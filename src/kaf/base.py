"""Shared per-step record, the one reader of outside numbers, the one
bulk-run driver, and buffer and float formatting helpers.

Every number from outside is read by `convert`'s rule: a real number that
is not a bool, with nothing parsed from a string. `convert` reads a scalar
field or hyperparameter; `as_floats` reads the entries of anything else, for
`as_input`, `as_points`, `check_target` and `snapshot_array` to check shape
and finiteness. Validation happens once at public API boundaries; internal
code assumes finite, correctly shaped float64 data. Filters do not time
themselves: a caller that wants per-step cost times its own `step` calls.

`run_stream` drives both kernel filters' bulk `run`: it validates the
stream, owns the output arrays, the blocks of BLOCK samples, the tail
through `step` and the BLAS thread pin, and each filter gives it only its
block step.

Buffers grown by doubling (`reserve`) are allocated by `aligned_empty`, on
a 64-byte boundary, where an AVX-512 load reads a whole cache line. One
started at a capacity that is a multiple of 8, as KLMS's are, stays one, so
each row of a (rows, capacity) buffer starts on the boundary too. A copy
or an unpickled filter gets its KLMS and center-store buffers back on the
boundary through `realigned`. The square buffers of `reserve_square` keep
numpy's own alignment.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from ._blas import one_thread
from .exceptions import DimensionMismatchError, NonFiniteInputError, ValidationError

_FLOAT64 = np.dtype(np.float64)


class StepOutput(NamedTuple):
    """One filter iteration: prediction, a-priori error, and bookkeeping.

    `e` is always the a-priori error d - y, with y computed from the
    coefficients as they were before this step's update.
    """

    y: float
    e: float
    grew: bool
    dict_size: int


def as_floats(x, what: str) -> np.ndarray:
    """`x` as a float64 array, each entry read by `convert`'s rule. A float64
    ndarray is returned as it is, another int, uint or float one converted,
    and any other dtype refused. A list, object array or scalar pays a scan
    of its entries' types (numpy would read True as 1.0 and "0.5" as 0.5).
    A refusal, a ragged nesting included, raises ValidationError naming `what`."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    kind = x.dtype.kind if isinstance(x, np.ndarray) else "O"
    if kind in "iuf":
        return np.asarray(x, dtype=np.float64)
    try:
        if kind == "O" and all(issubclass(t, numbers.Real) and t is not bool
                               for t in set(map(type, np.array(x, dtype=object).flat))):
            return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} is not a real number or an array of them: {x!r:.40}")


def as_input(u, dim: int | None = None) -> np.ndarray:
    """`u` read by `as_floats` as a finite 1-D vector (a scalar is a vector of
    length 1), optionally of length `dim`; the caller's float64 vector itself
    when it is one."""
    v = as_floats(u, "input")
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatchError(f"input must be a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(
            f"incompatible vectors: expected length {dim}, got {v.shape[0]}"
        )
    # v . v is finite only if every entry is: one BLAS call (np.vdot, unlike np.dot,
    # warns of no overflow), and the exact test when an entry past 1.3e154 overflows it.
    if not (math.isfinite(np.vdot(v, v)) or np.isfinite(v).all()):
        raise NonFiniteInputError("input vector contains non-finite entries")
    return v


def as_points(points, dim: int | None = None) -> np.ndarray:
    """`points` read by `as_floats` as a finite 2-D (n, L) array, n >= 1 (a
    vector is n points of dimension 1)."""
    x = as_floats(points, "point set")
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise DimensionMismatchError(
            f"expected a nonempty sequence of vectors, got shape {x.shape}"
        )
    if dim is not None and x.shape[1] != dim:
        raise DimensionMismatchError(
            f"incompatible vectors: expected dimension {dim}, got {x.shape[1]}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteInputError("point set contains non-finite entries")
    return x


# Samples a filter's bulk `run` hands its block step at once.
# - KRLS screens them with one kernel matrix and caps a block update's rows
#   j at it. The update's one Cholesky factorization borders S with B while
#   K + 1 <= j, and with I beyond. Measured at j = 64, one CPU and one BLAS
#   thread, building M and factoring it, against a Cholesky of S then
#   numpy's LU solve of R Z = B (Z agreeing to 4e-16 relative): at K = 14,
#   74 against 125 us (the I border 196 us); at K = 500, the I border
#   314 us, the LU solve 1052 us and the B border 4861 us. At K = 100 the
#   I border already takes 231 us against the B border's 317 us.
# - KLMS sums them against the stored centers in one `Centers.sums` call,
#   and the terms between them in one (BLOCK, BLOCK) kernel block. Over a
#   16000-sample `nonlinear_sysid` run at L = 3 and sigma = 1 (an AVX-512
#   Xeon; one CPU, one BLAS thread, tiles of 1024 columns, median of seven
#   alternations), blocks of 32, 64 and 128 took 0.185, 0.173 and 0.169 s,
#   the last two within the runs' spread of a few percent; the step loop
#   takes 0.335 s.
BLOCK = 64


def run_stream(filt, U, d, dim: int, block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feed the samples (U[i], d[i]) through `filt` in order, as `filt.step`
    on each would, and return arrays of their y, e and dict_size: the one
    driver of both kernel filters' bulk `run`.

    U and d of different lengths, or without one, raise
    DimensionMismatchError. U is an (n, dim) array, or n scalars when
    dim = 1, and both are read by `as_floats`. Up to the first non-finite
    sample, the validated rows X[lo:hi] and targets t[lo:hi] go in blocks
    of BLOCK samples to `block(X, t, y, size, step)`. It writes the y and
    dict_size of the samples it takes and hands any sample j to `step(j)`,
    which steps the validated row X[j], t[j] through `filt.step`, writes
    its outputs and returns whether it grew the filter. Then e = t - y for
    all of those samples in one op, exactly `step`'s d - y. The samples
    from the first non-finite one on, or all of a stream that is not an
    (n, dim) array of real numbers, go through `filt.step`, which raises
    where the step loop would. The whole run holds numpy's bundled
    OpenBLAS at one thread (`_blas.one_thread`), so the blocks' level-3
    and LAPACK calls, like the kernels, read the same at every BLAS thread
    count.

    Failure rule: a block step commits each sample whole. Where its sums,
    factorization or results fail (a floor it cannot check in bulk, a
    coefficient that is not finite), it steps those samples one by one
    from the state before them, so a floor violation or a divergence
    raises from `step` at the step loop's sample, with the state the step
    loop leaves. On a raise, `filt.n` counts the samples committed.
    """
    try:
        n, m = len(d), len(U)
    except TypeError:
        raise DimensionMismatchError("run takes a sequence of inputs and one of targets, "
                                     f"got {type(U).__name__}, {type(d).__name__}") from None
    if m != n:
        raise DimensionMismatchError(f"run got {m} inputs for {n} targets")
    try:
        X, t = as_floats(U, "inputs"), as_floats(d, "targets")
    except ValidationError:  # ragged or not numbers: all go through `step`
        X = t = np.empty((0, 0))
    if X.ndim == 1:
        X = X[:, None]  # scalar inputs
    stop = 0
    if X.shape == (n, dim) and t.shape == (n,):
        bad = np.flatnonzero(~(np.isfinite(X).all(axis=1) & np.isfinite(t)))
        stop = int(bad[0]) if bad.size else n
    y, e, size = np.empty(n), np.empty(n), np.empty(n, dtype=int)

    def step(i: int, u, target) -> bool:
        out = filt.step(u, target)
        y[i], e[i], size[i] = out.y, out.e, out.dict_size
        return out.grew

    with one_thread():
        for lo in range(0, stop, BLOCK):
            hi = min(lo + BLOCK, stop)
            block(X[lo:hi], t[lo:hi], y[lo:hi], size[lo:hi],
                  lambda j: step(lo + j, X[lo + j], t[lo + j]))
        if stop:  # t is (n,) only then
            e[:stop] = t[:stop] - y[:stop]
        for i in range(stop, n):
            step(i, U[i], d[i])
    return y, e, size


def snapshot_array(snap: dict, key: str, shape: tuple) -> np.ndarray:
    """A finite, C-ordered float64 copy of snapshot field `key`, read by
    `as_floats` as a step input is.

    `shape` gives the expected shape; a None entry accepts any length.
    """
    if key not in snap:
        raise ValidationError(f"snapshot lacks {key!r}")
    x = np.array(as_floats(snap[key], f"snapshot {key!r}"), order="C")
    if x.ndim != len(shape) or any(w is not None and n != w for n, w in zip(x.shape, shape)):
        want = tuple("*" if w is None else w for w in shape)
        raise ValidationError(f"snapshot {key!r} has shape {x.shape}, expected {want}")
    if not np.isfinite(x).all():
        raise ValidationError(f"snapshot {key!r} contains non-finite entries")
    return x


def as_object(obj, what: str) -> dict:
    """`obj` when it is a JSON object; anything else raises ValidationError naming `what`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, got {type(obj).__name__}")
    return obj


def check_object(obj, keys, what: str, required=()) -> dict:
    """`obj` when it is a JSON object with every `required` key and no key
    outside `keys`; anything else raises ValidationError naming `what`."""
    unknown = set(as_object(obj, what)) - set(keys)
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{what} lacks {key!r}")
    return obj


def scalar_field(obj: dict, key: str, kind: type = float, default=None,
                 where: str = "snapshot"):
    """Field `key` of a snapshot or config object, read by `convert`.

    A missing field takes `default` when one is given. A missing required
    field, or a value `convert` refuses, raises ValidationError naming
    `where` the field was read from.
    """
    value = obj.get(key, default)
    if value is None:
        raise ValidationError(f"{where} lacks {key!r}")
    return convert(value, kind, f"{where} {key!r}")


def convert(value, kind: type, what: str):
    """`value` as a `kind` (float, int, bool or str) under the one field rule:
    a float or int takes a number that is not a bool (numpy scalars count),
    an int only an integral one, a flag only a bool, a str only a string, and
    nothing is parsed from a string. Anything else raises ValidationError
    naming `what`."""
    try:
        if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, str if kind is str else numbers.Real):
            raise TypeError
        converted = kind(value)
        if kind is int and converted != value:  # int(2.5) truncates
            raise ValueError
        return converted
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} is not a {kind.__name__}: {value!r}") from None


# Square matrices grown in place stay exact-size, and so C-contiguous, up to
# this size: numpy spends about a microsecond more per call on a strided
# view, which at small K outweighs the copy that each growth then makes.
EXACT_SIZE_MAX = 32


# Byte boundary of `aligned_empty`'s first entry: one cache line, and the
# width of an AVX-512 load, which reads a whole line only from there.
ALIGN = 64


def aligned_empty(shape) -> np.ndarray:
    """An uninitialized C-ordered float64 array of `shape` whose first entry
    sits on an ALIGN-byte boundary: a view into an `np.empty` that has
    ALIGN / 8 more entries. A (rows, cols) one with cols a multiple of 8
    starts every row on the boundary too."""
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    raw = np.empty(size + ALIGN // 8)
    skip = -raw.ctypes.data % ALIGN // 8
    return raw[skip:skip + size].reshape(shape)


def realigned(state: dict, *keys: str) -> dict:
    """`state`, an object's attributes as a copy or an unpickling restores
    them, with the array under each of `keys` (unless None) moved into an
    `aligned_empty` buffer of its shape: numpy restores an array on its own
    16-byte alignment. For a `__setstate__`."""
    state = dict(state)
    for key in keys:
        if state[key] is not None:
            buf = aligned_empty(state[key].shape)
            buf[...] = state[key]
            state[key] = buf
    return state


def reserve(buf: np.ndarray, n: int, axis: int = 0, count: int = 1) -> np.ndarray:
    """`buf`, whose leading n entries along `axis` are in use, with room for
    indices n..n+count-1 there: `buf` itself, or, when they do not fit, an
    `aligned_empty` buffer holding the entries in use, its size along
    `axis` doubled until they do. So appending count entries at once leaves
    the capacity that appending them one at a time does."""
    cap = buf.shape[axis]
    if n + count <= cap:
        return buf
    while cap < n + count:
        cap *= 2
    shape = list(buf.shape)
    shape[axis] = cap
    grown = aligned_empty(tuple(shape))
    used = (slice(None),) * axis + (slice(n),)
    grown[used] = buf[used]
    return grown


def reserve_square(buf: np.ndarray, n: int) -> np.ndarray:
    """`buf`, whose leading (n, n) block is in use, with room for row and
    column n: `buf` itself, or a new buffer holding that block and zeros,
    exact-size while n < EXACT_SIZE_MAX and n + n // 8 square beyond.

    Growing by an eighth rather than doubling keeps at most 1/9 of each
    row idle, where a doubled buffer leaves up to half idle, spreads the
    rows in use over up to twice the memory pages and, at a capacity of
    512, puts them 4 KiB apart. A product over the block in use, as a KRLS
    step makes with W and P_b, then reads fewer pages; the price is a
    copy at every 1/8 of growth instead of every doubling."""
    if n < buf.shape[0]:
        return buf
    cap = n + 1 if n < EXACT_SIZE_MAX else n + n // 8
    grown = np.zeros((cap, cap))
    grown[:n, :n] = buf[:n, :n]
    return grown


def check_target(d) -> float:
    """`d` as a finite float, read by `as_floats` (a float, numpy's float64 included, at once):
    a list, tuple or array of ndim >= 1 raises DimensionMismatchError, anything else not a
    real number ValidationError, and NaN or inf NonFiniteInputError."""
    if not isinstance(d, float):
        if isinstance(d, (list, tuple)) or np.ndim(d):
            raise DimensionMismatchError(f"target is not a scalar: {d!r:.40}")
        d = as_floats(d, "target")
    d = float(d)
    if not math.isfinite(d):
        raise NonFiniteInputError("target value is not finite")
    return d


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (byte-stable CSV output)."""
    return "%.17g" % float(x)
