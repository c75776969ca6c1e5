"""Shared per-step record, input validation, and float formatting helpers.

Validation happens once at public API boundaries; internal code assumes
finite, correctly shaped float64 data. Filters do not time themselves: a
caller that wants per-step cost times its own `step` calls, as
`experiments.run_trial` and `bench.run_bench` do.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, NonFiniteInputError, ValidationError


@dataclass(frozen=True)
class StepOutput:
    """One filter iteration: prediction, a-priori error, and bookkeeping.

    `e` is always the a-priori error d - y, with y computed from the
    coefficients as they were before this step's update.
    """

    y: float
    e: float
    grew: bool
    dict_size: int


def as_input(u, dim: int | None = None) -> np.ndarray:
    """Coerce `u` to a finite 1-D float64 vector, optionally checking length;
    a string, a None entry or a ragged nesting raises ValidationError."""
    try:
        v = np.asarray(u, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"input is not an array of numbers: {u!r:.40}") from None
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatchError(f"input must be a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(
            f"incompatible vectors: expected length {dim}, got {v.shape[0]}"
        )
    if not np.isfinite(v).all():
        raise NonFiniteInputError("input vector contains non-finite entries")
    return v


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Coerce a point set to a finite 2-D (n, L) float64 array, as `as_input`
    coerces a vector."""
    try:
        x = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"point set is not an array of numbers: {points!r:.40}") from None
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


def snapshot_array(snap: dict, key: str, shape: tuple) -> np.ndarray:
    """A finite, C-ordered float64 copy of snapshot field `key`.

    `shape` gives the expected shape; a None entry accepts any length. An
    entry that is a bool or a string is refused, as `convert` refuses it
    (numpy would read True as 1.0 and "0.5" as 0.5).
    """
    try:
        value = snap[key]
        x = np.array(value, dtype=np.float64, order="C")
        if not all(issubclass(t, numbers.Real) and t is not bool
                   for t in set(map(type, np.array(value, dtype=object).flat))):
            raise TypeError("an entry is not a number")
    except KeyError:
        raise ValidationError(f"snapshot lacks {key!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"snapshot {key!r} is not a numeric array: {exc}") from None
    if x.ndim != len(shape) or any(w is not None and n != w for n, w in zip(x.shape, shape)):
        want = tuple("*" if w is None else w for w in shape)
        raise ValidationError(f"snapshot {key!r} has shape {x.shape}, expected {want}")
    if not np.isfinite(x).all():
        raise ValidationError(f"snapshot {key!r} contains non-finite entries")
    return x


def check_object(obj, keys, what: str, required=()) -> dict:
    """`obj` when it is a JSON object with every `required` key and no key
    outside `keys`; anything else raises ValidationError naming `what`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - set(keys)
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


def reserve(buf: np.ndarray, n: int, axis: int = 0) -> np.ndarray:
    """`buf`, whose leading n entries along `axis` are in use, with room for
    index n there: `buf` itself, or, when it is full, a buffer of twice the
    size along `axis` holding the entries in use."""
    if n < buf.shape[axis]:
        return buf
    shape = list(buf.shape)
    shape[axis] = 2 * n
    grown = np.empty(shape)
    used = (slice(None),) * axis + (slice(n),)
    grown[used] = buf[used]
    return grown


def reserve_square(buf: np.ndarray, n: int) -> np.ndarray:
    """`buf`, whose leading (n, n) block is in use, with room for row and
    column n: `buf` itself, or a new buffer holding that block and zeros,
    exact-size while n < EXACT_SIZE_MAX and of twice the capacity beyond."""
    if n < buf.shape[0]:
        return buf
    cap = n + 1 if n < EXACT_SIZE_MAX else 2 * n
    grown = np.zeros((cap, cap))
    grown[:n, :n] = buf[:n, :n]
    return grown


def append_row(buf: np.ndarray, n: int, value) -> np.ndarray:
    """Write `value` as row n of `buf`, which holds n rows, doubling its
    capacity first when it is full. Returns the buffer, new if it grew."""
    if n == buf.shape[0]:
        buf = reserve(buf, n)
    buf[n] = value
    return buf


def check_target(d) -> float:
    """`d` as a finite float: a list or array raises DimensionMismatchError,
    anything else that is not a number ValidationError."""
    try:
        d = float(d)
    except (TypeError, ValueError):
        if isinstance(d, (list, tuple, np.ndarray)):
            raise DimensionMismatchError(f"target is not a scalar: {d!r:.40}") from None
        raise ValidationError(f"target is not a number: {d!r:.40}") from None
    if not math.isfinite(d):
        raise NonFiniteInputError("target value is not finite")
    return d


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (byte-stable CSV output)."""
    return "%.17g" % float(x)
