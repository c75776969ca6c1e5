"""Shared per-step record, input validation, and float formatting helpers.

Validation happens once at public API boundaries; internal code assumes
finite, correctly shaped float64 data. Filters do not time themselves: a
caller that wants per-step cost times its own `step` calls, as
`experiments.run_trial` and `bench.run_bench` do.
"""

from __future__ import annotations

import math
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
    """Coerce `u` to a finite 1-D float64 vector, optionally checking length."""
    v = np.asarray(u, dtype=np.float64)
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
    """Coerce a point set to a finite 2-D (n, L) float64 array."""
    x = np.asarray(points, dtype=np.float64)
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

    `shape` gives the expected shape; a None entry accepts any length.
    """
    try:
        x = np.array(snap[key], dtype=np.float64, order="C")
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


def scalar_field(obj: dict, key: str, kind: type = float, default=None,
                 where: str = "snapshot"):
    """Field `key` of a snapshot or config object, converted by `kind` (float, int or bool).

    A missing field takes `default` when one is given. A missing required
    field, or a value `kind` cannot convert, raises ValidationError naming
    `where` the field was read from.
    """
    value = obj.get(key, default)
    if value is None:
        raise ValidationError(f"{where} lacks {key!r}")
    try:
        if kind is bool and not isinstance(value, bool):
            raise TypeError  # bool("false") is True: no conversion for flags
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where} {key!r} is not a {kind.__name__}: {value!r}") from None


def check_target(d) -> float:
    d = float(d)
    if not math.isfinite(d):
        raise NonFiniteInputError("target value is not finite")
    return d


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (byte-stable CSV output)."""
    return "%.17g" % float(x)
