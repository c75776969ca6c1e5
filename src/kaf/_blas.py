"""Symmetric and triangular BLAS kernels for KRLS's K^2 products.

Past K = W_BLOCK a KRLS step's cost is memory traffic through two K x K
matrices: the dictionary's lower-triangular factor W and the base P_b of
P (see `krls`). numpy offers general products only, which read the whole
square. The level-2 and level-3 BLAS symmetric and triangular kernels
(Dongarra et al., 1988 and 1990) read one triangle in one call, and the
OpenBLAS that numpy's wheels bundle exports them. This module calls them
through ctypes, on (K, K) matrices held in the leading block of a square
C-order capacity buffer:

    tril_dot  W x in place on x            l = W h
    dot_tril  x W in place on x            l^T W, b W
    tril_rows B W^T in place on B          a screen's L = H W^T
    sym_dot   P_b f                        KRLS's gain
    rows_sym  L P_b                        a block update
    sym_flush P_b -= Y^T Y, in place       the flush

`sym_dot`, `rows_sym` and `sym_flush` read and write only P_b's lower
triangle there, so past W_BLOCK that triangle is P_b's state: its strict
upper triangle goes stale at the first flush and is never read again.

The library is looked up next to the numpy package (`numpy.libs`, or
`numpy/.dylibs`) and its symbols bound at the first product past W_BLOCK,
so `import kaf` binds nothing. They bind all or none. With none (numpy
linked to MKL or Accelerate, numpy 1.x, another build of OpenBLAS) every
product takes the reference path: one numpy product over the (K, K)
block, which reads W and P_b whole. That is exact for W, whose buffer is
0 above its diagonal (`base.reserve_square` zero-fills it and
`Dictionary._grow` writes only up to the diagonal), and P_b is kept
exactly symmetric there, which meets the lower-triangle contract too. Up
to K = W_BLOCK every product is the reference one, whatever the library,
bit for bit the product numpy gave before the kernels.

Each kernel call runs at one OpenBLAS thread, set for the calling thread
and restored after the call: at two threads dsymv and dtrmv sum in
another order, and outputs would depend on the thread count. For the same
reason `one_thread` runs a whole body, such as a `kaf` command or a
filter's bulk `run` (`base.run_stream`), with numpy's OpenBLAS at one
thread: the technique of threadpoolctl
(https://github.com/joblib/threadpoolctl), without it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from typing import NamedTuple

import numpy as np

# The size past which the kernels take over. In a KRLS step loop the
# kernels switched on from K = 64 or 96 were slower than numpy's products
# below 128, where W and P_b still fit in L2 cache.
W_BLOCK = 128

# CBLAS enum values (cblas.h)
_ROW_MAJOR, _NO_TRANS, _TRANS, _LOWER, _NON_UNIT, _RIGHT = 101, 111, 112, 122, 131, 142

# The CBLAS entry points of numpy's ILP64 OpenBLAS (scipy-openblas64), and
# their argument kinds: "e" a CBLAS enum (C int), "i" a 64-bit dimension or
# stride, "d" a double, "p" a pointer.
_SIGNATURES = {
    "symv": ("scipy_cblas_dsymv64_", "eeidpipidpi"),
    "trmv": ("scipy_cblas_dtrmv64_", "eeeeipipi"),
    "syrk": ("scipy_cblas_dsyrk64_", "eeeiidpidpi"),
    "symm": ("scipy_cblas_dsymm64_", "eeeiidpipidpi"),
    "trmm": ("scipy_cblas_dtrmm64_", "eeeeeiidpipi"),
}
_LIBRARY = "*scipy_openblas64_*"


class _Kernels(NamedTuple):
    symv: object
    trmv: object
    syrk: object
    symm: object
    trmm: object
    set_local: object  # openblas_set_num_threads_local: sets, returns the old count


# The bound kernels; None until the first product past W_BLOCK looks them
# up, False where they are missing. Tests set False for the reference path.
_lib: _Kernels | None | bool = None


@functools.cache
def _library():
    """numpy's bundled OpenBLAS as a ctypes library, or None."""
    pkg = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(pkg + ".libs", _LIBRARY))
                       + glob.glob(os.path.join(pkg, ".dylibs", _LIBRARY))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            pass
    return None


def _bind() -> _Kernels | bool:
    kinds = {"e": ctypes.c_int, "i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}
    lib = _library()
    try:
        fns = {}
        for name, (symbol, args) in _SIGNATURES.items():
            fn = getattr(lib, symbol)
            fn.argtypes, fn.restype = [kinds[a] for a in args], None
            fns[name] = fn
        fn = lib.openblas_set_num_threads_local
    except AttributeError:  # no library (None has no symbols), or a symbol missing
        return False
    fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    return _Kernels(set_local=fn, **fns)


def _bound() -> bool:
    """Whether the kernels bind, binding them at the first call."""
    global _lib
    if _lib is None:
        _lib = _bind()
    return bool(_lib)


def _address(a: np.ndarray) -> int:
    """The address of a's first element: through the buffer protocol for a
    writable C-contiguous array, which takes about half the time of numpy's
    `ctypes.data`, the fallback."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # not C-contiguous, or read-only
        return a.ctypes.data


def _vec(x: np.ndarray, n: int) -> int:
    """The address of x, checked as a kernel reads it: a contiguous float64
    vector of at least n entries."""
    if x.dtype != np.float64 or x.ndim != 1 or x.strides[0] != 8 or x.shape[0] < n:
        raise ValueError(f"a BLAS kernel needs a contiguous float64 vector of {n} entries, "
                         f"got {x.dtype} {x.shape} strides {x.strides}")
    return _address(x)


def _mat(a: np.ndarray, rows: int, cols: int) -> tuple[int, int]:
    """The address and leading dimension of a, checked as a kernel reads it:
    a float64 matrix of at least (rows, cols) whose rows are contiguous."""
    if (a.dtype != np.float64 or a.ndim != 2 or a.strides[1] != 8 or a.strides[0] < 8 * cols
            or a.shape[0] < rows or a.shape[1] < cols):
        raise ValueError(f"a BLAS kernel needs a float64 matrix of ({rows}, {cols}) with "
                         f"contiguous rows, got {a.dtype} {a.shape} strides {a.strides}")
    return _address(a), a.strides[0] // 8


def _call(fn, *args) -> None:
    """fn(*args) at one OpenBLAS thread, restoring the caller's count."""
    old = _lib.set_local(1)
    try:
        fn(*args)
    finally:
        if old != 1:
            _lib.set_local(old)


def tril_dot(W: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """W[:k, :k] x for the lower-triangular factor in the buffer W and a
    contiguous length-k vector x: past W_BLOCK with dtrmv, in x itself."""
    if k <= W_BLOCK or not _bound():
        return W[:k, :k] @ x
    _call(_lib.trmv, _ROW_MAJOR, _LOWER, _NO_TRANS, _NON_UNIT, k, *_mat(W, k, k), _vec(x, k), 1)
    return x


def dot_tril(x: np.ndarray, W: np.ndarray, k: int) -> np.ndarray:
    """x W[:k, :k] for a contiguous length-k vector x and the lower-triangular
    factor in the buffer W: past W_BLOCK with dtrmv, in x itself."""
    if k <= W_BLOCK or not _bound():
        return x @ W[:k, :k]
    _call(_lib.trmv, _ROW_MAJOR, _LOWER, _TRANS, _NON_UNIT, k, *_mat(W, k, k), _vec(x, k), 1)
    return x


def tril_rows(H: np.ndarray, W: np.ndarray, k: int, out: np.ndarray) -> None:
    """out = H W[:k, :k]^T, for (m, k) H and `out`, whose rows are contiguous:
    past W_BLOCK by copying H into `out` and one dtrmm there."""
    if k <= W_BLOCK or not _bound():
        np.matmul(W[:k, :k], H.T, out=out.T)  # bit for bit H @ W^T into out
        return
    out[...] = H
    m = out.shape[0]
    _call(_lib.trmm, _ROW_MAJOR, _RIGHT, _LOWER, _TRANS, _NON_UNIT, m, k, 1.0, *_mat(W, k, k),
          *_mat(out, m, k))


def sym_dot(P: np.ndarray, k: int, f: np.ndarray) -> np.ndarray:
    """P[:k, :k] f, in a new array, for the symmetric matrix in the buffer P
    and a contiguous length-k f: past W_BLOCK from P's lower triangle, by dsymv."""
    if k <= W_BLOCK or not _bound():
        return P[:k, :k] @ f
    q = np.empty(k)
    _call(_lib.symv, _ROW_MAJOR, _LOWER, k, 1.0, *_mat(P, k, k), _vec(f, k), 1, 0.0, _vec(q, k), 1)
    return q


def rows_sym(L: np.ndarray, P: np.ndarray, k: int) -> np.ndarray:
    """L P[:k, :k], in a new array, for (m, k) L with contiguous rows and the
    symmetric matrix in the buffer P: past W_BLOCK from P's lower triangle,
    by dsymm."""
    if k <= W_BLOCK or not _bound():
        return L @ P[:k, :k]
    m = L.shape[0]
    out = np.empty((m, k))
    _call(_lib.symm, _ROW_MAJOR, _RIGHT, _LOWER, m, k, 1.0, *_mat(P, k, k), *_mat(L, m, k), 0.0,
          *_mat(out, m, k))
    return out


def sym_flush(P: np.ndarray, k: int, Y: np.ndarray) -> None:
    """P[:k, :k] -= Y^T Y in place, for (m, k) Y with contiguous rows: past
    W_BLOCK into P's lower triangle by one dsyrk, with no K x K temporary;
    else whole, numpy forming Y^T Y exactly symmetric."""
    if k <= W_BLOCK or not _bound():
        P[:k, :k] -= Y.T @ Y
        return
    _call(_lib.syrk, _ROW_MAJOR, _LOWER, _TRANS, k, Y.shape[0], -1.0, *_mat(Y, Y.shape[0], k),
          1.0, *_mat(P, k, k))


def mirror_lower(P: np.ndarray, k: int) -> np.ndarray:
    """The exactly symmetric (k, k) matrix whose lower triangle is P[:k, :k]'s,
    in a new array."""
    S = np.tril(P[:k, :k])
    S += np.tril(S, -1).T
    return S


@functools.cache
def _thread_count():
    """numpy's bundled OpenBLAS's (get, set) of its thread count, or None."""
    lib = _library()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_thread():
    """Run the body with numpy's bundled OpenBLAS at one thread, restoring
    its count on exit; where that library or its thread setter is missing,
    the threads are left alone. Forked processes inherit the setting."""
    count = _thread_count()
    if count is None:
        yield
        return
    get, put = count
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)
