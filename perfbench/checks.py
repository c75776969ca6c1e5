"""Correctness checks, computed with numpy apart from kaf.

Each check takes plain arrays (what the program produced and the stream it
was fed) and returns a `Check`: a name, whether it passed, and the figure it
was judged on. None of them calls into kaf.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

# Recursive = batch agreement required of KRLS coefficients (ROADMAP aim 3).
ALPHA_RTOL = 1e-8
# Slack on the ALD threshold: the recursive and dense residuals differ by
# roundoff (~1e-12 at K~500), while the closest admissions seen on the
# benchmark's streams sit ~1e-6 from delta.
ADMISSION_MARGIN = 1e-9
# Rounding bound for a kernel sum, as a share of the coefficients' L1 norm.
SUM_RTOL = 1e-10
ROW_CHUNK = 256


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def gaussian(X: np.ndarray, Z: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-||x - z||^2 / sigma^2) for every pair of rows."""
    sq = (np.sum(X * X, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :]
          - 2.0 * X @ Z.T)
    return np.exp(-np.maximum(sq, 0.0) / (sigma * sigma))


def krls_reference(U, d, admitted, sigma: float, lam: float):
    """Dense regularized-KRLS solution for a given admission order.

    Sample i is expressed in the centers admitted before it: an admitted
    sample by its own unit row, a rejected one by a = G_K^-1 h (dense solve
    against the leading K x K block of the final Gram matrix). Returns the
    coefficients solving (A^T A G + lam I) alpha = A^T d and each sample's
    ALD residual d2 = k(u, u) - h . a against the earlier centers (inf for
    the first sample, which has none).
    """
    U = np.asarray(U, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    admitted = np.asarray(admitted, dtype=bool)
    centers = U[admitted]
    K = centers.shape[0]
    G = gaussian(centers, centers, sigma)
    before = np.concatenate([[0], np.cumsum(admitted)[:-1]])   # centers before i
    A = np.zeros((U.shape[0], K))
    d2 = np.full(U.shape[0], np.inf)
    for k in np.unique(before):
        idx = np.nonzero(before == k)[0]
        if k > 0:
            H = gaussian(centers[:k], U[idx], sigma)
            X = np.linalg.solve(G[:k, :k], H)
            d2[idx] = 1.0 - np.einsum("ij,ij->j", H, X)
            rej = ~admitted[idx]
            A[idx[rej], :k] = X[:, rej].T
        adm = idx[admitted[idx]]      # the sample that became center k, if any
        if adm.size:
            A[adm, k] = 1.0
    system = A.T @ A @ G + lam * np.eye(K)
    alpha = np.linalg.solve(system, A.T @ d)
    return alpha, d2


def check_krls_coefficients(alpha, alpha_ref) -> Check:
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != alpha_ref.shape:
        return Check("krls_coefficients", False,
                     f"K={alpha.shape} but the admission order gives {alpha_ref.shape}")
    rel = float(np.max(np.abs(alpha - alpha_ref)) / np.max(np.abs(alpha_ref)))
    return Check("krls_coefficients", rel <= ALPHA_RTOL,
                 f"max rel deviation {rel:.2e} (limit {ALPHA_RTOL:.0e}) at K={alpha.shape[0]}")


def check_krls_admissions(admitted, d2, delta: float) -> Check:
    admitted = np.asarray(admitted, dtype=bool)
    if not admitted[0]:
        return Check("krls_admissions", False, "the first sample was not admitted")
    adm, rej = d2[1:][admitted[1:]], d2[1:][~admitted[1:]]
    low = float(adm.min()) if adm.size else np.inf
    high = float(rej.max()) if rej.size else -np.inf
    ok = low > delta - ADMISSION_MARGIN and high <= delta + ADMISSION_MARGIN
    return Check("krls_admissions", ok,
                 f"{adm.size + 1} admitted, smallest d2 {low:.6f}; {rej.size} rejected, "
                 f"largest d2 {high:.6f} (delta {delta}, margin {ADMISSION_MARGIN:.0e})")


def klms_reference_outputs(U, e, eta: float, sigma: float) -> np.ndarray:
    """y(n) = sum_{i<n} eta e(i) k(u_i, u_n), by chunked kernel matrices."""
    U = np.asarray(U, dtype=np.float64)
    c = eta * np.asarray(e, dtype=np.float64)
    y = np.empty(U.shape[0])
    for r0 in range(0, U.shape[0], ROW_CHUNK):
        r1 = min(r0 + ROW_CHUNK, U.shape[0])
        Kb = gaussian(U[r0:r1], U[:r1], sigma)
        Kb[np.arange(r1)[None, :] >= np.arange(r0, r1)[:, None]] = 0.0
        y[r0:r1] = Kb @ c[:r1]
    return y


def check_klms(U, d, y, e, coeffs, eta: float, sigma: float) -> Check:
    d, y, e = (np.asarray(v, dtype=np.float64) for v in (d, y, e))
    err_e = float(np.max(np.abs(e - (d - y))))
    y_ref = klms_reference_outputs(U, e, eta, sigma)
    tol = SUM_RTOL * (1.0 + float(np.sum(np.abs(eta * e))))
    err_y = float(np.max(np.abs(y - y_ref)))
    err_c = float(np.max(np.abs(np.asarray(coeffs) - eta * e)))
    ok = err_e == 0.0 and err_y <= tol and err_c == 0.0
    return Check("klms_outputs", ok,
                 f"|e-(d-y)| {err_e:.1e}, |y-y_ref| {err_y:.2e} (limit {tol:.1e}), "
                 f"|coeffs-eta e| {err_c:.1e} over {y.shape[0]} steps")


def check_heldout(X, targets, pred, centers, coeffs, U_train, d_train,
                  sigma: float) -> Check:
    """Predictions match a numpy evaluation and beat a linear least-squares fit."""
    pred = np.asarray(pred, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    ref = np.empty(X.shape[0])
    for r0 in range(0, X.shape[0], ROW_CHUNK):
        ref[r0:r0 + ROW_CHUNK] = gaussian(X[r0:r0 + ROW_CHUNK], centers, sigma) @ coeffs
    tol = SUM_RTOL * (1.0 + float(np.sum(np.abs(coeffs))))
    err = float(np.max(np.abs(pred - ref)))
    design = np.hstack([U_train, np.ones((U_train.shape[0], 1))])
    w = np.linalg.lstsq(design, d_train, rcond=None)[0]
    linear = np.hstack([X, np.ones((X.shape[0], 1))]) @ w
    mse_kernel = float(np.mean((targets - pred) ** 2))
    mse_linear = float(np.mean((targets - linear) ** 2))
    ok = err <= tol and mse_kernel < mse_linear
    return Check("heldout_predictions", ok,
                 f"|pred-ref| {err:.2e} (limit {tol:.1e}); MSE kernel {mse_kernel:.4g} "
                 f"vs linear {mse_linear:.4g} over {X.shape[0]} points")


def check_kaf_run(exit_code: int, csv_path: str, summary_path: str, trials: int,
                  length: int, online_k: int) -> Check:
    """`kaf run` output: exit 0, trials x length rows, e = d - y, trial-0 K."""
    name = "kaf_run_outputs"
    if exit_code != 0:
        return Check(name, False, f"exit code {exit_code}")
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    header = ["n", "y", "d", "e", "e2", "dict_size", "step_seconds"]
    if not rows or rows[0] != header:
        return Check(name, False, f"unexpected header {rows[:1]}")
    data = np.array([[float(v) for v in r] for r in rows[1:]]) if len(rows) > 1 \
        else np.empty((0, 7))
    if data.shape[0] != trials * length:
        return Check(name, False, f"{data.shape[0]} rows, expected {trials} x {length}")
    n_ok = np.array_equal(data[:, 0], np.tile(np.arange(1, length + 1), trials))
    err_e = float(np.max(np.abs(data[:, 3] - (data[:, 2] - data[:, 1]))))
    with open(summary_path) as f:
        summary = json.load(f)
    k0 = summary["trials"][0]["final_dict_size"]
    ok = n_ok and err_e == 0.0 and len(summary["trials"]) == trials and k0 == online_k
    return Check(name, ok,
                 f"{data.shape[0]} rows, n restarts per trial: {n_ok}, |e-(d-y)| {err_e:.1e}, "
                 f"trial 0 final K {k0} vs online K {online_k}")
