"""The BLAS products of `kaf._blas` and the KRLS filter on both backends."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kaf import KernelSpec, KrlsAldReg, StreamConfig, _blas, cli, generate, krls
from kaf._blas import W_BLOCK

GAUSS = KernelSpec("gaussian", sigma=1.0)
SIZES = [W_BLOCK - 1, W_BLOCK, W_BLOCK + 1, 2 * W_BLOCK + 1, 500]


def gamma2(n: int) -> float:
    """2 gamma_n, gamma_n = n u / (1 - n u), u = 2^-53: two sums of the same
    n terms, each within gamma_n times the sum of their magnitudes of the
    exact one, taken in any order, differ by at most this times that sum."""
    return 2 * n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


def check(got, want, bound, n, exact):
    """Bit for bit where `exact`, else within 2 gamma_n bound."""
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert (np.abs(got - want) <= gamma2(n) * bound).all()


def stream(length: int):
    return generate(StreamConfig("nonlinear_sysid", length=length, noise_std=0.1, seed=1,
                                 embed_L=3))


@pytest.mark.parametrize("backend", ["reference", "blas"], indirect=True)
@pytest.mark.parametrize("k", SIZES)
def test_products_match_dense_ones(backend, k):
    """Each product is numpy's dense product bit for bit on the reference
    backend at every K, and on the kernels' backend while K <= W_BLOCK;
    past it the kernels agree with it within 2 gamma_n of the product of
    magnitudes, n = K (m + 1 for the flush of m rows). The buffers hold NaN
    outside their (K, K) block, and on the kernels' backend past W_BLOCK in
    P's strict upper triangle, which no product may read; there the flush
    leaves that triangle as it was."""
    rng = np.random.default_rng(k)
    cap, m = k + 7, 20
    W = np.full((cap, cap), np.nan)
    W[:k, :k] = np.tril(rng.standard_normal((k, k)))  # 0 above the diagonal, as grown
    S = rng.standard_normal((k, k))
    S += S.T
    P = np.full((cap, cap), np.nan)
    P[:k, :k] = S
    upper = np.triu_indices(k, 1)
    exact = backend == "reference" or k <= W_BLOCK
    if not exact:
        P[upper] = np.nan
    Y = rng.standard_normal((m + 3, cap))[:m, :k]
    H = rng.standard_normal((5, k))
    L = np.empty((5, k + 5))[:, :k]
    x = rng.standard_normal(k)
    Wk, Pk = W[:k, :k], P[:k, :k]  # the (K, K) views
    A, B = np.abs(Wk), np.abs(S)

    check(_blas.tril_dot(W, k, x.copy()), Wk @ x, A @ np.abs(x), k, exact)
    check(_blas.dot_tril(x.copy(), W, k), x @ Wk, np.abs(x) @ A, k, exact)
    _blas.tril_rows(H, W, k, L)
    want = np.empty((5, k + 5))[:, :k]
    np.matmul(H, Wk.T, out=want)
    check(L, want, np.abs(H) @ A.T, k, exact)
    dense = Pk if exact else S  # the view, or the clean matrix
    check(_blas.sym_dot(P, k, x), dense @ x, B @ np.abs(x), k, exact)
    check(_blas.rows_sym(L, P, k), L @ dense, np.abs(L) @ B, k, exact)

    want = dense - Y.T @ Y  # numpy's flush, P[:k, :k] -= Y^T Y
    before = P.copy()
    _blas.sym_flush(P, k, Y)
    check(np.tril(Pk), np.tril(want), B + np.abs(Y).T @ np.abs(Y), m + 1, exact)
    assert np.array_equal(P[k:], before[k:], equal_nan=True)
    assert np.array_equal(P[:, k:], before[:, k:], equal_nan=True)
    if exact:  # numpy forms Y^T Y exactly symmetric
        assert np.array_equal(Pk, Pk.T)
    else:
        assert np.isnan(Pk[upper]).all()


def test_mirror_lower_is_exactly_symmetric():
    P = np.full((6, 6), np.nan)
    P[:4, :4] = np.tril(np.arange(16.0).reshape(4, 4))
    S = _blas.mirror_lower(P, 4)
    assert np.array_equal(S, S.T) and np.array_equal(np.tril(S), P[:4, :4])


@pytest.mark.parametrize("backend", ["reference", "blas"], indirect=True)
def test_grown_state_keeps_the_contract_whole_products_rely_on(backend):
    """Whole products over the (K, K) block are exact only while W's buffer
    is 0 above its diagonal and P_b, where numpy reads it, is exactly
    symmetric. Through a step loop across K = PENDING, W_BLOCK and several
    capacity growths, a `run`, a resume_exact snapshot's replay and steps
    after it, W's whole capacity buffer stays exactly 0 above the diagonal
    after each; P_b[:K, :K] stays exactly symmetric on the reference
    backend, and on the kernels' backend while K <= W_BLOCK."""
    U, d = stream(900)

    def check(f):
        k = f.dict_size
        assert not np.triu(f.dict._W, 1).any()
        if backend == "reference" or k <= W_BLOCK:
            Pb = f._Pb[:k, :k]
            assert np.array_equal(Pb, Pb.T)

    f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
    check(f)
    sizes, caps = set(), set()
    for i in range(1, 500):
        f.step(U[i], d[i])
        check(f)
        sizes.add(f.dict_size)
        caps.add(f.dict._W.shape[0])
    assert {krls.PENDING, W_BLOCK} <= sizes and max(sizes) > W_BLOCK
    assert len({c for c in caps if c > W_BLOCK}) >= 2  # grown past W_BLOCK, twice
    k = f.dict_size
    f.run(U[500:800], d[500:800])
    assert f.dict_size > k
    check(f)
    g = KrlsAldReg.from_snapshot(json.loads(json.dumps(f.to_snapshot(resume_exact=True))))
    check(g)
    k = g.dict_size
    for i in range(800, 900):
        g.step(U[i], d[i])
        check(g)
    assert g.dict_size > k


def test_step_loop_and_run_do_not_depend_on_the_blas_thread_count():
    """A KRLS step loop and `run` grown past K = 2 W_BLOCK, and a KLMS `run`
    over 3000 samples, whose tiles of stored columns are level-3 products,
    write the same bytes of y, e and alpha or the coefficients at one and
    two OpenBLAS threads."""
    if not _blas._bound():
        pytest.skip("numpy's bundled OpenBLAS does not export the kernels")
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from kaf import KernelSpec, Klms, KrlsAldReg, StreamConfig, generate\n"
        "U, d = generate(StreamConfig('nonlinear_sysid', length=3000, noise_std=0.1, seed=1,"
        " embed_L=3))\n"
        "f, g = (KrlsAldReg(KernelSpec('gaussian', sigma=1.0), 0.1, 0.01, U[0], d[0])"
        " for _ in range(2))\n"
        "steps = np.array([f.step(U[i], d[i])[:2] for i in range(1, 700)])\n"
        "y, e, _ = g.run(U[1:700], d[1:700])\n"
        "assert min(f.dict_size, g.dict_size) > 2 * 128\n"
        "h = Klms(KernelSpec('gaussian', sigma=1.0), 0.2, U[0], d[0])\n"
        "out = (steps, f.alpha, y, e, g.alpha, *h.run(U[1:], d[1:])[:2], h.coeffs)\n"
        "sys.stdout.write(b''.join(a.tobytes() for a in out).hex())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] and out[0] == out[1]


def test_backends_admit_the_same_centers(each_backend):
    """On one stream grown past 2 W_BLOCK, the step loop and `run` admit the
    same centers on both backends, and alpha agrees to 1e-10 relative."""
    U, d = stream(700)
    got = []
    for _ in each_backend():
        f, g = (KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0]) for _ in range(2))
        for i in range(1, len(d)):
            f.step(U[i], d[i])
        g.run(U[1:], d[1:])
        got.append((f, g))
    if len(got) < 2:
        pytest.skip("numpy's bundled OpenBLAS does not export the kernels")
    for ref, blas in zip(*got):
        assert ref.dict_size > 2 * W_BLOCK
        assert np.array_equal(ref.dict.centers, blas.dict.centers)
        assert np.abs(blas.alpha - ref.alpha).max() <= 1e-10 * np.abs(ref.alpha).max()


@pytest.mark.parametrize("saved_on", ["reference", "blas"])
def test_resume_exact_snapshot_resumes_on_the_other_backend(saved_on, monkeypatch):
    """A resume_exact snapshot taken past W_BLOCK, with rows pending, loads on
    the other backend with the same P and re-saves to the same snapshot
    but for alpha = W^T b, which it recomputes with its own product;
    the resumed filter then admits the samples the saved one does and
    agrees on alpha to 1e-10 relative."""
    if not _blas._bound():
        pytest.skip("numpy's bundled OpenBLAS does not export the kernels")
    backends = {"reference": False, "blas": _blas._lib}
    loaded_on = "blas" if saved_on == "reference" else "reference"
    U, d = stream(700)
    monkeypatch.setattr(_blas, "_lib", backends[saved_on])
    f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
    i = 1
    while f.dict_size <= W_BLOCK + 20 or f._m == 0:
        f.step(U[i], d[i])
        i += 1
    snap = json.loads(json.dumps(f.to_snapshot(resume_exact=True)))
    P = f.P
    grew = [f.step(U[j], d[j]).grew for j in range(i, i + 150)]
    monkeypatch.setattr(_blas, "_lib", backends[loaded_on])
    g = KrlsAldReg.from_snapshot(snap)
    assert np.array_equal(g.P, P)
    again = json.loads(json.dumps(g.to_snapshot(resume_exact=True)))
    assert {**again, "alpha": None} == {**snap, "alpha": None}
    assert [g.step(U[j], d[j]).grew for j in range(i, i + 150)] == grew
    assert any(grew) and np.array_equal(g.dict.centers, f.dict.centers)
    assert np.abs(g.alpha - f.alpha).max() <= 1e-10 * np.abs(f.alpha).max()


def test_cli_runs_at_one_blas_thread_and_restores_the_count(monkeypatch):
    """`cli.main` runs its command with numpy's OpenBLAS at one thread and
    puts the caller's count back on return."""
    count = _blas._thread_count()
    if count is None:
        pytest.skip("numpy's bundled OpenBLAS does not export its thread setter")
    get, put = count
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda argv: seen.append(get()) or 0)
    old = get()
    put(2)
    try:
        assert cli.main(["verify"]) == 0
        assert seen == [1] and get() == 2
    finally:
        put(old)
