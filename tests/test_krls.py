import copy
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaf import (
    BatchProblem,
    KernelSpec,
    KrlsAldReg,
    StreamConfig,
    batch_solve_regularized,
    generate,
    kernel_eval,
)
from kaf.base import reserve_square
from kaf.exceptions import (
    DimensionMismatchError,
    KafError,
    NearSingularGrowthError,
    NumericalError,
    ValidationError,
)
from kaf.kernels import kernel_vector
from kaf.krls import PENDING
from kaf.verify import _krls_run

GAUSS = KernelSpec("gaussian", sigma=1.0)


def stream_2d(n, seed, scale=1.5):
    rng = np.random.default_rng(seed)
    U = rng.uniform(-scale, scale, (n, 2))
    d = np.sin(2 * U[:, 0]) * np.cos(U[:, 1]) + 0.1 * rng.standard_normal(n)
    return U, d


def state_copy(f):
    return (f.alpha.copy(), f.P.copy(), f.b.copy(), f.dict.W.copy(),
            f.dict.centers.copy(), f.n)


def assert_state_equal(f, snap):
    alpha, P, b, W, C, n = snap
    assert np.array_equal(f.alpha, alpha)
    assert np.array_equal(f.P, P)
    assert np.array_equal(f.b, b)
    assert np.array_equal(f.dict.W, W)
    assert np.array_equal(f.dict.centers, C)
    assert f.n == n


def inject_P(f, P):
    """White-box: give f the matrix P, as its P_b with no pending rows."""
    k = f.dict_size
    f._Pb[:k, :k] = P
    f._m = 0


def with_pending(m, lam=0.1, spaced=3.0, extra=8):
    """A filter grown past PENDING centers, spaced 3 apart on a line (every
    one admitted), then stepped on repeats of its centers (none admitted)
    until m rows are pending in Y; with its centers."""
    C = spaced * np.arange(PENDING + extra)[:, None]
    f = KrlsAldReg(GAUSS, lam, 0.5, C[0], 1.0)
    for c in C[1:]:
        assert f.step(c, 1.0).grew
    i = 0
    while f._m != m:
        assert not f.step(C[i % len(C)], 0.5).grew
        i += 1
    return f, C


def whitened_features(f, A):
    """L = A G W^T: the rows P inverts L^T L + lam I over, built from an
    expansion matrix A (one row per sample, one column per center)."""
    return A @ f.dict.gram @ f.dict.W.T


class TestInit:
    def test_gaussian_unit_lambda(self):
        f = KrlsAldReg(GAUSS, 1.0, 0.1, [0.4], 2.0)
        np.testing.assert_allclose(f.alpha, [1.0])
        np.testing.assert_allclose(f.P, [[0.5]])
        np.testing.assert_allclose(f.b, [1.0])
        np.testing.assert_allclose(f.dict.W, [[1.0]])
        assert f.n == 1 and f.dict_size == 1

    @pytest.mark.parametrize("spec, lam", [
        (GAUSS, 0.1),
        (KernelSpec("polynomial", degree=2), 0.3),
        (GAUSS, 0.0),
    ])
    def test_first_sample_closed_form(self, spec, lam):
        """The first sample borders the empty state: P = [[1/(k(u,u) + lam)]]
        and b = [sqrt(k(u,u)) d / (k(u,u) + lam)], to the last bit."""
        u, d = [0.7, -0.4], 1.3
        f = KrlsAldReg(spec, lam, 0.1, u, d)
        kuu = kernel_eval(spec, u, u)
        assert np.array_equal(f.P, [[1.0 / (kuu + lam)]])
        assert np.array_equal(f.b, [math.sqrt(kuu) * d / (kuu + lam)])

    def test_zero_target(self):
        f = KrlsAldReg(GAUSS, 1.0, 0.1, [0.4], 0.0)
        np.testing.assert_array_equal(f.alpha, [0.0])

    def test_polynomial_first_sample(self):
        # k(u, u) = 2 for u = [1], so alpha = 3/(2+1) and P = 1/3
        f = KrlsAldReg(KernelSpec("polynomial", degree=1), 1.0, 0.1, [1.0], 3.0)
        np.testing.assert_allclose(f.alpha, [1.0])
        np.testing.assert_allclose(f.P, [[1.0 / 3.0]])

    def test_lambda_validation(self):
        """lambda is a finite real >= 0; 0 runs the unregularized KRLS."""
        assert KrlsAldReg(GAUSS, 0.0, 0.1, [0.0], 1.0).lam == 0.0
        for lam in (-0.5, math.inf, math.nan):
            with pytest.raises(ValidationError, match="lambda"):
                KrlsAldReg(GAUSS, lam, 0.1, [0.0], 1.0)

    def test_delta_validation(self):
        with pytest.raises(ValidationError):
            KrlsAldReg(GAUSS, 0.1, -1e-9, [0.0], 1.0)


class TestUnchangedBranch:
    def test_duplicate_sample_closed_form(self):
        """Repeat of the first sample: ridge over two identical rows gives
        alpha = 6/3 = 2 and P = 1/(2 + 1)."""
        f = KrlsAldReg(GAUSS, 1.0, 0.0, [0.7, 0.1], 3.0)
        out = f.step([0.7, 0.1], 3.0)
        assert not out.grew
        np.testing.assert_allclose(f.alpha, [2.0], rtol=1e-14)
        np.testing.assert_allclose(f.P, [[1.0 / 3.0]], rtol=1e-14)
        np.testing.assert_allclose(f.b, [2.0], rtol=1e-14)
        # direct inversion oracle for the P definition: both samples expand
        # onto the single center with coefficient 1
        L = whitened_features(f, np.ones((2, 1)))
        np.testing.assert_allclose(f.P, np.linalg.inv(L.T @ L + 1.0 * np.eye(1)), rtol=1e-12)
        np.testing.assert_allclose(f.b, f.P @ L.T @ [3.0, 3.0], rtol=1e-12)

    def test_apriori_error_uses_pre_update_alpha(self):
        f = KrlsAldReg(GAUSS, 0.5, 0.0, [0.2], 1.0)
        y_before = f.predict([0.2])
        out = f.step([0.2], 2.0)
        assert out.y == y_before
        assert out.e == 2.0 - y_before

    def test_zero_innovation_leaves_alpha(self):
        f = KrlsAldReg(GAUSS, 1.0, 0.0, [0.3], 1.5)
        d = f.predict([0.3])
        P_before = f.P.copy()
        out = f.step([0.3], d)
        assert not out.grew
        np.testing.assert_allclose(f.alpha, [1.5 / 2.0], rtol=1e-14)
        assert not np.array_equal(f.P, P_before)  # P still contracts

    def test_repeats_approach_per_center_ridge_solution(self):
        # m repeats of (u, d) with k(u,u)=1: batch solve gives m d / (m + lam)
        lam, d = 1.0, 3.0
        f = KrlsAldReg(GAUSS, lam, 0.0, [0.7], d)
        for m in range(2, 12):
            f.step([0.7], d)
            np.testing.assert_allclose(f.alpha, [m * d / (m + lam)], rtol=1e-12)
        assert abs(f.alpha[0] - d) < 0.3  # converging toward the target


class TestGrowBranch:
    def test_far_second_sample(self):
        """Nearly orthogonal second center: ridge over K ~ I gives 0.5, 0.5."""
        f = KrlsAldReg(GAUSS, 1.0, 0.5, [0.0], 1.0)
        out = f.step([10.0], 1.0)
        assert out.grew and f.dict_size == 2
        np.testing.assert_allclose(f.alpha, [0.5, 0.5], atol=1e-12)

    def test_growth_with_zero_error_appends_zero(self):
        f = KrlsAldReg(GAUSS, 1.0, 0.5, [0.0], 1.0)
        d = f.predict([10.0])
        alpha_before = f.alpha.copy()
        out = f.step([10.0], d)
        assert out.grew
        np.testing.assert_array_equal(f.alpha[:1], alpha_before)
        assert f.alpha[1] == 0.0

    def test_p_identity_after_growth_steps(self):
        U, d = stream_2d(200, 8)
        lam = 0.1
        A = batch_solve_regularized(BatchProblem(U, d, GAUSS, lam, 0.05)).A
        f = KrlsAldReg(GAUSS, lam, 0.05, U[0], d[0])
        for i in range(1, 200):
            out = f.step(U[i], d[i])
            if out.grew:
                k = f.dict_size
                L = whitened_features(f, A[: i + 1, :k])
                resid = np.linalg.norm(
                    f.P @ (L.T @ L + lam * np.eye(k)) - np.eye(k), np.inf)
                assert resid <= 1e-8 * k
        # P stays exactly symmetric, with its spectrum in (0, 1/lam]
        assert np.array_equal(f.P, f.P.T)
        eig = np.linalg.eigvalsh(f.P)
        assert eig[0] > 0 and eig[-1] <= (1 + 1e-12) / lam

    def test_huge_lambda_and_targets_keep_b_finite(self):
        """b's growth term is (lambda/den) e q with lambda/den <= 1: at
        lambda = 1e300 and targets near 1e10, lambda e alone overflows."""
        U, d = generate(StreamConfig("noisy_sinc", length=300, noise_std=1e10, seed=1))
        f = KrlsAldReg(GAUSS, 1e300, 0.01, U[0], d[0])
        grew = 0
        for i in range(1, 300):
            grew += f.step(U[i], d[i]).grew
            assert np.isfinite(f.b).all(), i
        assert grew >= 5


class TestRecursiveEqualsBatch:
    def test_unregularized_mode_matches_batch(self):
        U, d = stream_2d(80, 13, scale=4.0)  # spread points keep the Gram tame
        sol = batch_solve_regularized(
            BatchProblem(U, d, GAUSS, 0.0, 0.05), collect_steps=True)
        f = KrlsAldReg(GAUSS, 0.0, 0.05, U[0], d[0])
        for i in range(1, 80):
            f.step(U[i], d[i])
            ref = sol.step_alphas[i]
            dev = np.linalg.norm(f.alpha - ref, np.inf) / np.linalg.norm(ref, np.inf)
            assert dev <= 1e-6


    def test_small_lambda_and_delta_match_batch_at_every_prefix(self):
        """Small lambda and delta on the verify stream (seed 5): within 1e-8
        of the dense solve at every prefix."""
        _, _, devs, diverged = _krls_run(300, lam=1e-3, delta=1e-3, seed=5, prefixes=True)
        assert diverged is None and len(devs["alpha"]) == 299
        assert max(devs["alpha"].values()) <= 1e-8

    def test_small_delta_sysid_matches_batch(self):
        """delta = 1e-4 grows an ill-conditioned dictionary (K = 174,
        cond(G) ~ 2.6e9); the final coefficients still agree to 1e-8."""
        U, d = generate(StreamConfig("nonlinear_sysid", length=1500, noise_std=0.1,
                                     seed=1, embed_L=2))
        lam, delta = 0.1, 1e-4
        f = KrlsAldReg(GAUSS, lam, delta, U[0], d[0])
        for i in range(1, 1500):
            f.step(U[i], d[i])
        ref = batch_solve_regularized(BatchProblem(U, d, GAUSS, lam, delta)).alpha
        assert ref.shape == f.alpha.shape
        assert np.linalg.norm(f.alpha - ref, np.inf) / np.linalg.norm(ref, np.inf) <= 1e-8

    def test_zero_delta_refuses_what_the_oracle_refuses(self):
        """With delta = 0 a sample whose residual lies below GROWTH_FLOOR is
        refused with NearSingularGrowthError, at the sample where the batch
        oracle refuses it, instead of being admitted on a drifted residual."""
        rng = np.random.default_rng(2)
        U = rng.uniform(-2, 2, (400, 1))
        d = np.sin(U[:, 0])
        with pytest.raises(NearSingularGrowthError, match="sample 15:"):
            batch_solve_regularized(BatchProblem(U, d, GAUSS, 1.0, 0.0))
        f = KrlsAldReg(GAUSS, 1.0, 0.0, U[0], d[0])
        for i in range(1, 15):
            f.step(U[i], d[i])
        snap = state_copy(f)
        with pytest.raises(NearSingularGrowthError):
            f.step(U[15], d[15])
        assert_state_equal(f, snap)


def test_long_horizon_drift():
    """1e5 steps at delta = 1e-4 (K = 17): the whitening factor keeps
    ||G W^T W - I||_inf <= 1e-8 at every sampled prefix, and the coefficients
    match the dense solve over the first 20000 samples to 1e-8."""
    U, d = generate(StreamConfig("noisy_sinc", length=100_000, noise_std=0.1, seed=3))
    lam, delta = 0.1, 1e-4
    f = KrlsAldReg(GAUSS, lam, delta, U[0], d[0])
    for i in range(1, U.shape[0]):
        f.step(U[i], d[i])
        if (i + 1) % 20_000:
            continue
        k = f.dict_size
        W = f.dict.W
        assert np.linalg.norm(f.dict.gram @ W.T @ W - np.eye(k), np.inf) <= 1e-8
        if i + 1 == 20_000:
            ref = batch_solve_regularized(
                BatchProblem(U[:20_000], d[:20_000], GAUSS, lam, delta)).alpha
            assert ref.shape == f.alpha.shape
            dev = np.linalg.norm(f.alpha - ref, np.inf) / np.linalg.norm(ref, np.inf)
            assert dev <= 1e-8


class TestPredict:
    def test_single_center_identity(self):
        f = KrlsAldReg(GAUSS, 1.0, 0.1, [0.3], 2.0)
        assert np.array_equal(f.alpha, [1.0])
        assert f.predict([0.3]) == 1.0

    def test_zero_alpha(self):
        f = KrlsAldReg(GAUSS, 1.0, 0.1, [0.3], 0.0)
        assert f.predict([5.0]) == 0.0

    def test_matches_brute_force(self):
        U, d = stream_2d(60, 17)
        f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
        for i in range(1, 60):
            f.step(U[i], d[i])
        rng = np.random.default_rng(99)
        for _ in range(10):
            u = rng.uniform(-1.5, 1.5, 2)
            brute = sum(f.alpha[i] * kernel_eval(GAUSS, f.dict.centers[i], u)
                        for i in range(f.dict_size))
            assert f.predict(u) == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_below_the_shift_dimension_sums_explicit_differences(self, dim):
        """Below `dictionary.SHIFT_DIM_MIN` (3) a prediction is the kernel
        vector's dot with alpha, bit for bit, and the dictionary keeps no
        shifted columns."""
        U, d = generate(StreamConfig("nonlinear_sysid", length=400, noise_std=0.1, seed=3,
                                     embed_L=dim))
        f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
        f.run(U[1:], d[1:])
        assert f.dict._centers._shifted is None and f.dict_size > 10
        for u in U[::7] + 0.1:
            assert f.predict(u) == float(kernel_vector(GAUSS, f.dict.centers, u) @ f.alpha)

    def test_tiny_sigma_grows_and_predicts_without_a_warning(self):
        """At sigma = 1e-160 and L = 3, 2/sigma^2 overflows: the shifted sum's
        gate is inf from the first center on, so no v is formed, and every
        prediction is explicit: a center reads its own alpha, any other
        point 0."""
        spec = KernelSpec("gaussian", sigma=1e-160)
        C = [[0.0, 0.0, 0.0], [1e-140, 0.0, 0.0], [0.0, -1.0, 2.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = KrlsAldReg(spec, 0.1, 0.01, C[0], 1.0)
            for c, t in zip(C[1:], (2.0, -3.0)):
                assert f.step(c, t).grew
            assert f.dict._centers._scale == math.inf
            for c, a in zip(C, f.alpha):
                assert f.predict(c) == a
            assert f.predict([1e-140, 1e-140, 0.0]) == 0.0


class TestTransactional:
    def test_dimension_error_leaves_state(self):
        U, d = stream_2d(40, 19)
        f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
        for i in range(1, 40):
            f.step(U[i], d[i])
        snap = state_copy(f)
        with pytest.raises(DimensionMismatchError):
            f.step([1.0, 2.0, 3.0], 0.5)
        with pytest.raises(ValidationError):
            f.step([np.nan, 0.0], 0.5)
        with pytest.raises(ValidationError):
            f.step([0.0, 0.0], np.inf)
        assert_state_equal(f, snap)

    def test_near_singular_growth_leaves_state(self):
        f = KrlsAldReg(GAUSS, 0.1, 1e-15, [0.0], 1.0)
        snap = state_copy(f)
        with pytest.raises(NearSingularGrowthError):
            f.step([1e-7], 1.0)
        assert_state_equal(f, snap)


    @pytest.mark.parametrize("lam", [0.1, 0.0], ids=["regularized", "unregularized"])
    def test_rank_one_floor_leaves_state(self, lam):
        """An unchanged step updates P and b in place, so the 1 + l^T P l
        check must run before either is written."""
        U, d = stream_2d(40, 19)
        f = KrlsAldReg(GAUSS, lam, 0.05, U[0], d[0])
        for i in range(1, 40):
            f.step(U[i], d[i])
        u = f.dict.centers[3].copy()  # a member: takes the unchanged branch
        ald = f.dict.ald_test(u, f.delta)
        assert not ald.admitted
        # white-box P with l^T P l = -1 up to roundoff: denominator ~ 0
        inject_P(f, -np.outer(ald.l, ald.l) / (ald.l @ ald.l) ** 2)
        snap = state_copy(f)
        with pytest.raises(NumericalError, match="rank-one"):
            f.step(u, 0.5)
        assert_state_equal(f, snap)

    @pytest.mark.parametrize("lam", [0.1, 0.0], ids=["regularized", "unregularized"])
    def test_growth_denominator_floor_leaves_state(self, lam):
        """A growth step checks the same denominator D = 1 + l^T P l before
        it borders P; the dictionary must not grow when it is refused."""
        U, d = stream_2d(40, 19)
        f = KrlsAldReg(GAUSS, lam, 0.05, U[0], d[0])
        for i in range(1, 40):
            f.step(U[i], d[i])
        far = np.array([9.0, -9.0])
        ald = f.dict.ald_test(far, f.delta)
        assert ald.admitted
        # white-box P with l^T P l = -1 up to roundoff: D ~ 0
        inject_P(f, -np.outer(ald.l, ald.l) / (ald.l @ ald.l) ** 2)
        snap = state_copy(f)
        with pytest.raises(NumericalError, match="rank-one"):
            f.step(far, 0.5)
        assert_state_equal(f, snap)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unchanged_step_allocates_less_than_one_matrix(each_backend):
    """P's updates wait as rows of Y: at K = 400, of PENDING unchanged steps
    one flushes, and only on the reference path does it allocate a K x K
    array (numpy's Y^T Y); the kernels' flush works in place. A growth step
    between flushes writes P_b's and W's new rows in place, with no
    (K+1) x (K+1) array."""
    k = 400
    pts = np.zeros((k + 2, 1))
    pts[:, 0] = 3.0 * np.arange(k + 2)  # kernel values ~exp(-9): all admitted
    for backend in each_backend():
        f = KrlsAldReg(GAUSS, 0.1, 0.5, pts[0], 1.0)
        for u in pts[1:k]:
            assert f.step(u, 1.0).grew
        assert f.dict_size == k
        big, flushed = [], []
        for i in range(PENDING):
            out, peak = _peak_bytes(lambda: f.step(pts[i], 1.0))
            assert not out.grew
            if peak >= k * k * 8:
                big.append(i)
            if f._m == 0:  # this step flushed
                flushed.append(i)
        assert len(flushed) == 1
        assert big == (flushed if backend == "reference" else [])
        assert f._m < PENDING - 1
        out, peak = _peak_bytes(lambda: f.step(pts[k], 1.0))
        assert out.grew and f._m > 0 and peak < k * k * 8


@pytest.fixture(scope="module")
def grown_filters():
    """Filters whose grown W differs from a dense recomputation, each with its
    stream and the index of the next sample: 1-D inputs 0.3 apart (K = 15)
    and the L = 3 system-identification stream grown to K = 480."""
    out = {}
    U = 0.3 * np.arange(60.0)[:, None]
    d = np.sin(U[:, 0])
    f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
    for i in range(1, 20):
        f.step(U[i], d[i])
    out["spaced_1d"] = (f, U, d, 20)
    U, d = generate(StreamConfig("nonlinear_sysid", length=3000, seed=3, embed_L=3))
    f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
    i = 1
    while f.dict_size < 480:
        f.step(U[i], d[i])
        i += 1
    out["sysid_k480"] = (f, U, d, i)
    for f, *_ in out.values():
        dense = np.tril(np.linalg.inv(np.linalg.cholesky(f.dict.gram)))
        assert not np.array_equal(f.dict.W, dense)
    return out


class TestSnapshot:
    def test_resume_exact_continues_identically(self):
        U, d = stream_2d(120, 23)
        f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
        for i in range(1, 60):
            f.step(U[i], d[i])
        g = KrlsAldReg.from_snapshot(f.to_snapshot(resume_exact=True))
        for i in range(60, 120):
            a = f.step(U[i], d[i])
            b = g.step(U[i], d[i])
            assert a.y == b.y and a.e == b.e and a.grew == b.grew
        assert_state_equal(g, state_copy(f))

    def test_plain_snapshot_predicts_but_cannot_step(self):
        U, d = stream_2d(40, 29)
        f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
        for i in range(1, 40):
            f.step(U[i], d[i])
        snap = f.to_snapshot()
        assert snap["algorithm"] == "krls-ald-reg"
        assert not {"P", "b", "W"} & set(snap)
        g = KrlsAldReg.from_snapshot(snap)
        assert g.predict(U[3]) == pytest.approx(f.predict(U[3]), abs=1e-12)
        with pytest.raises(KafError):
            g.step(U[1], d[1])

    def test_snapshot_with_former_unregularized_flag_resumes_at_lambda_zero(self):
        """Older lambda = 0 snapshots carry "unregularized": true. The flag is
        ignored on load, and the filter resumes bit for bit as lambda = 0."""
        U, d = stream_2d(40, 43, scale=4.0)
        f = KrlsAldReg(GAUSS, 0.0, 0.05, U[0], d[0])
        for i in range(1, 20):
            f.step(U[i], d[i])
        snap = f.to_snapshot(resume_exact=True)
        assert "unregularized" not in snap
        g = KrlsAldReg.from_snapshot(json.loads(json.dumps(dict(snap, unregularized=True))))
        assert g.lam == 0.0
        for i in range(20, 40):
            a, b = f.step(U[i], d[i]), g.step(U[i], d[i])
            assert a.y == b.y and a.e == b.e and a.grew == b.grew
        assert_state_equal(g, state_copy(f))

    def test_wrong_algorithm_rejected(self):
        with pytest.raises(ValidationError):
            KrlsAldReg.from_snapshot({"algorithm": "klms"})

    def test_snapshot_with_gram_entry_resumes_identically(self):
        """Older snapshots also stored the Gram matrix; it is ignored on load."""
        U, d = stream_2d(100, 37)
        f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
        for i in range(1, 50):
            f.step(U[i], d[i])
        snap = f.to_snapshot(resume_exact=True)
        assert "gram" not in snap
        legacy = dict(snap, gram=f.dict.gram.tolist())
        g, h = KrlsAldReg.from_snapshot(legacy), KrlsAldReg.from_snapshot(snap)
        for i in range(50, 100):
            a, b = g.step(U[i], d[i]), h.step(U[i], d[i])
            assert a.y == b.y and a.e == b.e and a.grew == b.grew
        assert_state_equal(g, state_copy(h))

    @pytest.mark.parametrize("grown", ["spaced_1d", "sysid_k480"])
    def test_grown_inverse_round_trips(self, grown, grown_filters):
        """The incrementally built W of these two filters is the factor the
        filter runs on, not the dense one. The snapshot does not store it: the
        loader must rebuild it by replay, and the filter resume bit-identically."""
        f, U, d, i = grown_filters[grown]
        snap = f.to_snapshot(resume_exact=True)
        assert "W" not in snap
        g = KrlsAldReg.from_snapshot(snap)
        assert np.array_equal(g.dict.W, f.dict.W)
        f = copy.deepcopy(f)
        for j in range(i, i + 30):
            a, b = f.step(U[j], d[j]), g.step(U[j], d[j])
            assert a.y == b.y and a.e == b.e and a.grew == b.grew
        assert_state_equal(g, state_copy(f))

    @pytest.mark.parametrize("grown", ["spaced_1d", "sysid_k480"])
    @pytest.mark.parametrize("tamper", ["inf", "short", "upper", "huge", "largest"])
    def test_stored_w_entry_is_ignored(self, tamper, grown, grown_filters):
        """W follows from the centers, so a "W" entry, as older snapshots
        carry, is never read: however it is corrupted, the loaded filter
        holds the grown W."""
        f = grown_filters[grown][0]
        W = f.dict.W.copy()
        if tamper == "inf":
            W.flat[W.size // 2] = math.inf
        elif tamper == "short":
            W = W[:-1]
        elif tamper == "upper":
            W[0, -1] = 1e-300
        elif tamper == "huge":
            W = np.tril(np.full_like(W, 1e308))
        else:
            i, j = np.unravel_index(np.abs(W).argmax(), W.shape)
            W[i, j] *= 1 + 1e-6
        g = KrlsAldReg.from_snapshot(dict(f.to_snapshot(resume_exact=True), W=W.tolist()))
        assert np.array_equal(g.dict.W, f.dict.W)

    def test_snapshot_without_pending_rows_resumes(self):
        """Older snapshots store P itself and b, with no "P_pending": P loads
        as P_b with no rows pending, and the filter steps as the saved one,
        with the same admissions and outputs to roundoff."""
        f, C = with_pending(9)
        snap = f.to_snapshot(resume_exact=True)
        assert len(snap["P_pending"]) == 9
        old = {key: value for key, value in snap.items() if key != "P_pending"}
        old["P"] = f.P.tolist()
        g = KrlsAldReg.from_snapshot(json.loads(json.dumps(old)))
        assert g._m == 0 and np.array_equal(g.P, f.P) and np.array_equal(g.b, f.b)
        rng = np.random.default_rng(3)
        for i in range(3 * PENDING):
            u = C[i % len(C)] if i % 3 else rng.uniform(-10, 150, 1)
            a, b = f.step(u, 0.2), g.step(u, 0.2)
            assert a.grew == b.grew
            assert abs(a.y - b.y) <= 1e-12 * max(1.0, abs(a.y))
        assert np.abs(g.P - f.P).max() <= 1e-12 * np.abs(f.P).max()

    @pytest.mark.parametrize("field, value", [
        ("lambda", -5.0),
        ("lambda", math.inf),
        ("lambda", math.nan),
        ("delta", -1.0),
        ("delta", math.nan),
        ("resume_exact", "yes"),
        ("n", 2),                 # fewer samples than centers
        ("alpha", "nan"),
        ("alpha", "short"),
        ("P", "nan"),
        ("P", "short"),
        ("b", "nan"),
        ("b", "short"),
        ("P", "asymmetric"),
        ("M", "legacy"),          # any entry of the former P/M/G^-1 state
        ("gram_inv", "legacy"),
        ("centers_sha256", None),
        ("P_pending", "nan"),     # the rows of Y that P_b has not absorbed
        ("P_pending", "inf"),
        ("P_pending", "narrow"),
        ("P_pending", "flat"),
        ("P_pending", "empty"),
        ("P_pending", "too_many"),
        ("P_pending", "at_small_k"),
    ])
    def test_corrupted_field_rejected(self, field, value):
        if field == "P_pending" and value != "at_small_k":
            f = with_pending(5)[0]
        else:
            U, d = stream_2d(40, 41)
            f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
            for i in range(1, 40):
                f.step(U[i], d[i])
        snap = f.to_snapshot(resume_exact=True)
        KrlsAldReg.from_snapshot(copy.deepcopy(snap))  # intact: loads
        arr = np.array(snap.get(field, 0.0))
        if value == "short":
            snap[field] = arr[:-1].tolist()
        elif value == "narrow":
            snap[field] = arr[:, :-1].tolist()
        elif value == "flat":
            snap[field] = arr.ravel().tolist()
        elif value == "empty":
            snap[field] = []
        elif value == "too_many":
            snap[field] = np.resize(arr, (PENDING + 1, arr.shape[1])).tolist()
        elif value == "at_small_k":     # K <= PENDING: no row is ever pending
            assert f.dict_size <= PENDING and field not in snap
            snap[field] = np.full((1, f.dict_size), 1e-3).tolist()
        elif value in ("nan", "inf"):
            arr.flat[arr.size // 2] = float(value)
            snap[field] = arr.tolist()
        elif value == "asymmetric":
            arr[0, 1] = np.nextafter(arr[0, 1], np.inf)   # one ulp off
            snap[field] = arr.tolist()
        elif value is None:
            del snap[field]
        else:
            snap[field] = value
        with pytest.raises(ValidationError):
            KrlsAldReg.from_snapshot(snap)


def test_first_sample_becomes_first_center():
    f = KrlsAldReg(GAUSS, 0.1, math.inf, [1.25, -0.5], 0.7)
    np.testing.assert_array_equal(f.dict.centers, [[1.25, -0.5]])
    # infinite threshold: the dictionary never grows past that first center
    rng = np.random.default_rng(31)
    for _ in range(50):
        f.step(rng.standard_normal(2), 0.1)
    assert f.dict_size == 1


def first_growth_from(n: int) -> tuple[int, int]:
    """The first size >= n at which `reserve_square` grows a full buffer, and
    the capacity it grows to."""
    buf = np.zeros((0, 0))
    for k in range(10 * n):
        grown = reserve_square(buf, k)
        if grown is not buf and k >= n:
            return k, grown.shape[0]
        buf = grown
    raise AssertionError("reserve_square never grew")


@settings(max_examples=30)
@given(pending=st.sampled_from([0, 1, PENDING - 1]), grown=st.booleans(),
       lam=st.sampled_from([0.0, 1e-3, 0.1, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_snapshot_with_pending_rows_resumes_bit_for_bit(pending, grown, lam, seed):
    """A resume_exact snapshot taken with 0, 1 or PENDING - 1 rows pending,
    at K = 40 or just after P_b's and W's buffers grew (the first growth of
    `reserve_square` from K = 2 PENDING on), stores P_b and the pending rows
    as they are: the loaded filter steps and runs bit for bit as the saved
    one, across later flushes and growth. Taking the snapshot flushes
    nothing, so the saved filter's later outputs are those of a deep copy
    that was never snapshotted."""
    at, cap = first_growth_from(2 * PENDING)
    k = at + 1 if grown else 40
    f, C = with_pending(pending, lam=lam, extra=k - PENDING)
    assert f.dict_size == k and f._m == pending
    if grown:
        assert f._Pb.shape == f.dict._W.shape == (cap, cap)
    never = copy.deepcopy(f)
    snap = json.loads(json.dumps(f.to_snapshot(resume_exact=True)))
    assert ("P_pending" in snap) == (pending > 0)
    g = KrlsAldReg.from_snapshot(snap)
    filters = (f, g, never)
    rng = np.random.default_rng(seed)
    # repeats of the centers (unchanged steps) and new points (some grow)
    U = np.where(rng.random((3 * PENDING, 1)) < 0.7, C[rng.integers(0, k, (3 * PENDING, 1))][..., 0],
                 rng.uniform(-5, 3 * k + 5, (3 * PENDING, 1)))
    d = np.sin(U[:, 0]) + 0.1 * rng.standard_normal(3 * PENDING)
    for u, t in zip(U[:2 * PENDING], d[:2 * PENDING]):
        outs = [h.step(u, t) for h in filters]
        assert len({(o.y, o.e, o.grew) for o in outs}) == 1
    runs = [h.run(U[2 * PENDING:], d[2 * PENDING:]) for h in filters]
    for out in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], out))
    for h in filters[1:]:
        assert h._m == f._m
        assert h.P.tobytes() == f.P.tobytes() and h.b.tobytes() == f.b.tobytes()
