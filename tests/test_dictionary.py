import copy
import json
import math

import numpy as np
import pytest

from kaf import (Dictionary, KernelSpec, KrlsAldReg, StreamConfig, dictionary, generate, gram,
                 krls)
from kaf.base import EXACT_SIZE_MAX, reserve_square
from kaf._blas import W_BLOCK
from kaf.dictionary import GROWTH_FLOOR, AldScreen
from kaf.exceptions import (
    DimensionMismatchError,
    NearSingularGrowthError,
    NumericalError,
    ValidationError,
)
from kaf.kernels import kernel_vector
from kaf.oracle import polynomial_feature_map

GAUSS = KernelSpec("gaussian", sigma=1.0)


def coefficients(d, res):
    """a = W^T l = G^-1 h: the ALD coefficients of the tested input."""
    return res.l @ d.W


def dense_factor(d):
    """The inverse Cholesky factor of the recomputed Gram matrix."""
    return np.linalg.inv(np.linalg.cholesky(d.gram))


def grown_dictionary(spec, points, delta):
    d = Dictionary(spec, points[0])
    for u in points[1:]:
        res = d.ald_test(u, delta)
        if res.admitted:
            d.grow(u, res)
    return d


class TestAldTest:
    def test_exact_self_representation(self):
        d = Dictionary(GAUSS, [0.5, -1.0])
        res = d.ald_test([0.5, -1.0], 0.0)
        np.testing.assert_allclose(coefficients(d, res), [1.0])
        assert res.d2 == 0.0
        assert not res.admitted

    def test_gaussian_far_point(self):
        d = Dictionary(GAUSS, [0.0])
        res = d.ald_test([2.0], 0.1)
        e4 = math.exp(-4.0)
        np.testing.assert_allclose(kernel_vector(GAUSS, d.centers, np.array([2.0])), [e4],
                                   rtol=1e-15)
        np.testing.assert_allclose(coefficients(d, res), [e4], rtol=1e-15)
        assert res.d2 == pytest.approx(1.0 - math.exp(-8.0), rel=1e-12)
        assert res.admitted

    def test_polynomial_scalar_case(self):
        # poly degree 1 makes the feature space explicit: phi(u) = [1, u];
        # the residual can be cross-checked by 2-D least squares.
        spec = KernelSpec("polynomial", degree=1)
        d = Dictionary(spec, [1.0])
        res = d.ald_test([3.0], 0.0)
        np.testing.assert_allclose(kernel_vector(spec, d.centers, np.array([3.0])), [4.0])
        np.testing.assert_allclose(coefficients(d, res), [2.0])
        assert res.d2 == pytest.approx(2.0, abs=1e-12)

        phi = polynomial_feature_map([[1.0], [3.0]], 1)
        coef, residual, *_ = np.linalg.lstsq(phi[:1].T, phi[1], rcond=None)
        assert coef[0] == pytest.approx(2.0, abs=1e-12)
        assert residual[0] == pytest.approx(res.d2, abs=1e-12)

    def test_member_yields_indicator(self):
        rng = np.random.default_rng(0)
        d = grown_dictionary(GAUSS, rng.uniform(-2, 2, (30, 2)), 0.01)
        for idx in range(d.size):
            res = d.ald_test(d.centers[idx], 0.0)
            assert res.d2 <= 1e-10
            ind = np.zeros(d.size)
            ind[idx] = 1.0
            np.testing.assert_allclose(coefficients(d, res), ind, atol=1e-8)

    def test_residual_matches_feature_space_lstsq(self):
        rng = np.random.default_rng(1)
        for degree in (1, 2):
            spec = KernelSpec("polynomial", degree=degree)
            pts = rng.uniform(-1, 1, (5, 3))
            d = grown_dictionary(spec, pts, 1e-8)
            for _ in range(10):
                u = rng.uniform(-1, 1, 3)
                res = d.ald_test(u, 0.0)
                phi_c = polynomial_feature_map(d.centers, degree)
                phi_u = polynomial_feature_map(u[None, :], degree)[0]
                _, resid, rank, _ = np.linalg.lstsq(phi_c.T, phi_u, rcond=None)
                brute = resid[0] if resid.size else float(
                    np.linalg.norm(phi_c.T @ np.linalg.lstsq(phi_c.T, phi_u,
                                                             rcond=None)[0] - phi_u) ** 2)
                assert res.d2 == pytest.approx(brute, abs=1e-10)

    def test_does_not_mutate(self):
        d = Dictionary(GAUSS, [0.0])
        before = d.gram.copy()
        d.ald_test([2.0], 0.0)
        assert d.size == 1
        np.testing.assert_array_equal(d.gram, before)

    def test_dimension_mismatch(self):
        d = Dictionary(GAUSS, [0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            d.ald_test([0.0], 0.1)

    def test_negative_delta_rejected(self):
        d = Dictionary(GAUSS, [0.0])
        for delta in (-0.5, math.nan):
            with pytest.raises(ValidationError):
                d.ald_test([1.0], delta)

    def test_non_finite_inverse_reports_condition_diagnostic(self):
        # white-box: a corrupted factor must surface as a NumericalError
        # carrying the condition diagnostic, not as silent NaN propagation
        d = Dictionary(GAUSS, [0.0])
        d._W[0, 0] = np.nan
        with pytest.raises(NumericalError, match="cond"):
            d.ald_test([1.0], 0.1)

    def test_overflowing_polynomial_first_center_refused(self):
        """k(u, u) = (1e400 + 1)^2 overflows to inf: no first center, and no
        numpy warning."""
        poly = KernelSpec("polynomial", degree=2)
        for build in (lambda: Dictionary(poly, [1e200]),
                      lambda: KrlsAldReg(poly, 0.1, 0.01, [1e200], 1.0)):
            with pytest.raises(ValidationError,
                               match=r"degenerate first center: k\(u, u\) = inf"):
                build()

    def test_overflowing_polynomial_kernel_value_is_named(self):
        """After the center [1.0], the input [1e200] overflows k(u, u) and
        k(c, u): the error names them, not the well-conditioned 1 x 1 Gram
        matrix, with no numpy warning, and the filter is as it was, whether
        the input comes through `step` or through `run`'s screen."""
        poly = KernelSpec("polynomial", degree=2)
        d = Dictionary(poly, [1.0])
        f = KrlsAldReg(poly, 0.1, 0.01, [1.0], 1.0)
        snap = f.to_snapshot(resume_exact=True)
        for step in (lambda: d.ald_test([1e200], 0.01), lambda: f.step([1e200], 1.0),
                     lambda: f.run([[1e200], [2.0]], [1.0, 1.0])):
            with pytest.raises(NumericalError,
                               match=r"kernel values are not finite \(k\(u, u\) = inf, "
                                     r"max \|k\(c_i, u\)\| = inf\)") as exc:
                step()
            assert "cond" not in str(exc.value)
        assert f.to_snapshot(resume_exact=True) == snap


class TestGrow:
    def test_two_point_gram(self):
        d = Dictionary(GAUSS, [0.0])
        res = d.ald_test([2.0], 0.5)
        d.grow([2.0], res)
        e4 = math.exp(-4.0)
        np.testing.assert_allclose(d.gram, [[1.0, e4], [e4, 1.0]], rtol=1e-15)
        resid = np.linalg.norm(d.gram @ d.W.T @ d.W - np.eye(2), ord=np.inf)
        assert resid <= 1e-10
        np.testing.assert_allclose(d.W, [[1.0, 0.0], [-e4, 1.0]] / np.array(
            [[1.0], [math.sqrt(1.0 - e4 * e4)]]), rtol=1e-15)

    def test_inverse_matches_dense_inversion_along_stream(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, (100, 2))
        d = Dictionary(GAUSS, pts[0])
        for u in pts[1:]:
            res = d.ald_test(u, 0.1)
            if res.admitted:
                d.grow(u, res)
                dense = dense_factor(d)
                assert np.abs(d.W.T @ d.W - dense.T @ dense).max() <= 1e-8
                assert np.abs(d.W - dense).max() <= 1e-8
                assert not np.triu(d.W, 1).any()

    def test_gram_matches_recomputation(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, (60, 3))
        d = grown_dictionary(GAUSS, pts, 0.05)
        assert d.size > 3
        np.testing.assert_allclose(d.gram, gram(GAUSS, d.centers), atol=1e-12)

    def test_infinite_delta_keeps_single_center(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((50, 2))
        d = grown_dictionary(GAUSS, pts, math.inf)
        assert d.size == 1

    def test_zero_delta_admits_every_distinct_point(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-5, 5, (40, 2))
        d = grown_dictionary(GAUSS, pts, 0.0)
        assert d.size == 40

    def test_refuses_near_singular_extension(self):
        d = Dictionary(GAUSS, [0.0])
        res = d.ald_test([1e-7], 1e-15)
        assert res.admitted and res.d2 < GROWTH_FLOOR
        with pytest.raises(NearSingularGrowthError):
            d.grow([1e-7], res)
        assert d.size == 1  # untouched

    def test_rejected_result_refused(self):
        d = Dictionary(GAUSS, [0.0])
        res = d.ald_test([0.1], 10.0)
        assert not res.admitted
        with pytest.raises(ValidationError):
            d.grow([0.1], res)

    def test_stale_result_refused(self):
        d = Dictionary(GAUSS, [0.0])
        res = d.ald_test([2.0], 0.1)
        d.grow([2.0], res)
        with pytest.raises(ValidationError):
            d.grow([4.0], res)


class TestSnapshot:
    def test_checksum_is_pinned(self):
        """The checksum hashes the (K, L) centers in C order, whatever the
        buffer's layout: snapshots written by earlier versions still load."""
        pts = [[0.0, 1.0, -0.5], [2.0, -1.0, 0.25], [0.5, 3.0, 1.0],
               [-1.5, 0.0, 2.0], [1.0, 1.0, 1.0]]
        d = grown_dictionary(GAUSS, pts, 0.1)
        snap = d.to_snapshot()
        assert snap["centers"] == pts
        assert snap["centers_sha256"] == (
            "d62397ca400e5ce0840f4098fe9af46aa7036410f5420a0966f3b80b1282ff69")
        np.testing.assert_array_equal(Dictionary.from_snapshot(snap).centers, pts)

    def test_round_trip_recompute(self):
        rng = np.random.default_rng(6)
        d = grown_dictionary(GAUSS, rng.uniform(-2, 2, (40, 2)), 0.05)
        d2 = Dictionary.from_snapshot(d.to_snapshot())
        np.testing.assert_array_equal(d2.centers, d.centers)
        np.testing.assert_allclose(d2.gram, d.gram, atol=1e-12)
        assert np.linalg.norm(d2.gram @ d2.W.T @ d2.W - np.eye(d2.size), np.inf) <= 1e-8

    def test_round_trip_replays_grown_factor(self):
        """The snapshot holds no W; replaying the admissions rebuilds it bit for bit."""
        rng = np.random.default_rng(7)
        d = grown_dictionary(GAUSS, rng.uniform(-2, 2, (30, 2)), 0.05)
        snap = d.to_snapshot()
        assert "W" not in snap
        d2 = Dictionary.from_snapshot(snap)
        np.testing.assert_array_equal(d2.gram, d.gram)
        np.testing.assert_array_equal(d2.W, d.W)

    def test_checksum_detects_tampering(self):
        d = grown_dictionary(GAUSS, [[0.0], [2.0]], 0.1)
        snap = d.to_snapshot()
        snap["centers"][0][0] += 1.0
        with pytest.raises(ValidationError):
            Dictionary.from_snapshot(snap)

    def test_missing_checksum_rejected(self):
        d = grown_dictionary(GAUSS, [[0.0], [2.0]], 0.1)
        snap = d.to_snapshot()
        del snap["centers_sha256"]
        snap["centers"][0][0] += 1.0
        with pytest.raises(ValidationError, match="centers_sha256"):
            Dictionary.from_snapshot(snap)

    def test_singular_centers_are_a_numerical_error(self):
        """Duplicate centers make G exactly singular. The checksum is checked
        before the replay, so with a stale one they are a ValidationError; with
        a matching one the replay cannot admit the copy: NumericalError."""
        d = grown_dictionary(GAUSS, [[0.0], [2.0]], 0.1)
        snap = d.to_snapshot()
        snap["centers"] = [snap["centers"][0]] * 2
        with pytest.raises(ValidationError, match="checksum"):
            Dictionary.from_snapshot(snap)
        snap["centers_sha256"] = dictionary._checksum(np.array(snap["centers"]))
        with pytest.raises(NumericalError, match="near-singular"):
            Dictionary.from_snapshot(snap)


def never_read(cap: int, k: int, backend: str) -> np.ndarray:
    """Mask of the entries of a (cap, cap) buffer holding W at size k that
    no product on `backend` reads, at k or any later size. On either, those
    at or left of the diagonal in the rows from k on, which `_grow` writes
    before any product reads them. The reference backend reads W's (K, K)
    block whole, so every entry above the diagonal is read, as the zeros
    `reserve_square` leaves there. The kernels read only the lower triangle
    past W_BLOCK, so on their backend the entries above the diagonal
    outside the leading (W_BLOCK, W_BLOCK) block go unread too."""
    i, j = np.indices((cap, cap))
    unread = (i >= k) & (j <= i)
    if backend == "blas":
        unread |= (j > i) & (j >= W_BLOCK)
    return unread


def upper_nan_filling(buf: np.ndarray, n: int) -> np.ndarray:
    """`reserve_square` for P_b, with NaN in the strict upper triangle of the
    buffer it returns once K exceeds W_BLOCK: from row and column n = W_BLOCK
    on. The bordering step writes P_b's new row and column after it."""
    grown = reserve_square(buf, n)
    if n >= W_BLOCK:
        grown[np.triu_indices(grown.shape[0], 1)] = np.nan
    return grown


def nan_filling(backend: str):
    """`reserve_square`, with NaN in every entry of a new buffer that
    `never_read` names for `backend`."""
    def filling(buf: np.ndarray, n: int) -> np.ndarray:
        grown = reserve_square(buf, n)
        if grown is not buf:
            grown[never_read(grown.shape[0], n, backend)] = np.nan
        return grown
    return filling


class TestTriangle:
    """The filter reads W only where its buffer holds the factor or the
    zeros above its diagonal, and reads P_b's lower triangle only where
    the kernels serve the products."""

    @pytest.mark.parametrize("k", [W_BLOCK - 1, W_BLOCK, W_BLOCK + 1, 2 * W_BLOCK + 1])
    def test_filter_reads_no_entry_outside_the_block_triangle(self, k, each_backend,
                                                              monkeypatch):
        """A KRLS filter whose W buffer holds NaN at every entry `never_read`
        names for its backend, from K = k on, steps, runs, predicts,
        screens, resumes from a resume_exact snapshot and saves one bit for
        bit as one whose buffer holds zeros there; so does a snapshot's
        replay with NaN in every buffer it grows. On the kernels' backend
        P_b's strict upper triangle holds NaN too, in every buffer P_b
        takes, from K > W_BLOCK on."""
        U, d = generate(StreamConfig("nonlinear_sysid", length=1500, noise_std=0.1, seed=1,
                                     embed_L=3))
        for backend in each_backend():
            f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
            i = 1
            while f.dict_size < k:
                f.step(U[i], d[i])
                i += 1
            g = copy.deepcopy(f)
            snap = json.loads(json.dumps(f.to_snapshot(resume_exact=True)))

            def outputs(h):
                screen = AldScreen(h.dict, U[i:i + 64])
                out = [screen.L.copy(), screen.d2.copy(), screen.rejects(h.delta),
                       h.alpha.copy(), np.array([h.predict(u) for u in U[i:i + 64]])]
                out += [np.array(h.step(U[j], d[j])) for j in range(i, i + 100)]
                out += h.run(U[i + 100:i + 400], d[i + 100:i + 400])
                return out + [np.tril(h.dict.W), h.P, h.b,
                              json.dumps(h.to_snapshot(resume_exact=True))]

            want = outputs(f)
            assert want[-4].shape[0] > k  # the steps and the run admitted centers
            resumed = outputs(KrlsAldReg.from_snapshot(snap))
            with monkeypatch.context() as m:
                m.setattr(dictionary, "reserve_square", nan_filling(backend))
                g.dict._W[never_read(g.dict._W.shape[0], k, backend)] = np.nan
                loaded = KrlsAldReg.from_snapshot(snap)
                if backend == "blas":
                    m.setattr(krls, "reserve_square", upper_nan_filling)
                    for h in (g, loaded):
                        if k > W_BLOCK:
                            h._Pb[np.triu_indices(h._Pb.shape[0], 1)] = np.nan
                for got in (resumed, outputs(g), outputs(loaded)):
                    assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))


class TestCapacity:
    @pytest.mark.parametrize("n", [0, 1, EXACT_SIZE_MAX - 1, EXACT_SIZE_MAX, 100, 511, 1000])
    def test_reserve_square_grows_by_an_eighth(self, n):
        """A full buffer grows to room for row and column n, exact-size below
        EXACT_SIZE_MAX and with at most n/8 more beyond; the (n, n) block is
        kept and every new entry is 0, so W still reads 0 above its diagonal.
        A buffer with room is returned as it is."""
        rng = np.random.default_rng(n)
        buf = rng.standard_normal((n, n))
        grown = reserve_square(buf, n)
        cap = grown.shape[0]
        assert grown.shape == (cap, cap) and cap >= n + 1
        if n < EXACT_SIZE_MAX:
            assert cap == n + 1
        else:
            assert cap - n <= n / 8
        assert np.array_equal(grown[:n, :n], buf)
        grown[:n, :n] = 0.0
        assert not grown.any()
        assert reserve_square(grown, n) is grown
