import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kaf import KernelSpec, Klms, KrlsAldReg, StreamConfig, generate
from kaf.exceptions import (DimensionMismatchError, NonFiniteInputError, NumericalError,
                            ValidationError)
from kaf.experiments import step_loop
from kaf.kernels import SHIFT_TOL, TILE, Centers, kernel_eval, kernel_matrix, kernel_vector
from kaf.klms import BLOCK
from kaf.oracle import feature_space_lms
from test_kernels import assert_same_store

GAUSS = KernelSpec("gaussian", sigma=1.0)


class TestInit:
    def test_zero_first_target(self):
        f = Klms(GAUSS, 0.5, [0.0], 0.0)
        np.testing.assert_array_equal(f.coeffs, [0.0])

    def test_first_coefficient_is_eta_times_target(self):
        f = Klms(GAUSS, 0.5, [0.0], 1.0)
        np.testing.assert_array_equal(f.coeffs, [0.5])
        assert f.n == 1 and len(f.centers) == 1

    def test_eta_validation(self):
        with pytest.raises(ValidationError):
            Klms(GAUSS, 0.0, [0.0], 1.0)
        with pytest.raises(ValidationError):
            Klms(GAUSS, -0.1, [0.0], 1.0)


class TestStep:
    def test_hand_executed_two_steps(self):
        """Same input twice, eta = 0.5: y(2) = 0.5 * k = 0.5, e(2) = 0.5,
        appended coefficient 0.25."""
        f = Klms(GAUSS, 0.5, [0.0], 1.0)
        out = f.step([0.0], 1.0)
        assert out.y == pytest.approx(0.5, abs=1e-15)
        assert out.e == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(f.coeffs, [0.5, 0.25], rtol=1e-15)

    def test_far_input_sees_vanishing_kernels(self):
        f = Klms(GAUSS, 0.5, [0.0], 1.0)
        out = f.step([100.0], 0.7)
        assert abs(out.y) < 1e-300
        assert out.e == pytest.approx(0.7, abs=1e-300)

    def test_network_growth_is_linear(self):
        rng = np.random.default_rng(0)
        f = Klms(GAUSS, 0.2, rng.standard_normal(3), 0.1)
        for i in range(2, 150):
            out = f.step(rng.standard_normal(3), float(rng.standard_normal()))
            assert out.grew and out.dict_size == i and f.n == i
        assert len(f.centers) == len(f.coeffs) == 149

    def test_coefficients_are_eta_times_errors(self):
        rng = np.random.default_rng(1)
        eta = 0.3
        f = Klms(GAUSS, eta, rng.standard_normal(2), 0.4)
        errors = [0.4]
        for _ in range(40):
            out = f.step(rng.standard_normal(2), float(rng.standard_normal()))
            errors.append(out.e)
        np.testing.assert_array_equal(f.coeffs, eta * np.asarray(errors))

    def test_feature_space_equivalence(self):
        """Polynomial degree 2 has an exact finite feature map, so kernel LMS
        and explicit-feature LMS with the same eta coincide step by step."""
        rng = np.random.default_rng(2)
        U = rng.uniform(-1, 1, (200, 2))
        d = np.sin(U[:, 0]) + U[:, 1] ** 2 + 0.05 * rng.standard_normal(200)
        ref = feature_space_lms(U, d, 0.1, 2)
        f = Klms(KernelSpec("polynomial", degree=2), 0.1, U[0], d[0])
        assert abs(ref[0]) == 0.0
        for i in range(1, 200):
            out = f.step(U[i], d[i])
            assert out.y == pytest.approx(ref[i], abs=1e-10)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((100, 2))
        d = rng.standard_normal(100)
        runs = []
        for _ in range(2):
            f = Klms(GAUSS, 0.2, U[0], d[0])
            for i in range(1, 100):
                f.step(U[i], d[i])
            runs.append(f.coeffs.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_divergent_step_refused_before_any_write(self):
        """eta * e overflows to inf: the step raises NumericalError and the
        filter, its buffers included, is as it was."""
        f = Klms(GAUSS, 10.0, [0.0], 0.5)
        f.step([1.0], 0.25)
        before = f.to_snapshot()
        with pytest.raises(NumericalError, match="not finite"):
            f.step([0.5], 1e308)
        assert f.to_snapshot() == before and f.n == 2
        assert f.step([0.5], 0.25).dict_size == 3  # and it still steps
        with pytest.raises(NumericalError, match="not finite"):
            Klms(GAUSS, 10.0, [0.0], 1e308)  # the first term is checked alike

    def test_overflowing_polynomial_kernel_refused_without_a_warning(self):
        """k(1, 1e200) = (1e200 + 1)^2 overflows: y is inf, and the step is
        refused as a divergent one, with no numpy warning."""
        f = Klms(KernelSpec("polynomial", degree=2), 0.1, [1.0], 1.0)
        with pytest.raises(NumericalError, match="not finite"):
            f.step([1e200], 1.0)
        assert f.n == 1

    def test_far_from_the_first_center_steps_without_refusal(self):
        """||w||^2 = ||u - c_1||^2 overflows 4e400 here, so the shifted sum
        would be inf - inf: the step takes the explicit differences instead,
        and every true kernel value, 0, with no numpy warning. Once that q_i
        is stored, every query does, and a resumed filter alike."""
        f = Klms(GAUSS, 0.1, [1e200], 1.0)
        assert f.step([-1e200], 1.0) == (0.0, 1.0, True, 2)
        g = Klms.from_snapshot(f.to_snapshot())
        for filt in (f, g):
            assert filt.step([0.0], 1.0) == (0.0, 1.0, True, 3)
            assert filt.predict([1e200]) == 0.1 and filt.predict([3.0]) == 0.1 * math.exp(-9.0)

    @pytest.mark.parametrize("sigma, center, query", [(1e-3, 1e5, 1e5 + 1e-3),
                                                      (1e-150, 1e-140, 1e-140)])
    def test_wide_spread_takes_the_explicit_differences(self, sigma, center, query):
        """A spread of 1e8 widths or more puts the shifted sum's exponent
        bound past SHIFT_TOL, so the sum is `kernel_vector`'s explicit
        differences: at sigma = 1e-3 the query 1e-3 from the center at 1e5
        reads 0.5 e^-1, where the shifted sum read 0.0677, and at
        sigma = 1e-150 the center at 1e-140 reads its coefficient at itself,
        where the shifted sum read 0. A resumed filter alike. A KRLS
        dictionary at L = 3 given that center (about 140 widths out is
        enough) sums every later prediction, at the far center and at the
        first, explicitly, bit for bit, with no numpy warning."""
        spec = KernelSpec("gaussian", sigma=sigma)
        f = Klms(spec, 0.5, [0.0], 1.0)
        f.step([center], 1.0)
        g = Klms.from_snapshot(f.to_snapshot())
        for filt in (f, g):
            explicit = kernel_vector(filt.spec, filt.centers, np.array([query])) @ filt.coeffs
            assert abs(filt.predict([query]) - explicit) <= 1e-12
            assert filt.predict([query]) == pytest.approx(0.5 * math.exp(-1.0 + (center == query)),
                                                          rel=1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = KrlsAldReg(spec, 0.1, 0.01, [0.0, 0.0, 0.0], 1.0)
            assert k.step([center, 0.0, 0.0], 1.0).grew
            for filt in (k, KrlsAldReg.from_snapshot(k.to_snapshot())):
                assert filt.dict._centers._scale == math.inf
                for q in ([query, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, sigma, -sigma]):
                    q = np.array(q)
                    assert filt.predict(q) == float(
                        kernel_vector(spec, filt.dict.centers, q) @ filt.alpha)

    def test_benchmark_streams_keep_the_shifted_sum(self):
        """On `kaf run`'s dim-3 `nonlinear_sysid` stream at sigma = 1, every
        bound stays far below SHIFT_TOL: the shifted sum serves every query."""
        U, d = generate(StreamConfig("nonlinear_sysid", length=3000, noise_std=0.1, seed=1,
                                     embed_L=3))
        f = Klms(GAUSS, 0.2, U[0], d[0])
        for u, t in zip(U[1:], d[1:]):
            f.step(u, t)
        w = U - U[0]
        assert np.einsum("ij,ij->i", w, w).max() * f._centers._scale <= SHIFT_TOL / 100

    def test_tiny_sigma_sees_only_exact_repeats(self):
        """At sigma = 1e-160, 2/sigma^2 overflows, so every sum takes the
        explicit differences, the first at c_1 included: each kernel value
        is 1 at a repeated center and 0 elsewhere, as it is exactly, with no
        numpy warning."""
        f = Klms(KernelSpec("gaussian", sigma=1e-160), 0.5, [0.0], 1.0)
        assert f.predict([0.0]) == 0.5
        assert f.step([1e-140], 1.0).y == 0.0
        assert f.step([0.0], 2.0).y == 0.5
        assert f.predict([1e-140]) == 0.5 and f.predict([1.0]) == 0.0

    def test_dimension_mismatch_transactional(self):
        f = Klms(GAUSS, 0.2, [0.0, 0.0], 1.0)
        coeffs = f.coeffs.copy()
        with pytest.raises(DimensionMismatchError):
            f.step([1.0], 0.5)
        assert np.array_equal(f.coeffs, coeffs) and f.n == 1


class TestPredict:
    def test_single_term(self):
        f = Klms(GAUSS, 0.5, [0.2], 1.0)
        u = [1.2]
        assert f.predict(u) == 0.5 * kernel_eval(GAUSS, [0.2], u)

    def test_zero_coefficients(self):
        f = Klms(GAUSS, 0.5, [0.2], 0.0)
        f.step([1.0], f.predict([1.0]))  # zero-error step appends a zero
        assert f.predict([3.0]) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        f = Klms(GAUSS, 0.2, rng.standard_normal(2), 0.3)
        for _ in range(30):
            f.step(rng.standard_normal(2), float(rng.standard_normal()))
        for _ in range(10):
            u = rng.standard_normal(2)
            brute = sum(f.coeffs[i] * kernel_eval(GAUSS, f.centers[i], u)
                        for i in range(f.n))
            assert f.predict(u) == pytest.approx(brute, abs=1e-12)

    def test_a_center_sees_itself_with_kernel_value_at_most_one(self):
        """k(u, u) = 1; roundoff in the distance form must not push a term's
        kernel value above 1 at far-offset inputs."""
        rng = np.random.default_rng(8)
        spec = KernelSpec("gaussian", sigma=0.01)
        for _ in range(200):
            c1 = 1e4 * rng.uniform(-1, 1, 3)
            f = Klms(spec, 1.0, c1, 0.0)   # the first term's coefficient is 0
            u = c1 + rng.standard_normal(3)
            f.step(u, 1.0)                 # y = 0, so the new term's coefficient is 1
            assert 0.0 < f.predict(u) <= 1.0


class TestSnapshot:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        f = Klms(GAUSS, 0.2, rng.standard_normal(2), 0.3)
        for _ in range(20):
            f.step(rng.standard_normal(2), float(rng.standard_normal()))
        snap = f.to_snapshot()
        assert snap["algorithm"] == "klms"
        assert set(snap) == {"algorithm", "kernel", "eta", "centers", "coeffs"}
        g = Klms.from_snapshot(snap)
        assert np.array_equal(g.centers, f.centers)
        assert np.array_equal(g.coeffs, f.coeffs)
        u = rng.standard_normal(2)
        assert g.predict(u) == f.predict(u)
        # resumed training continues bit-identically
        a = f.step([0.5, 0.5], 1.0)
        b = g.step([0.5, 0.5], 1.0)
        assert a.y == b.y and a.e == b.e

    def test_offset_round_trip_resumes_bit_for_bit_after_the_buffers_grew(self):
        rng = np.random.default_rng(7)
        U = 1e4 + rng.standard_normal((60, 3))
        d = rng.standard_normal(60)
        f = Klms(GAUSS, 0.2, U[0], d[0])
        for i in range(1, 40):
            f.step(U[i], d[i])
        g = Klms.from_snapshot(json.loads(json.dumps(f.to_snapshot())))
        assert g.predict(U[0] + 0.5) == f.predict(U[0] + 0.5)
        for i in range(40, 60):
            a, b = f.step(U[i], d[i]), g.step(U[i], d[i])
            assert a.y == b.y and a.e == b.e
        assert np.array_equal(g.coeffs, f.coeffs)

    @pytest.mark.parametrize("spec", [KernelSpec("gaussian", sigma=0.8),
                                      KernelSpec("polynomial", degree=2)])
    def test_resume_at_45_terms_across_the_next_doubling(self, spec):
        """A snapshot at 45 terms replays its terms into new buffers, which
        double as the saved filter's did, at 64. Stepped past that, the two
        agree bit for bit. A polynomial
        filter, resumed or not, keeps no shifted columns: its sum is the
        kernel vector's dot with the coefficients, bit for bit."""
        rng = np.random.default_rng(12)
        U = 0.5 * rng.standard_normal((130, 3))
        d = rng.standard_normal(130)
        f = Klms(spec, 0.01, U[0], d[0])
        for i in range(1, 45):
            f.step(U[i], d[i])
        g = Klms.from_snapshot(json.loads(json.dumps(f.to_snapshot())))
        assert g.n == 45
        for i in range(45, 130):
            a, b = f.step(U[i], d[i]), g.step(U[i], d[i])
            assert np.isfinite(a.y) and a.y == b.y and a.e == b.e
        assert np.array_equal(g.coeffs, f.coeffs)
        probe = 0.5 * rng.standard_normal(3)
        assert g.predict(probe) == f.predict(probe)
        if spec.family == "polynomial":
            for filt in (f, g):
                assert filt._centers._shifted is None
                assert filt.predict(probe) == float(
                    kernel_vector(spec, filt.centers, probe) @ filt.coeffs)

    def test_snapshot_with_a_term_cap_loads_ignoring_it(self):
        """Older snapshots carry a "max_terms" cap; it is ignored, even below
        the number of terms, and the filter resumes bit for bit, uncapped."""
        rng = np.random.default_rng(6)
        f = Klms(GAUSS, 0.2, rng.standard_normal(2), 0.3)
        for _ in range(5):
            f.step(rng.standard_normal(2), float(rng.standard_normal()))
        snap = json.loads(json.dumps({**f.to_snapshot(), "max_terms": 3}))
        g = Klms.from_snapshot(snap)
        assert g.to_snapshot() == f.to_snapshot()
        for _ in range(20):
            u, d = rng.standard_normal(2), float(rng.standard_normal())
            a, b = f.step(u, d), g.step(u, d)
            assert (a.y, a.e, a.dict_size) == (b.y, b.e, b.dict_size)
        assert g.n == 26 and np.array_equal(g.coeffs, f.coeffs)

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            Klms.from_snapshot({"algorithm": "lms"})
        with pytest.raises(ValidationError):
            Klms.from_snapshot({"algorithm": "klms", "kernel": GAUSS.to_json(),
                                "eta": 0.1, "centers": [[0.0]], "coeffs": [1.0, 2.0]})
        for field, value in (("coeffs", [np.nan]), ("centers", [[np.inf]]),
                             ("centers", [0.0])):
            snap = {"algorithm": "klms", "kernel": GAUSS.to_json(), "eta": 0.1,
                    "centers": [[0.0]], "coeffs": [1.0]}
            snap[field] = value
            with pytest.raises(ValidationError):
                Klms.from_snapshot(snap)


EPS = 2.0 ** -53


def distance_form_bound(centers, coeffs, u, sigma):
    """Bound on |expansion - explicit-difference reference| at u.

    Per term: the exponent bound in `Centers.sum`'s docstring, plus the
    rounding of either side's 1/sigma^2 scale, exp and sum.
    """
    L, n = centers.shape[1], centers.shape[0]
    c1 = centers[0]
    w = np.linalg.norm(u - c1)
    dist = np.linalg.norm(centers - c1, axis=1)
    exponent_bound = 2 * (L + 5) * EPS * (dist * dist + w * w + dist * w) / sigma ** 2
    return float(np.abs(coeffs) @ (exponent_bound + (L + 10 + 2 * n) * EPS))


@settings(max_examples=150)
@given(L=st.integers(1, 8), steps=st.integers(1, 100), seed=st.integers(0, 2 ** 32 - 1),
       offset=st.floats(-1e4, 1e4), log_sigma=st.floats(-2, 2), log_spread=st.floats(-1, 1),
       eta=st.floats(0.01, 1.0))
def test_distance_form_matches_explicit_differences(L, steps, seed, offset, log_sigma,
                                                     log_spread, eta):
    """KLMS step, run and predict, and KRLS predict over the same samples,
    against kernel_matrix's explicit differences, within the documented
    bound, on inputs spread over a few widths about an offset. `run`'s
    e = d - y and coefficients eta e hold exactly."""
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** log_sigma
    spec = KernelSpec("gaussian", sigma=sigma)
    U = offset * rng.uniform(0.5, 1.0, L) + sigma * 10.0 ** log_spread * \
        rng.standard_normal((steps + 2, L))
    d = rng.standard_normal(steps + 2)
    f = Klms(spec, eta, U[0], d[0])
    errors = [d[0]]
    for i in range(1, steps + 1):
        centers, coeffs = f.centers.copy(), f.coeffs.copy()
        ref = float(kernel_matrix(spec, centers, U[i][None, :])[:, 0] @ coeffs)
        out = f.step(U[i], d[i])
        assert abs(out.y - ref) <= distance_form_bound(centers, coeffs, U[i], sigma)
        errors.append(out.e)
    u = U[-1]
    ref = float(kernel_matrix(spec, f.centers, u[None, :])[:, 0] @ f.coeffs)
    assert abs(f.predict(u) - ref) <= distance_form_bound(f.centers, f.coeffs, u, sigma)
    assert np.array_equal(f.coeffs, eta * np.asarray(errors))
    g = Klms(spec, eta, U[0], d[0])
    y, e, size = g.run(U[1:-1], d[1:-1])
    assert np.array_equal(e, d[1:-1] - y) and np.array_equal(size, np.arange(2, steps + 2))
    assert np.array_equal(g.coeffs, eta * np.append(d[0], e))
    for i in range(steps):
        centers, coeffs = g.centers[:i + 1], g.coeffs[:i + 1]
        ref = float(kernel_matrix(spec, centers, U[i + 1][None, :])[:, 0] @ coeffs)
        assert abs(y[i] - ref) <= distance_form_bound(centers, coeffs, U[i + 1], sigma)
    k = KrlsAldReg(spec, 0.1, 0.01, U[0], d[0])
    k.run(U[1:-1], d[1:-1])
    ref = float(kernel_matrix(spec, k.dict.centers, u[None, :])[:, 0] @ k.alpha)
    assert abs(k.predict(u) - ref) <= distance_form_bound(k.dict.centers, k.alpha, u, sigma)


def sysid(length: int, seed: int = 1, L: int = 3):
    return generate(StreamConfig("nonlinear_sysid", length=length, noise_std=0.1, seed=seed,
                                 embed_L=L))


@settings(max_examples=25, deadline=None)
@given(length=st.integers(1, TILE + 2 * BLOCK), far=st.none() | st.integers(0, TILE + 2 * BLOCK),
       seed=st.integers(0, 2 ** 32 - 1))
@example(length=TILE + 2 * BLOCK, far=None, seed=1)
@example(length=TILE + BLOCK + 3, far=TILE + 10, seed=2)
def test_run_matches_the_step_loop(length, far, seed):
    """`run` against `step_loop` on a deep copy, over streams that cross
    BLOCK and TILE: the same dict_size, e = d - y and coefficients eta e
    exactly, y to roundoff, and the buffers that appending `run`'s own
    terms one at a time leaves. A far sample mid-stream shuts the gate: its block
    and every later one go through `step`, so from there on `run` is a run
    of the blocks before it, then the step loop, bit for bit."""
    rng = np.random.default_rng(seed)
    U, d = rng.standard_normal((length + 1, 3)), rng.standard_normal(length + 1)
    if far is not None and far < length:
        U[far + 1] += 1e3
    f = Klms(GAUSS, 0.2, U[0], d[0])
    g, h = copy.deepcopy(f), copy.deepcopy(f)
    y0, _, k0, _ = step_loop(f, U, d, 1)
    y, e, size = g.run(U[1:], d[1:])
    assert np.array_equal(size, k0[1:]) and g.n == f.n == length + 1
    assert np.array_equal(e, d[1:] - y) and np.array_equal(g.coeffs, 0.2 * np.append(d[0], e))
    assert np.abs(y - y0[1:]).max() <= 1e-12
    assert_appended_one_at_a_time(g)
    if far is not None and far < length:
        b = far // BLOCK * BLOCK
        h.run(U[1:b + 1], d[1:b + 1])
        y1, e1, _, _ = step_loop(h, U, d, b + 1)
        assert y1[b + 1:].tobytes() == y[b:].tobytes() and e1[b + 1:].tobytes() == e[b:].tobytes()
        assert g.to_snapshot() == h.to_snapshot()


@pytest.mark.parametrize("spec", [KernelSpec("polynomial", degree=2),
                                  KernelSpec("gaussian", sigma=1e-160)])
def test_run_without_shifted_sums_is_the_step_loop(spec):
    """A polynomial store keeps no shifted columns, and at sigma = 1e-160 the
    gate is shut from the start: every block goes through `step`, so `run`
    is the step loop bit for bit."""
    U, d = sysid(3 * BLOCK + 5)
    f = Klms(spec, 0.002, U[0], d[0])
    g = copy.deepcopy(f)
    y0, e0, k0, _ = step_loop(f, U, d, 1)
    y, e, size = g.run(U[1:], d[1:])
    assert y.tobytes() == y0[1:].tobytes() and e.tobytes() == e0[1:].tobytes()
    assert np.array_equal(size, k0[1:]) and g.to_snapshot() == f.to_snapshot()


@pytest.mark.parametrize("case, error", [("nan", NonFiniteInputError),
                                         ("ragged", DimensionMismatchError),
                                         ("diverges", NumericalError)])
def test_run_raises_where_the_step_loop_does(case, error):
    """A non-finite sample, a ragged stream and a divergent eta: `run` raises
    the step loop's exception at the step loop's sample, and `n` counts the
    samples committed, as the step loop leaves them."""
    eta = 50.0 if case == "diverges" else 0.2
    U, d = sysid(400, L=1 if case == "diverges" else 3)
    U = U.tolist()
    if case == "nan":
        U[150][1] = math.nan
    elif case == "ragged":
        U[150] = U[150][:2]
    f = Klms(GAUSS, eta, U[0], d[0])
    g = copy.deepcopy(f)
    with pytest.raises(error) as want:
        step_loop(f, np.array(U, dtype=object), d, 1)
    with pytest.raises(error) as got:
        g.run(U[1:], d[1:])
    assert str(want.value) == f"failed at step {g.n + 1}: {got.value}"
    assert g.n == f.n == (263 - 1 if case == "diverges" else 150)
    assert np.array_equal(g.centers, f.centers)


def assert_aligned(buf: np.ndarray) -> None:
    """`buf` and each of its rows start on a 64-byte boundary."""
    for row in np.atleast_2d(buf):
        assert row.ctypes.data % 64 == 0


def test_buffers_sit_on_64_byte_boundaries():
    """The centers, the shifted columns and the coefficients start on a
    64-byte boundary, as does every row, at each capacity from 16 to 4096,
    stepped or loaded from a snapshot."""
    U, d = sysid(4096)
    f = Klms(GAUSS, 0.2, U[0], d[0])
    caps = set()
    for i in range(1, 4096):
        f.step(U[i], d[i])
        if f._coeffs.shape[0] not in caps:
            caps.add(f._coeffs.shape[0])
            for buf in (f._centers._C, f._centers._shifted, f._coeffs):
                assert_aligned(buf)
    assert caps == {16 * 2 ** k for k in range(9)}
    for n in (1, 17, 4096):
        g = Klms.from_snapshot(json.loads(json.dumps(
            {**f.to_snapshot(), "centers": f.centers[:n].tolist(),
             "coeffs": f.coeffs[:n].tolist()})))
        for buf in (g._centers._C, g._centers._shifted, g._coeffs):
            assert_aligned(buf)


def assert_appended_one_at_a_time(f: Klms) -> None:
    """`f`'s buffers are what appending its own terms one at a time through
    `Klms._append` writes: centers, shifted columns, coefficients,
    capacities and gate."""
    g = Klms(f.spec, f.eta, f.centers[0], 0.0)
    g._centers = Centers(f.spec, f.dim, shift=True)
    for u, c in zip(f.centers, f.coeffs):
        g._append(u.copy(), c)
    assert_same_store(f._centers, g._centers)
    assert f._coeffs.shape == g._coeffs.shape
    assert f.coeffs.tobytes() == g.coeffs.tobytes()


def test_snapshot_after_run_resumes_bit_for_bit():
    """A snapshot taken after `run` loads into the same buffers, and the
    resumed filter steps, and runs, as the running one does, bit for bit."""
    U, d = sysid(TILE + BLOCK + 40)
    f = Klms(GAUSS, 0.2, U[0], d[0])
    f.run(U[1:TILE + 7], d[1:TILE + 7])
    g = Klms.from_snapshot(json.loads(json.dumps(f.to_snapshot())))
    assert g.to_snapshot() == f.to_snapshot()
    for i in range(TILE + 7, TILE + 20):
        assert f.step(U[i], d[i]) == g.step(U[i], d[i])
    a, b = f.run(U[TILE + 20:], d[TILE + 20:]), g.run(U[TILE + 20:], d[TILE + 20:])
    assert all(x.tobytes() == z.tobytes() for x, z in zip(a, b))


def test_run_near_the_float_range_raises_no_warning():
    """Inputs near 1e308: repeats of the first center take the shifted sums,
    which match the step loop to roundoff, and a spread whose squared
    distances overflow refuses them, so every sample steps, bit for bit as
    the step loop does. Neither raises a numpy warning."""
    rng = np.random.default_rng(3)
    spread = 1e308 * rng.uniform(0.5, 1.0, (2 * BLOCK, 2))
    for U in (np.full((2 * BLOCK, 2), 1.5e308), spread):
        d = rng.standard_normal(2 * BLOCK)
        f = Klms(GAUSS, 0.2, U[0], d[0])
        g = copy.deepcopy(f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y0, e0, _, _ = step_loop(f, U, d, 1)
            y, e, _ = g.run(U[1:], d[1:])
        if U is spread:
            assert y.tobytes() == y0[1:].tobytes() and e.tobytes() == e0[1:].tobytes()
        else:
            assert np.abs(y - y0[1:]).max() <= 1e-12 and np.array_equal(e, d[1:] - y)
