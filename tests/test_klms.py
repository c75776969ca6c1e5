import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaf import KernelSpec, Klms
from kaf.exceptions import DimensionMismatchError, NumericalError, ValidationError
from kaf.kernels import kernel_eval, kernel_matrix
from kaf.oracle import feature_space_lms

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

    def test_tiny_sigma_sees_only_exact_repeats(self):
        """At sigma = 1e-160, 8/sigma^2 overflows, so every sum takes the
        explicit differences: each kernel value is 1 at a repeated center
        and 0 elsewhere, as it is exactly, with no numpy warning."""
        f = Klms(KernelSpec("gaussian", sigma=1e-160), 0.5, [0.0], 1.0)
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
        """A snapshot at 45 terms loads into buffers of exactly 45 columns,
        which double on the next step; the uninterrupted filter's double at
        64. Stepped past both, the two agree bit for bit. The polynomial sum
        reads the centers, not the Gaussian's shifted-center buffer."""
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

    Per term: the exponent bound in `Klms._expansion`'s docstring, plus the
    rounding of either side's 1/sigma^2 scale, exp and sum.
    """
    L, n = centers.shape[1], centers.shape[0]
    c1 = centers[0]
    w = np.linalg.norm(u - c1)
    dist = np.linalg.norm(centers - c1, axis=1)
    exponent_bound = 2 * (L + 5) * EPS * (dist * dist + w * w + dist * w) / sigma ** 2
    return float(np.abs(coeffs) @ (exponent_bound + (L + 10 + 2 * n) * EPS))


@settings(max_examples=150)
@given(L=st.integers(1, 8), steps=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       offset=st.floats(-1e4, 1e4), log_sigma=st.floats(-2, 2), log_spread=st.floats(-1, 1),
       eta=st.floats(0.01, 1.0))
def test_distance_form_matches_explicit_differences(L, steps, seed, offset, log_sigma,
                                                     log_spread, eta):
    """step and predict against kernel_matrix's explicit differences, within
    the documented bound, on inputs spread over a few widths about an offset."""
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
