import numpy as np
import pytest

from kaf import KernelSpec, Klms, Lms, Rls
from kaf.exceptions import DimensionMismatchError, NumericalError, ValidationError


class TestLms:
    def test_first_step_from_zero_weights(self):
        f = Lms(3, 0.1)
        out = f.step([1.0, 2.0, 3.0], 0.7)
        assert out.y == 0.0 and out.e == 0.7

    def test_zero_step_size_freezes(self):
        rng = np.random.default_rng(0)
        f = Lms(2, 0.0)
        for _ in range(20):
            f.step(rng.standard_normal(2), float(rng.standard_normal()))
        np.testing.assert_array_equal(f.weights, np.zeros(2))

    def test_matches_manual_recursion(self):
        rng = np.random.default_rng(1)
        eta = 0.05
        f = Lms(2, eta)
        w = np.zeros(2)
        for _ in range(50):
            u = rng.standard_normal(2)
            d = float(rng.standard_normal())
            out = f.step(u, d)
            e = d - w @ u
            assert out.e == pytest.approx(e, abs=1e-15)
            w = w + eta * e * u
        np.testing.assert_allclose(f.weights, w, rtol=1e-14)

    def test_dimension_mismatch(self):
        f = Lms(2, 0.1)
        with pytest.raises(DimensionMismatchError):
            f.step([1.0], 0.0)

    def test_snapshot_round_trip(self):
        f = Lms(2, 0.1)
        f.step([1.0, -1.0], 0.5)
        g = Lms.from_snapshot(f.to_snapshot())
        assert np.array_equal(g.weights, f.weights) and g.eta == f.eta

    def test_snapshot_rejects_bad_weights(self):
        for weights in ([np.nan, 0.0], [[1.0, 2.0]], [], "ab"):
            with pytest.raises(ValidationError):
                Lms.from_snapshot({"algorithm": "lms", "eta": 0.1, "weights": weights})


class TestRls:
    def test_noiseless_linear_system_recovered(self):
        rng = np.random.default_rng(2)
        w_true = rng.standard_normal(4)
        f = Rls(4, 1e-8)
        for _ in range(40):  # 10 L samples
            u = rng.standard_normal(4)
            f.step(u, float(w_true @ u))
        # ordinary least-squares oracle: exact weights on noiseless data
        np.testing.assert_allclose(f.weights, w_true, atol=1e-6)

    def test_equals_batch_ridge_at_every_step(self):
        rng = np.random.default_rng(3)
        lam = 0.5
        f = Rls(3, lam)
        UU = lam * np.eye(3)
        Ud = np.zeros(3)
        for _ in range(60):
            u = rng.standard_normal(3)
            d = float(rng.standard_normal())
            f.step(u, d)
            UU += np.outer(u, u)
            Ud += u * d
            ref = np.linalg.solve(UU, Ud)
            assert np.linalg.norm(f.weights - ref, np.inf) <= 1e-8

    def test_aux_stays_symmetric(self):
        rng = np.random.default_rng(4)
        f = Rls(3, 0.1)
        for _ in range(100):
            f.step(rng.standard_normal(3), float(rng.standard_normal()))
        assert np.abs(f.aux - f.aux.T).max() <= 1e-8

    def test_overflow_raises_and_leaves_state(self):
        """Forgetting 0.9 on collinear inputs [x, x]: the unexcited direction
        of aux grows by 1/0.9 a step and overflows at step 1585. That step
        raises NumericalError, with no numpy warning, and writes nothing."""
        rng = np.random.default_rng(0)
        f = Rls(2, 0.1, forgetting=0.9)
        for _ in range(1, 1585):
            x = rng.standard_normal()
            f.step([x, x], 2 * x)
        weights, aux = f.weights.copy(), f.aux.copy()
        assert np.isfinite(aux).all()
        x = rng.standard_normal()
        with pytest.raises(NumericalError, match="overflow"):
            f.step([x, x], 2 * x)
        assert np.array_equal(f.weights, weights) and np.array_equal(f.aux, aux)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            Rls(2, 0.0)
        with pytest.raises(ValidationError):
            Rls(2, 0.1, forgetting=0.0)
        with pytest.raises(ValidationError):
            Rls(2, 0.1, forgetting=1.5)

    def test_snapshot_round_trip(self):
        rng = np.random.default_rng(5)
        f = Rls(2, 0.3)
        for _ in range(10):
            f.step(rng.standard_normal(2), float(rng.standard_normal()))
        g = Rls.from_snapshot(f.to_snapshot())
        assert np.array_equal(g.weights, f.weights)
        assert np.array_equal(g.aux, f.aux)
        u = rng.standard_normal(2)
        d = float(rng.standard_normal())
        a, b = f.step(u, d), g.step(u, d)
        assert a.y == b.y and a.e == b.e

    def test_snapshot_rejects_bad_weights_and_aux(self):
        snap = Rls(2, 0.3).to_snapshot()
        for field, value in (("weights", [np.nan, 0.0]), ("weights", [[0.0, 0.0]]),
                             ("aux", [[1.0, 0.0], [0.0, np.inf]]), ("aux", [[1.0, 0.0]]),
                             ("aux", [1.0, 1.0])):
            with pytest.raises(ValidationError):
                Rls.from_snapshot(dict(snap, **{field: value}))


def test_klms_degree_one_equals_affine_lms():
    """The degree-1 polynomial kernel is exactly the inner product of
    [u; 1] features, so kernel LMS reproduces linear LMS on those features."""
    rng = np.random.default_rng(6)
    eta = 0.05
    U = rng.uniform(-1, 1, (150, 2))
    d = 0.5 * U[:, 0] - 0.2 * U[:, 1] + 0.3 + 0.05 * rng.standard_normal(150)
    aug = np.hstack([U, np.ones((150, 1))])

    klms = Klms(KernelSpec("polynomial", degree=1), eta, U[0], d[0])
    lms = Lms(3, eta)
    out0 = lms.step(aug[0], d[0])
    assert out0.y == 0.0
    for i in range(1, 150):
        a = klms.step(U[i], d[i])
        b = lms.step(aug[i], d[i])
        assert a.y == pytest.approx(b.y, abs=1e-10)
