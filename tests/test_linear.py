import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaf import KernelSpec, Klms, Lms, Rls
from kaf.exceptions import DimensionMismatchError, NumericalError, ValidationError
from kaf.linear import DENOM_ROUNDOFF


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

    def test_parameter_validation(self):
        for dim, eta in (("3", 0.1), (0, 0.1), (2, -1.0), (2, "0.1")):
            with pytest.raises(ValidationError):
                Lms(dim, eta)

    def test_dimension_mismatch(self):
        f = Lms(2, 0.1)
        with pytest.raises(DimensionMismatchError):
            f.step([1.0], 0.0)

    def test_divergent_step_refused_before_any_write(self):
        """eta * e * u overflows: NumericalError, with no numpy warning, and
        the weights are as they were."""
        f = Lms(2, 10.0)
        f.step([1.0, -1.0], 0.5)
        snap = f.to_snapshot()
        with pytest.raises(NumericalError, match="overflow"):
            f.step([1.0, 0.0], 1e308)
        assert f.to_snapshot() == snap

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
        of aux grows by 1/0.9 a step, so within 1585 steps either roundoff
        leaves aux indefinite and the denominator forgetting + u'.aux.u goes
        to 0 or below, or the update overflows. Which comes first, and at
        what step, is a roundoff event; the step it happens at raises
        NumericalError naming the cause, with no numpy warning, and writes
        nothing."""
        rng = np.random.default_rng(0)
        f = Rls(2, 0.1, forgetting=0.9)
        error = None
        for _ in range(2000):
            weights, aux = f.weights.copy(), f.aux.copy()
            x = rng.standard_normal()
            try:
                f.step([x, x], 2 * x)
            except NumericalError as exc:
                error = exc
                break
        assert error is not None and np.isfinite(aux).all()
        assert re.search(r"denominator forgetting \+ u'.aux.u is|overflow", str(error))
        assert np.array_equal(f.weights, weights) and np.array_equal(f.aux, aux)

    @pytest.mark.parametrize("forgetting, steps", [(0.9, 719), (0.99, 20000)])
    def test_collinear_stream_refuses_at_the_roundoff_floor(self, forgetting, steps):
        """On [x, x], the unexcited direction of aux grows by 1/forgetting a
        step until the computed denominator is roundoff: the step refuses
        once it is at or below its floor, before roundoff turns it negative
        (step 720 at forgetting 0.9, where no floor applied), with nothing
        written."""
        rng = np.random.default_rng(0)
        f = Rls(2, 0.1, forgetting=forgetting)
        for i in range(steps):
            x = rng.standard_normal()
            before = f.to_snapshot()
            try:
                f.step([x, x], 2 * x)
            except NumericalError as exc:
                assert re.search(r"denominator forgetting \+ u'.aux.u is [0-9.e+-]+, not a "
                                 r"finite number above its roundoff floor", str(exc))
                assert f.to_snapshot() == before and np.linalg.eigvalsh(f.aux).min() > 0
                break
        else:
            pytest.fail(f"no refusal in {steps} steps")

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("forgetting", [0.9, 0.99, 1.0])
    def test_excited_stream_never_refuses(self, dim, forgetting):
        """Inputs that excite every direction keep the denominator far above
        its roundoff floor: 5000 steps, none refused."""
        rng = np.random.default_rng(dim)
        f = Rls(dim, 0.1, forgetting=forgetting)
        for u, d in zip(rng.standard_normal((5000, dim)), rng.standard_normal(5000)):
            f.step(u, d)
        assert np.isfinite(f.weights).all()

    @settings(max_examples=100)
    @given(dim=st.integers(1, 4), forgetting=st.sampled_from([0.9, 0.99, 1.0]),
           steps=st.integers(0, 20), below=st.floats(1.0, 1e12), seed=st.integers(0, 2 ** 32 - 1))
    def test_injected_aux_below_the_floor_is_transactional(self, dim, forgetting, steps,
                                                          below, seed):
        """An aux injected along a drawn u, so that forgetting + u'.aux.u is
        `below` times its roundoff floor under 0: the step raises
        NumericalError and leaves weights and aux bit-identical."""
        rng = np.random.default_rng(seed)
        f = Rls(dim, 0.1, forgetting=forgetting)
        for _ in range(steps):
            f.step(rng.standard_normal(dim), float(rng.standard_normal()))
        u = rng.standard_normal(dim)
        a = f.aux @ u
        s = u @ a
        floor = DENOM_ROUNDOFF * dim * np.abs(f.aux).max() * (u @ u)
        # u'.aux.u - c s^2 = -forgetting - below * floor
        f.aux = f.aux - (forgetting + s + below * floor) / (s * s) * np.outer(a, a)
        snap = f.to_snapshot()
        with pytest.raises(NumericalError, match=r"denominator forgetting \+ u'.aux.u is"):
            f.step(u, 1.0)
        assert f.to_snapshot() == snap

    def test_overflowing_update_raises_and_leaves_state(self):
        """A positive definite aux of 1e300 I gives a finite denominator, but
        its rank-one update overflows: NumericalError, and nothing written."""
        snap = dict(Rls(2, 0.1, forgetting=0.9).to_snapshot(), aux=[[1e300, 0.0], [0.0, 1e300]])
        f = Rls.from_snapshot(snap)
        with pytest.raises(NumericalError, match="overflow"):
            f.step([1.0, 0.0], 1.0)
        assert np.array_equal(f.weights, np.zeros(2)) and f.to_snapshot() == snap

    @pytest.mark.parametrize("aux, u", [([[-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]),
                                        ([[1.0, 0.0], [0.0, -2.0]], [0.0, 1.0]),
                                        ([[1e308, 0.0], [0.0, 1.0]], [10.0, 0.0])])
    def test_bad_denominator_raises_before_any_write(self, aux, u):
        """At forgetting 1, an aux that is not positive definite gives a
        denominator forgetting + u'.aux.u of 0 or below, and an aux whose
        quadratic form overflows one of inf: the step names it, with no numpy
        warning, and writes nothing. (The loader refuses the first two.)"""
        f = Rls(2, 0.1)
        f.aux = np.array(aux)
        snap = f.to_snapshot()
        with pytest.raises(NumericalError, match=r"denominator forgetting \+ u'.aux.u is"):
            f.step(u, 1.0)
        assert f.to_snapshot() == snap

    def test_snapshot_refuses_asymmetric_aux(self):
        """A saved aux is exactly symmetric; the loader refuses one that is
        not, as the KRLS loader refuses an asymmetric P."""
        snap = Rls(2, 0.3).to_snapshot()
        with pytest.raises(ValidationError, match="'aux' is not symmetric"):
            Rls.from_snapshot(dict(snap, aux=[[1.0, 0.5], [0.5 + 1e-16, 1.0]]))
        with pytest.raises(ValidationError, match="'aux' is not symmetric"):
            Rls.from_snapshot(dict(snap, aux=[[1.0, 2.0], [0.0, 1.0]]))

    def test_snapshot_refuses_indefinite_aux(self):
        """An aux that is symmetric but not positive definite, which would
        load and then train until a denominator fell below its floor, is
        refused by the one Cholesky factorization the loader runs."""
        snap = Rls(2, 0.3).to_snapshot()
        for aux in ([[-1.0, 0.0], [0.0, -1.0]], [[1.0, 2.0], [2.0, 1.0]]):
            with pytest.raises(ValidationError, match="'aux' is not positive definite"):
                Rls.from_snapshot(dict(snap, aux=aux))

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            Rls(2, 0.0)
        with pytest.raises(ValidationError):  # aux = I / lambda would overflow
            Rls(2, 5e-324)
        with pytest.raises(ValidationError):
            Rls(2, 0.1, forgetting=0.0)
        with pytest.raises(ValidationError):
            Rls(2, 0.1, forgetting=1.5)
        with pytest.raises(ValidationError):
            Rls(2, 0.1, forgetting="0.5")

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
