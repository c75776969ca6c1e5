import io
from dataclasses import replace

import numpy as np
import pytest

from kaf import FilterConfig, KernelSpec, LearningCurve, StreamConfig
from kaf.exceptions import CapacityError, ValidationError
from kaf.experiments import average_curves, generate, run_trial, run_trials


class TestStreamConfig:
    def test_length_must_exceed_embedding(self):
        with pytest.raises(ValidationError):
            StreamConfig("noisy_sinc", length=3, embed_L=3)
        with pytest.raises(ValidationError):
            StreamConfig("noisy_sinc", length=10, embed_L=0)

    def test_unknown_generator(self):
        with pytest.raises(ValidationError):
            StreamConfig("lorenz", length=10)

    def test_json_round_trip(self):
        sc = StreamConfig("mackey_glass_like", length=50, noise_std=0.1,
                          seed=3, embed_L=4)
        assert StreamConfig.from_json(sc.to_json()) == sc


class TestGenerate:
    @pytest.mark.parametrize("gen", ["nonlinear_sysid", "noisy_sinc",
                                     "mackey_glass_like", "linear_plant"])
    def test_shapes_and_determinism(self, gen):
        sc = StreamConfig(gen, length=200, noise_std=0.05, seed=9, embed_L=3)
        U1, d1 = generate(sc)
        U2, d2 = generate(sc)
        assert U1.shape == (200, 3) and d1.shape == (200,)
        assert np.array_equal(U1, U2) and np.array_equal(d1, d2)
        assert np.all(np.isfinite(U1)) and np.all(np.isfinite(d1))

    def test_embedding_orders_most_recent_first(self):
        sc = StreamConfig("noisy_sinc", length=50, seed=1, embed_L=3)
        U, _ = generate(sc)
        # consecutive rows shift by one lag: u(n)[1:] == u(n-1)[:-1]
        assert np.array_equal(U[1:, 1:], U[:-1, :-1])

    def test_noise_is_additive_on_clean_signal(self):
        noisy = StreamConfig("noisy_sinc", length=5000, noise_std=0.1, seed=7)
        clean = StreamConfig("noisy_sinc", length=5000, noise_std=0.0, seed=7)
        U1, d_noisy = generate(noisy)
        U0, d_clean = generate(clean)
        assert np.array_equal(U1, U0)
        np.testing.assert_allclose(d_clean, np.sinc(U0[:, 0]), atol=1e-12)
        # Monte-Carlo variance of the injected noise around 0.01
        assert 0.005 <= np.var(d_noisy - d_clean) <= 0.02

    def test_linear_plant_is_exactly_linear_and_rls_nails_it(self):
        sc = StreamConfig("linear_plant", length=400, noise_std=0.0, seed=5,
                          embed_L=3)
        U, d = generate(sc)
        w, *_ = np.linalg.lstsq(U, d, rcond=None)
        np.testing.assert_allclose(U @ w, d, atol=1e-10)
        curve = run_trial(FilterConfig("rls", lam=1e-8), sc)
        assert curve.steady_state_mse() <= 1e-12

    def test_mackey_series_is_bounded_and_seed_sensitive(self):
        a = generate(StreamConfig("mackey_glass_like", length=500, seed=1))[1]
        b = generate(StreamConfig("mackey_glass_like", length=500, seed=2))[1]
        assert np.all(np.abs(a) < 10.0)
        assert not np.array_equal(a, b)


class TestLearningCurve:
    def make(self, e):
        e = np.asarray(e, dtype=np.float64)
        n = e.shape[0]
        z = np.zeros(n)
        return LearningCurve(n=np.arange(1, n + 1), y=z, d=e, e=e, e2=e * e,
                             dict_size=np.ones(n, dtype=int), step_seconds=z)

    def test_steady_state_zero_errors(self):
        assert self.make(np.zeros(50)).steady_state_mse(10) == 0.0

    def test_steady_state_constant_error(self):
        assert self.make(np.full(50, 3.0)).steady_state_mse(10) == pytest.approx(9.0)

    def test_steady_state_recomputation_from_columns(self):
        rng = np.random.default_rng(0)
        curve = self.make(rng.standard_normal(200))
        w = 20
        recomputed = float(np.mean((curve.d[-w:] - curve.y[-w:]) ** 2))
        assert curve.steady_state_mse(w) == pytest.approx(recomputed, abs=1e-12)

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            self.make(np.zeros(10)).steady_state_mse(11)

    def test_convergence_step_detects_settling(self):
        e = np.concatenate([np.full(300, 2.0), np.full(700, 0.1)])
        step = self.make(e).convergence_step(window=100)
        assert step is not None and 300 < step <= 450

    def test_csv_round_trip(self):
        rng = np.random.default_rng(1)
        curve = self.make(rng.standard_normal(30))
        buf = io.StringIO()
        curve.write_csv(buf, include_timings=True)
        back = LearningCurve.read_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_allclose(back.e2, curve.e2, rtol=1e-16)
        np.testing.assert_array_equal(back.n, curve.n)


class TestRunTrial:
    def test_curve_has_one_row_per_sample(self):
        sc = StreamConfig("noisy_sinc", length=300, noise_std=0.1, seed=2)
        fc = FilterConfig("krls-ald-reg", kernel=KernelSpec("gaussian", sigma=1.0),
                          lam=0.1, delta=0.01)
        curve = run_trial(fc, sc)
        assert len(curve) == 300
        np.testing.assert_array_equal(curve.e, curve.d - curve.y)
        assert curve.y[0] == 0.0 and curve.e[0] == curve.d[0]

    def test_dict_size_monotone_for_krls_and_counts_for_klms(self):
        sc = StreamConfig("noisy_sinc", length=200, noise_std=0.1, seed=3)
        krls = run_trial(FilterConfig("krls-ald-reg", lam=0.1, delta=0.01), sc)
        assert np.all(np.diff(krls.dict_size) >= 0)
        klms = run_trial(FilterConfig("klms", eta=0.2), sc)
        np.testing.assert_array_equal(klms.dict_size, np.arange(1, 201))

    def test_klms_descends_on_clean_sinc(self):
        sc = StreamConfig("noisy_sinc", length=1000, noise_std=0.0, seed=4)
        curve = run_trial(FilterConfig("klms", eta=0.5), sc)
        w = 100
        assert float(np.mean(curve.e2[-w:])) < float(np.mean(curve.e2[:w]))

    def test_reproducible_byte_for_byte(self):
        sc = StreamConfig("nonlinear_sysid", length=150, noise_std=0.1, seed=6,
                          embed_L=3)
        fc = FilterConfig("klms", eta=0.2)
        a, b = run_trial(fc, sc), run_trial(fc, sc)
        for attr in ("y", "d", "e", "e2", "dict_size"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))

    def test_error_carries_step_index(self):
        sc = StreamConfig("noisy_sinc", length=20, seed=1)
        fc = FilterConfig("klms", eta=0.2, max_terms=5)
        with pytest.raises(Exception, match="step 6"):
            run_trial(fc, sc)
        # through the trial pool the message names the failing seed as well
        with pytest.raises(CapacityError, match=r"seed 7 failed at step 6:"):
            run_trials(fc, replace(sc, seed=7), trials=2, workers=2)


class TestTrialsAndAveraging:
    def test_trials_vary_by_seed_and_keep_order(self):
        sc = StreamConfig("noisy_sinc", length=100, noise_std=0.1, seed=10)
        fc = FilterConfig("lms", eta=0.1)
        curves = run_trials(fc, sc, trials=3, workers=3)
        assert len(curves) == 3
        singles = [run_trial(fc, StreamConfig("noisy_sinc", length=100,
                                              noise_std=0.1, seed=10 + i))
                   for i in range(3)]
        for got, want in zip(curves, singles):
            assert np.array_equal(got.d, want.d)

    def test_average_is_pointwise_mean(self):
        sc = StreamConfig("noisy_sinc", length=80, noise_std=0.1, seed=20)
        curves = run_trials(FilterConfig("klms", eta=0.2), sc, trials=4)
        avg = average_curves(curves)
        np.testing.assert_allclose(avg.e2, np.mean([c.e2 for c in curves], axis=0),
                                   rtol=1e-15)

    def test_filter_config_validation_names_field(self):
        with pytest.raises(ValidationError, match="filter.lambda"):
            FilterConfig("krls-ald-reg", lam=0.0)
        with pytest.raises(ValidationError, match="filter.eta"):
            FilterConfig("klms", eta=-1.0)

    def test_filter_config_json_round_trip(self):
        fc = FilterConfig("krls-ald-reg", kernel=KernelSpec("gaussian", sigma=2.0),
                          lam=0.2, delta=0.05)
        assert FilterConfig.from_json(fc.to_json()) == fc
        with pytest.raises(ValidationError):
            FilterConfig.from_json({"kind": "klms", "bogus": 1})
