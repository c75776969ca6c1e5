import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import kaf
from kaf import FilterConfig, KernelSpec, LearningCurve, StreamConfig
from kaf.base import fmt17
from kaf.cli import _trial_part, main
from kaf.exceptions import NumericalError, ValidationError
from kaf.experiments import (CSV_HEADER, CSV_ROWS, FILTER_KINDS, generate, pool_map, run_trial,
                             run_trials)


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

    @pytest.mark.parametrize("field, value", [
        ("length", "50"), ("length", 50.5), ("length", None), ("noise_std", "0.1"),
        ("noise_std", True), ("seed", True), ("seed", -1), ("embed_L", 2.5),
    ])
    def test_fields_read_by_the_field_rule(self, field, value):
        """The constructor converts every field as the config reader does,
        and refuses a negative seed, which numpy's generator cannot take."""
        fields = {"generator": "noisy_sinc", "length": 50, field: value}
        with pytest.raises(ValidationError, match=f"stream.{field}"):
            StreamConfig(**fields)
        with pytest.raises(ValidationError, match=f"stream.{field}"):
            StreamConfig.from_json(fields)

    def test_to_json_holds_plain_numbers(self):
        j = StreamConfig("noisy_sinc", length=np.int64(50), noise_std=np.float32(0.5),
                         seed=np.uint32(3), embed_L=2.0).to_json()
        assert j == {"generator": "noisy_sinc", "length": 50, "noise_std": 0.5,
                     "seed": 3, "embed_L": 2}
        assert [type(v) for v in j.values()] == [str, int, float, int, int]


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

    @pytest.mark.parametrize("gen", kaf.experiments.GENERATORS)
    @pytest.mark.parametrize("length", [10 ** 30, 2 ** 62])
    def test_unallocatable_length_is_a_validation_error(self, gen, length):
        """numpy refuses these lengths' draws before it allocates anything."""
        with pytest.raises(ValidationError, match=f"^stream.length {length} is too long"):
            generate(StreamConfig(gen, length=length, noise_std=0.1, seed=1, embed_L=2))

    @pytest.mark.parametrize("gen", kaf.experiments.GENERATORS)
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_streams_are_writable_arrays_of_their_own(self, gen, L):
        U, d = generate(StreamConfig(gen, length=40, noise_std=0.0, seed=2, embed_L=L))
        assert U.shape == (40, L) and U.flags.c_contiguous
        assert U.flags.writeable and d.flags.writeable
        assert not np.shares_memory(U, d)
        U[30, 0] = np.nan
        d[30] = np.nan

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
        assert self.make(np.zeros(50)).steady_state_mse() == 0.0

    def test_steady_state_constant_error(self):
        assert self.make(np.full(50, 3.0)).steady_state_mse() == pytest.approx(9.0)

    def test_steady_state_recomputation_from_columns(self):
        """The steady state is the mean over the final 10% of the records."""
        rng = np.random.default_rng(0)
        curve = self.make(rng.standard_normal(200))
        recomputed = float(np.mean((curve.d[-20:] - curve.y[-20:]) ** 2))
        assert curve.steady_state_mse() == pytest.approx(recomputed, abs=1e-12)
        assert self.make(np.full(4, 2.0)).steady_state_mse() == 4.0  # at least one record

    def test_convergence_step_detects_settling(self):
        e = np.concatenate([np.full(300, 2.0), np.full(700, 0.1)])
        step = self.make(e).convergence_step()
        assert step is not None and 300 < step <= 450
        assert self.make(np.zeros(99)).convergence_step() is None  # shorter than the window

    def test_csv_round_trip(self, tmp_path):
        """`kaf run` prints each trial's curve as `run_trial` records it:
        every column of its CSV reads back bit for bit as the trial's arrays,
        for every kind. With timings, the times differ from run to run, so
        they are checked on the rows `append_csv_rows` writes for one curve."""
        sc = StreamConfig("nonlinear_sysid", length=150, noise_std=0.1, seed=4, embed_L=2)

        def columns(text):
            rows = list(csv.reader(io.StringIO(text)))
            assert rows[0] == CSV_HEADER
            return dict(zip(CSV_HEADER, np.array(rows[1:], dtype=float).T))

        def assert_reads_back(cols, curve, names=CSV_HEADER, rows=slice(None)):
            for name in names:
                want = getattr(curve, name).astype(float)
                assert cols[name][rows].tobytes() == want.tobytes(), name

        for kind in FILTER_KINDS:
            fc = FilterConfig(kind)
            timed = run_trial(fc, sc, record_timings=True)
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(CSV_HEADER)
            timed.append_csv_rows(csv.writer(buf, lineterminator="\n"))
            assert_reads_back(columns(buf.getvalue()), timed)
            for record_timings in (False, True):
                cfg = {"filter": fc.to_json(), "stream": sc.to_json(), "trials": 2,
                       "out": str(tmp_path / "curve.csv"), "record_timings": record_timings}
                (tmp_path / "c.json").write_text(json.dumps(cfg))
                assert main(["run", "--config", str(tmp_path / "c.json")]) == 0
                cols = columns((tmp_path / "curve.csv").read_text())
                for i in range(2):
                    curve = run_trial(fc, replace(sc, seed=sc.seed + i), record_timings)
                    rows = slice(150 * i, 150 * (i + 1))
                    assert_reads_back(cols, curve, CSV_HEADER[:-1] if record_timings
                                      else CSV_HEADER, rows)
                    assert (cols["step_seconds"][rows] > 0).all() == record_timings


    @pytest.mark.parametrize("record_timings", [False, True])
    def test_adapter_and_part_file_give_the_same_bytes(self, record_timings, tmp_path):
        """`append_csv_rows` through a `csv.writer` and the part file a `kaf run`
        worker writes hold the same bytes, `csv_blocks`', timed or not; an
        untimed step prints as 0, as `fmt17(0.0)` does."""
        fc = FilterConfig("krls-ald-reg")
        sc = StreamConfig("noisy_sinc", length=2 * CSV_ROWS + 100, noise_std=0.1, seed=3)
        buf = io.StringIO()
        run_trial(fc, sc, record_timings).append_csv_rows(csv.writer(buf, lineterminator="\n"))
        part = tmp_path / "part"
        summary, step_mean = _trial_part(fc, record_timings, (sc, str(part)))
        text = part.read_bytes().decode()
        if record_timings:  # times differ between the two runs
            text, adapted = ([row.rsplit(",", 1)[0] for row in t.splitlines()]
                             for t in (text, buf.getvalue()))
            assert text == adapted and step_mean > 0
        else:
            assert text == buf.getvalue() and step_mean is None
            assert {row.rsplit(",", 1)[1] for row in text.splitlines()} == {fmt17(0.0)}
        assert summary == run_trial(fc, sc, record_timings).summary()

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

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_step_seconds_only_when_timed(self, kind):
        """One timing rule for every kind: an untimed trial records zeros,
        and a timed one a positive time for every step."""
        sc = StreamConfig("nonlinear_sysid", length=300, seed=0, embed_L=3)
        assert not run_trial(FilterConfig(kind), sc).step_seconds.any()
        assert (run_trial(FilterConfig(kind), sc, record_timings=True).step_seconds > 0).all()

    def test_error_carries_step_index(self):
        """A divergent eta: the first step whose coefficient overflows."""
        sc = StreamConfig("nonlinear_sysid", length=400, noise_std=0.1, seed=1)
        fc = FilterConfig("klms", eta=50.0)
        with pytest.raises(NumericalError, match="step 263:"):
            run_trial(fc, sc)
        # through the trial pool the message names the failing seed as well
        with pytest.raises(NumericalError, match=r"seed 7 failed at step 275:"):
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

    def test_filter_config_validation_names_field(self):
        with pytest.raises(ValidationError, match="filter.lambda"):
            FilterConfig("krls-ald-reg", lam=-0.1)
        with pytest.raises(ValidationError, match="filter.eta"):
            FilterConfig("klms", eta=-1.0)
        # The filters' constructors are the one rule: LMS takes eta = 0 (a
        # frozen filter), KRLS lambda = 0 (the unregularized KRLS), RLS
        # refuses lambda = 0.
        assert FilterConfig("lms", eta=0.0).eta == 0.0
        assert FilterConfig("krls-ald-reg", lam=0.0).lam == 0.0
        with pytest.raises(ValidationError, match="filter.lambda"):
            FilterConfig("rls", lam=0.0)

    def test_filter_config_json_round_trip(self):
        fc = FilterConfig("krls-ald-reg", kernel=KernelSpec("gaussian", sigma=2.0),
                          lam=0.2, delta=0.05)
        assert FilterConfig.from_json(fc.to_json()) == fc
        with pytest.raises(ValidationError):
            FilterConfig.from_json({"kind": "klms", "bogus": 1})

    def test_filter_config_keeps_the_constructors_values(self):
        """The config stores what the filter's constructor converted, so its
        JSON holds plain floats: 0.25 and 1.0."""
        rls, lms = FilterConfig("rls", lam=np.float32(0.25)), FilterConfig("lms", eta=np.int64(1))
        assert type(rls.lam) is float and type(lms.eta) is float
        assert json.dumps(rls.to_json()) == '{"kind": "rls", "lambda": 0.25}'
        assert json.dumps(lms.to_json()) == '{"kind": "lms", "eta": 1.0}'

    @pytest.mark.parametrize("kind, key", [("lms", "lambda"), ("lms", "kernel"),
                                           ("rls", "delta"), ("klms", "lambda"),
                                           ("krls-ald-reg", "eta")])
    def test_filter_config_refuses_keys_its_kind_does_not_read(self, kind, key):
        value = {"family": "gaussian"} if key == "kernel" else 0.5
        with pytest.raises(ValidationError, match=rf"unknown filter config keys: \['{key}'\]"):
            FilterConfig.from_json({"kind": kind, key: value})

    @pytest.mark.parametrize("value", ["5", [3], 2.5, True, 0])
    def test_filter_config_max_terms_checked_as_klms(self, value):
        """KLMS has no term cap: a klms config refuses max_terms whatever its
        value, 5 included, as a key the kind does not read."""
        for v in (value, 5):
            with pytest.raises(ValidationError,
                               match=r"unknown filter config keys: \['max_terms'\]"):
                FilterConfig.from_json({"kind": "klms", "max_terms": v})


def _first_finishes_last(i):
    """Item i of 0..2 sleeps longer the earlier it was submitted; returns i,
    the process that ran it and when it finished."""
    time.sleep(0.15 * (2 - i))
    return i, os.getpid(), time.monotonic()


class TestPoolMap:
    def test_submission_order_when_the_first_item_finishes_last(self):
        got = pool_map(_first_finishes_last, [0, 1, 2], workers=3)
        assert [i for i, _, _ in got] == [0, 1, 2]
        assert got[0][2] > got[2][2]                   # item 0 really finished last
        assert os.getpid() not in {pid for _, pid, _ in got}   # on worker processes

    def test_serial_with_identical_results_where_fork_is_missing(self, monkeypatch):
        sc = StreamConfig("nonlinear_sysid", length=150, noise_std=0.1, seed=2, embed_L=2)
        fc = FilterConfig("krls-ald-reg", lam=0.1, delta=0.01)
        forked = run_trials(fc, sc, trials=3, workers=3)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        got = pool_map(_first_finishes_last, [2, 1, 0], workers=3)
        assert {pid for _, pid, _ in got} == {os.getpid()}
        serial = run_trials(fc, sc, trials=3, workers=3)
        for a, b in zip(forked, serial):
            for attr in ("y", "d", "e", "e2", "dict_size"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr))


def test_import_kaf_loads_no_process_pool():
    """multiprocessing and concurrent.futures load only when a pool starts, so
    `import kaf` does not pay for them; and kaf is numpy-only: no scipy."""
    code = ("import kaf, sys; print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures', 'scipy') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kaf.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
