import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kaf
import kaf.bench
import kaf.cli
import kaf.verify
from kaf.cli import main
from kaf.dictionary import Dictionary
from kaf.exceptions import ValidationError
from kaf.experiments import FILTER_KEYS, GENERATORS, StreamConfig, generate
from kaf.verify import SUITES, run_suite


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def base_run_config(tmp_path, **overrides):
    cfg = {
        "filter": {"kind": "krls-ald-reg",
                   "kernel": {"family": "gaussian", "sigma": 1.0},
                   "lambda": 0.1, "delta": 0.01},
        "stream": {"generator": "noisy_sinc", "length": 120,
                   "noise_std": 0.1, "seed": 3, "embed_L": 1},
        "trials": 2,
        "out": str(tmp_path / "curve.csv"),
    }
    cfg.update(overrides)
    return cfg


def read_rows(path):
    with open(path) as f:
        return list(csv.reader(f))


class TestRun:
    def test_writes_grouped_rows_and_summary(self, tmp_path):
        cfg = base_run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        rows = read_rows(cfg["out"])
        assert rows[0] == ["n", "y", "d", "e", "e2", "dict_size", "step_seconds"]
        assert len(rows) - 1 == 2 * 120  # trials x length
        # rows grouped per trial, n restarting at 1
        assert rows[1][0] == "1" and rows[120][0] == "120" and rows[121][0] == "1"
        summary = json.loads((tmp_path / "curve.summary.json").read_text())
        assert len(summary["trials"]) == 2
        assert summary["trials"][0]["seed"] == 3
        assert summary["mean_steady_state_mse"] > 0

    def test_timings_zeroed_by_default(self, tmp_path):
        cfg = base_run_config(tmp_path)
        main(["run", "--config", write_config(tmp_path / "c.json", cfg)])
        assert {r[6] for r in read_rows(cfg["out"])[1:]} == {"0"}

    def test_recorded_timings_come_from_the_driver(self, tmp_path):
        cfg = base_run_config(tmp_path, record_timings=True)
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        seconds = [float(r[6]) for r in read_rows(cfg["out"])[1:]]
        assert min(seconds) >= 0 and max(seconds) > 0
        summary = json.loads((tmp_path / "curve.summary.json").read_text())
        assert summary["mean_step_seconds"] > 0

    @pytest.mark.parametrize("kind", ["klms", "krls-ald-reg", "lms", "rls"])
    @pytest.mark.parametrize("timed", [False, True])
    def test_mean_step_seconds_only_with_timings(self, kind, timed, tmp_path):
        cfg = base_run_config(tmp_path, filter={"kind": kind}, record_timings=timed)
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((tmp_path / "curve.summary.json").read_text())
        assert ("mean_step_seconds" in summary) == timed
        if timed:
            seconds = np.array([float(r[6]) for r in read_rows(cfg["out"])[1:]])
            assert summary["mean_step_seconds"] == pytest.approx(seconds.mean(), rel=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = base_run_config(tmp_path)
        cpath = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cpath]) == 0
        first = open(cfg["out"], "rb").read()
        first_summary = open(tmp_path / "curve.summary.json", "rb").read()
        assert main(["run", "--config", cpath]) == 0
        assert open(cfg["out"], "rb").read() == first
        assert open(tmp_path / "curve.summary.json", "rb").read() == first_summary

    def test_invalid_lambda_exits_1_naming_field(self, tmp_path, capsys):
        cfg = base_run_config(tmp_path)
        cfg["filter"]["lambda"] = -1.0
        code = main(["run", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "validation"
        assert "filter.lambda" in err["error"]["message"]
        assert not os.path.exists(cfg["out"])  # no partial outputs

    @pytest.mark.parametrize("kind, hyper", [("krls-ald-reg", {"lambda": 0.1, "delta": 0.01}),
                                             ("klms", {"eta": 0.2})])
    def test_sigma_whose_square_overflows_exits_1(self, kind, hyper, tmp_path, capsys):
        cfg = base_run_config(tmp_path)
        cfg["filter"] = {"kind": kind, "kernel": {"family": "gaussian", "sigma": 1e200}, **hyper}
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "validation"
        assert "kernel.sigma" in err["error"]["message"]
        assert not os.path.exists(cfg["out"])

    def test_flag_overrides_beat_file(self, tmp_path):
        cfg = base_run_config(tmp_path)
        cpath = write_config(tmp_path / "c.json", cfg)
        out2 = str(tmp_path / "override.csv")
        assert main(["run", "--config", cpath, "--delta", "0.5",
                     "--seed", "9", "--out", out2]) == 0
        summary = json.loads((tmp_path / "override.summary.json").read_text())
        assert summary["config"]["filter"]["delta"] == 0.5
        assert summary["config"]["stream"]["seed"] == 9
        assert os.path.exists(out2)

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "validation"

    @pytest.mark.parametrize("command, section, key, value", [
        ("run", "filter", "lambda", "x"),
        ("run", None, "trials", "abc"),
        ("run", "stream", "length", "ten"),
        ("run", "stream", "seed", "3"),
        ("run", None, "record_timings", "false"),
        ("sweep", None, "trials", "abc"),
        ("sweep", "stream", "length", "ten"),
        ("run", "filter", "lambda", "0.1"),
        ("run", "stream", "embed_L", True),
        ("run", None, "trials", 2.5),
        ("run", "stream", "length", 100.9),
        ("run", None, "out", 5),
        ("run", None, "summary_out", 7),
        ("sweep", "grid", "eta", 0.1),
        ("sweep", "grid", "eta", ["a"]),
    ])
    def test_malformed_config_scalar_exits_1(self, command, section, key, value,
                                              tmp_path, capsys):
        cfg = base_run_config(tmp_path, grid={"delta": [0.01]})
        out = cfg["out"]
        (cfg[section] if section else cfg)[key] = value
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "validation" and repr(value) in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert not os.path.exists(out)

    def test_former_unregularized_key_exits_1(self, tmp_path, capsys):
        """lambda = 0 alone selects the unregularized KRLS; the former flag
        is an unknown key."""
        cfg = base_run_config(tmp_path)
        cfg["filter"].update({"lambda": 0.0, "unregularized": True})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "validation",
                       "message": "unknown filter config keys: ['unregularized']"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        del cfg["filter"]["unregularized"]
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        summary = json.loads((tmp_path / "curve.summary.json").read_text())
        assert summary["config"]["filter"]["lambda"] == 0.0

    @pytest.mark.parametrize("command, kind, extra, argv, message", [
        ("run", "lms", {"lambda": 7.0}, [], "unknown filter config keys: ['lambda']"),
        ("run", "rls", {"kernel": {"family": "gaussian"}}, [],
         "unknown filter config keys: ['kernel']"),
        ("run", "lms", {}, ["--lambda", "7"], "unknown filter config keys: ['lambda']"),
        ("sweep", "rls", {}, ["--eta", "0.1"], "unknown filter config keys: ['eta']"),
        ("run", "lms", {}, ["--sigma", "2"], "unknown filter config keys: ['sigma']"),
        ("run", "rls", {}, ["--sigma", "2"], "unknown filter config keys: ['sigma']"),
        ("run", "klms", {}, ["--delta", "0.5"], "unknown filter config keys: ['delta']"),
        ("run", "klms", {"max_terms": 5}, [], "unknown filter config keys: ['max_terms']"),
        ("run", "rls", {"forgetting": 0.9}, [], "unknown filter config keys: ['forgetting']"),
    ], ids=["config-key", "config-kernel", "lambda-flag", "eta-flag", "sigma-flag-lms",
            "sigma-flag-rls", "delta-flag-klms", "klms-term-cap", "rls-forgetting"])
    def test_setting_the_kind_does_not_read_exits_1(self, command, kind, extra, argv,
                                                     message, tmp_path, capsys):
        """A filter kind takes only the settings it reads, from a config file
        and from a flag alike; any other exits 1 before a trial runs."""
        cfg = base_run_config(tmp_path, filter={"kind": kind, **extra},
                              grid={"lambda" if kind == "rls" else "eta": [0.1]})
        path = write_config(tmp_path / "c.json", cfg)
        assert main([command, "--config", path] + argv) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "validation", "message": message}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("where", ["config", "flag"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_negative_seed_exits_1(self, command, where, tmp_path, capsys):
        """numpy's generator takes no negative seed: the stream config
        refuses one before any trial or grid point runs."""
        cfg = base_run_config(tmp_path, grid={"delta": [0.01, 0.1]})
        flags = ["--seed", "-1"] if where == "flag" else []
        if where == "config":
            cfg["stream"]["seed"] = -1
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg)] + flags) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "validation", "message": "stream.seed must be >= 0, got -1"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        cfg = base_run_config(tmp_path, out=str(tmp_path / "missing" / "x.csv"))
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "io"

    def test_late_write_failure_leaves_no_partial_output(self, tmp_path, capsys):
        # the trials' part files and the CSV are written first; the summary's
        # directory does not exist, or the summary path names a directory
        (tmp_path / "sdir").mkdir()
        for summary in (tmp_path / "missing" / "s.json", tmp_path / "sdir"):
            cfg = base_run_config(tmp_path, summary_out=str(summary))
            assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 3
            assert json.loads(capsys.readouterr().out)["error"]["type"] == "io"
            assert not os.path.exists(cfg["out"])
            assert not list(tmp_path.glob("*.tmp.*"))
            assert not list((tmp_path / "sdir").iterdir())

    def test_bad_kaf_threads_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KAF_THREADS", "zero")
        cfg = base_run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("filt", [
        {"kind": "krls-ald-reg", "kernel": {"family": "gaussian", "sigma": 1.0},
         "lambda": 0.1, "delta": 0.01},
        {"kind": "klms", "kernel": {"family": "gaussian", "sigma": 1.0}, "eta": 0.2},
    ])
    def test_outputs_identical_at_any_worker_count(self, filt, tmp_path, monkeypatch):
        cfg = base_run_config(tmp_path, filter=filt, trials=3)
        cpath = write_config(tmp_path / "c.json", cfg)
        outputs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("KAF_THREADS", workers)
            assert main(["run", "--config", cpath]) == 0
            outputs.append((open(cfg["out"], "rb").read(),
                            open(tmp_path / "curve.summary.json", "rb").read()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_worker_error_keeps_type_seed_and_step(self, tmp_path, monkeypatch, capsys):
        """A divergent eta: of the two trials, seed 3's overflows first."""
        monkeypatch.setenv("KAF_THREADS", "2")
        cfg = base_run_config(tmp_path, filter={"kind": "klms", "eta": 50.0},
                              stream={"generator": "nonlinear_sysid", "length": 400,
                                      "noise_std": 0.1, "seed": 3})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "numerical"
        assert err["message"].startswith("trial with seed 3 failed at step 272: ")
        assert not os.path.exists(cfg["out"])
        assert not list(tmp_path.glob("*.tmp.*"))  # the trials' part files included

    @pytest.mark.parametrize("kind, step", [("lms", 426), ("klms", 1986)])
    def test_divergent_step_exits_2_and_writes_nothing(self, kind, step, tmp_path, capsys):
        """eta = 10 on the L = 3 system-identification stream overflows LMS's
        weights and KLMS's coefficients: no CSV holding NaN, no summary."""
        cfg = base_run_config(tmp_path, filter={"kind": kind, "eta": 10.0}, trials=1,
                              stream={"generator": "nonlinear_sysid", "length": 3000,
                                      "noise_std": 0.1, "seed": 1, "embed_L": 3})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "numerical"
        assert err["message"].startswith(f"trial with seed 1 failed at step {step}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflowing_squared_error_exits_2_and_writes_nothing(self, workers, tmp_path,
                                                                   monkeypatch, capsys):
        """eta = 10 on 300 samples: LMS's error stays finite, up to 4.2e213,
        but its square overflows from step 209 on, before any update does."""
        monkeypatch.setenv("KAF_THREADS", workers)
        cfg = base_run_config(tmp_path, filter={"kind": "lms", "eta": 10.0}, trials=1,
                              stream={"generator": "nonlinear_sysid", "length": 300,
                                      "noise_std": 0.1, "seed": 1, "embed_L": 3})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "numerical"
        assert err["message"].startswith("trial with seed 1 failed at step 209: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("length", [10 ** 30, 2 ** 62])
    def test_unallocatable_stream_exits_1(self, length, tmp_path, monkeypatch, capfd):
        """numpy refuses these lengths' draws before it allocates anything;
        nothing reaches stderr, from kaf or from its worker processes."""
        monkeypatch.setenv("KAF_THREADS", "2")
        cfg = base_run_config(tmp_path, stream={"generator": "noisy_sinc", "length": length})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        out, err = capfd.readouterr()
        assert err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "validation"
        assert error["message"].startswith(f"stream.length {length} is too long to generate: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


# Extreme values of each filter key and grid key, and of the kernels' and
# streams'. sigma = 1e-160 gives sigma^2 = 1e-320, a subnormal.
KEY_VALUES = {
    "eta": [1e-300, 0.2, 10.0, 1e10, 1e300],
    "lambda": [0.0, 1e-300, 0.1, 1e300],
    "delta": [0.0, 1e-12, 0.01, 1e300],
    "sigma": [1e-160, 1e-150, 1.0, 1e150],
}
KEY_VALUES["kernel"] = ([{"family": "gaussian", "sigma": sigma} for sigma in KEY_VALUES["sigma"]]
                        + [{"family": "polynomial", "degree": p} for p in (1, 2, 7)])


@st.composite
def run_configs(draw):
    """A `kaf run` config: any filter kind, each key it reads set to an
    extreme value or an ordinary one, on a short stream of any generator."""
    kind = draw(st.sampled_from(sorted(FILTER_KEYS)))
    filt = {"kind": kind, **{key: draw(st.sampled_from(KEY_VALUES[key]))
                             for key in FILTER_KEYS[kind]}}
    embed_L = draw(st.integers(1, 3))
    stream = {"generator": draw(st.sampled_from(GENERATORS)),
              "length": draw(st.integers(embed_L + 1, 400)),
              "noise_std": draw(st.sampled_from([0.0, 0.1, 1e100, 1e300])),
              "seed": draw(st.integers(0, 3)), "embed_L": embed_L}
    return {"filter": filt, "stream": stream, "trials": draw(st.integers(1, 3))}


@st.composite
def sweep_configs(draw):
    """A `kaf sweep` config: a `run_configs` one with a grid over some of the
    keys its kind reads, each over one or two of its extreme values."""
    cfg = draw(run_configs())
    filt = cfg["filter"]
    keys = [key for key, sets in kaf.cli.SWEEP_KEYS.items() if sets in FILTER_KEYS[filt["kind"]]
            and not (key == "sigma" and filt["kernel"]["family"] == "polynomial")]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    grid = {key: draw(st.lists(st.sampled_from(KEY_VALUES[key]), min_size=1, max_size=2,
                               unique=True))
            for key in keys if key in chosen}  # in SWEEP_KEYS order, as the CSV's columns
    cfg["stream"]["length"] = min(cfg["stream"]["length"], 200)
    return {**cfg, "trials": min(cfg["trials"], 2), "grid": grid}


def refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@contextlib.contextmanager
def contract_run(command, cfg, workers):
    """Run `kaf <command>` on `cfg`, writing to curve.csv in a fresh
    directory, at KAF_THREADS `workers`, with RuntimeWarning an error in the
    parent and, through the pool, in every forked worker, which inherits the
    warning filter. Yields the exit code, stdout and the directory."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.dict(os.environ, {"KAF_THREADS": workers}):
        warnings.simplefilter("error", RuntimeWarning)
        config = os.path.join(tmp, "c.json")
        with open(config, "w") as f:
            json.dump({**cfg, "out": os.path.join(tmp, "curve.csv")}, f)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", config])
        yield code, stdout.getvalue(), tmp


class TestRunContract:
    @settings(max_examples=50)
    @given(cfg=run_configs(), workers=st.sampled_from(["1", "2"]))
    def test_exit_code_outputs_and_no_warning(self, cfg, workers):
        """Whatever the config, `kaf run` exits 0, 1, 2 or 3. On 0 it has
        written a CSV of finite numbers and a summary that is strict JSON;
        otherwise it prints one JSON error object and leaves no output. No
        RuntimeWarning escapes, from the parent or a forked worker."""
        with contract_run("run", cfg, workers) as (code, stdout, tmp):
            if code == 0:
                assert sorted(os.listdir(tmp)) == ["c.json", "curve.csv", "curve.summary.json"]
                with open(os.path.join(tmp, "curve.summary.json")) as f:
                    json.load(f, parse_constant=refuse_constant)
                rows = read_rows(os.path.join(tmp, "curve.csv"))[1:]
                assert np.isfinite(np.array(rows, dtype=float)).all()
            else:
                assert code in (1, 2, 3)
                assert list(json.loads(stdout)) == ["error"]
                assert os.listdir(tmp) == ["c.json"]


class TestSweepContract:
    @settings(max_examples=50)
    @given(cfg=sweep_configs(), workers=st.sampled_from(["1", "2"]))
    def test_exit_code_rows_and_no_warning(self, cfg, workers):
        """Whatever the config and grid, `kaf sweep` exits 0 with one row per
        grid point, or 1 with one JSON error object and no CSV. Every number
        in the CSV is finite; a failed point names its error and leaves its
        MSE and dictionary size empty, and a point that ran fills both. No
        RuntimeWarning escapes, from the parent or a forked worker."""
        with contract_run("sweep", cfg, workers) as (code, stdout, tmp):
            if code == 1:
                assert list(json.loads(stdout)) == ["error"]
                assert os.listdir(tmp) == ["c.json"]
                return
            assert code == 0
            header, *rows = read_rows(os.path.join(tmp, "curve.csv"))
            assert header == list(cfg["grid"]) + ["steady_state_mse", "final_dict_size",
                                                  "total_seconds", "error"]
            assert len(rows) == np.prod([len(values) for values in cfg["grid"].values()])
            for *numbers, error in rows:
                mse_and_size = numbers[-3:-1]
                if error:
                    assert mse_and_size == ["", ""]
                else:
                    assert "" not in mse_and_size
                values = np.array([x for x in numbers if x], dtype=float)
                assert np.isfinite(values).all()


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["run", "--config", "c.json", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["run"], "the following arguments are required: --config"),
        (["verify", "--suite", "bogus"], "argument --suite: invalid choice: 'bogus'"),
        (["bench", "--filter", "lms", "--out", "b.csv"],
         "argument --filter: invalid choice: 'lms'"),
        (["bench", "--filter", "klms", "--sizes", "500,1000", "--out", "b.csv"],
         "unrecognized arguments: --sizes 500,1000"),
    ], ids=["bad-flag-value", "missing-config", "unknown-suite", "bench-lms", "bench-sizes"])
    def test_usage_error_exits_1(self, argv, message, tmp_path, monkeypatch, capsys):
        """A malformed command line is a validation error, not argparse's
        exit 2, which the contract gives to numerical failures."""
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "c.json", base_run_config(tmp_path))
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "validation" and err["message"].startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestSweep:
    def sweep_config(self, tmp_path, grid, **overrides):
        cfg = {
            "filter": {"kind": "krls-ald-reg",
                       "kernel": {"family": "gaussian", "sigma": 1.0},
                       "lambda": 0.1, "delta": 0.01},
            "stream": {"generator": "noisy_sinc", "length": 400,
                       "noise_std": 0.1, "seed": 0, "embed_L": 1},
            "trials": 1,
            "grid": grid,
            "out": str(tmp_path / "sweep.csv"),
        }
        cfg.update(overrides)
        return cfg

    def test_delta_grid_orders_dictionary_sizes(self, tmp_path):
        """On this fixed stream, looser admission thresholds give strictly
        smaller dictionaries (an observation, not a theorem)."""
        cfg = self.sweep_config(tmp_path, {"delta": [0.0001, 0.01, 0.5]})
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 0
        rows = read_rows(cfg["out"])
        assert rows[0][:2] == ["delta", "steady_state_mse"]
        sizes = [float(r[2]) for r in rows[1:]]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_single_point_grid_matches_run_summary(self, tmp_path):
        grid_cfg = self.sweep_config(tmp_path, {"delta": [0.01]}, trials=2)
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", grid_cfg)]) == 0
        sweep_rows = read_rows(grid_cfg["out"])
        run_cfg = base_run_config(tmp_path, stream=grid_cfg["stream"], trials=2)
        assert main(["run", "--config", write_config(tmp_path / "r.json", run_cfg)]) == 0
        summary = json.loads((tmp_path / "curve.summary.json").read_text())
        assert float(sweep_rows[1][1]) == pytest.approx(
            summary["mean_steady_state_mse"], rel=1e-15)

    def test_overregularized_mse_approaches_target_variance(self, tmp_path):
        cfg = self.sweep_config(tmp_path, {"lambda": [1e9]},
                                stream={"generator": "nonlinear_sysid",
                                        "length": 1000, "noise_std": 0.1,
                                        "seed": 4, "embed_L": 3})
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 0
        mse = float(read_rows(cfg["out"])[1][1])
        _, d = generate(StreamConfig("nonlinear_sysid", length=1000,
                                     noise_std=0.1, seed=4, embed_L=3))
        assert mse == pytest.approx(np.var(d), rel=0.35)

    def test_failed_point_recorded_sweep_continues(self, tmp_path):
        cfg = self.sweep_config(tmp_path, {"lambda": [-1.0, 0.1]})
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 0
        rows = read_rows(cfg["out"])
        assert len(rows) == 3
        assert "ValidationError" in rows[1][-1] and rows[1][1] == ""
        assert rows[2][-1] == "" and float(rows[2][1]) > 0

    def test_divergent_point_recorded_sweep_continues(self, tmp_path):
        cfg = self.sweep_config(tmp_path, {"eta": [0.2, 50.0]}, filter={"kind": "klms"},
                                stream={"generator": "nonlinear_sysid", "length": 400,
                                        "noise_std": 0.1, "seed": 3})
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 0
        rows = read_rows(cfg["out"])
        assert len(rows) == 3
        assert rows[1][-1] == "" and float(rows[1][1]) > 0
        assert rows[2][-1].startswith("NumericalError: trial with seed 3 failed at step 272: ")
        assert rows[2][1] == rows[2][2] == ""

    def test_overflowing_squared_error_recorded(self, tmp_path):
        cfg = self.sweep_config(tmp_path, {"eta": [0.2, 10.0]}, filter={"kind": "lms"},
                                stream={"generator": "nonlinear_sysid", "length": 300,
                                        "noise_std": 0.1, "seed": 1, "embed_L": 3})
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 0
        rows = read_rows(cfg["out"])
        assert rows[1][-1] == "" and float(rows[1][1]) > 0
        assert rows[2][-1].startswith("NumericalError: trial with seed 1 failed at step 209: ")
        assert rows[2][1] == rows[2][2] == ""

    def test_unallocatable_stream_recorded_as_a_failed_point(self, tmp_path):
        cfg = self.sweep_config(tmp_path, {"delta": [0.01, 0.1]})
        cfg["stream"]["length"] = 10 ** 30
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 0
        rows = read_rows(cfg["out"])
        assert len(rows) == 3
        assert all(r[-1].startswith("ValidationError: stream.length ") for r in rows[1:])

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_exit_1_before_any_point(self, trials, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path, {"delta": [0.01, 0.1]}, trials=trials)
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "validation"
        assert f"'trials' must be >= 1, got {trials}" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_empty_grid_rejected(self, tmp_path):
        cfg = self.sweep_config(tmp_path, {})
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_empty_grid_list_exits_1(self, command, tmp_path, capsys):
        """A grid list with no values would sweep no point: refused, and
        nothing is written."""
        cfg = self.sweep_config(tmp_path, {"delta": [], "lambda": [0.1]})
        assert main([command, "--config", write_config(tmp_path / "s.json", cfg)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "validation",
                       "message": "grid 'delta' is not a nonempty list of numbers: []"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_grid_key_the_kind_does_not_read_exits_1(self, command, tmp_path, capsys):
        """An lms sweep over delta x sigma would write four identical rows:
        the kind reads neither key, so the config exits 1 and nothing is
        written."""
        cfg = self.sweep_config(tmp_path, {"delta": [0.01, 0.1], "sigma": [0.5, 1.0]},
                                filter={"kind": "lms", "eta": 0.05})
        assert main([command, "--config", write_config(tmp_path / "s.json", cfg)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "validation",
                       "message": "unknown lms grid keys: ['delta', 'sigma']"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


    @pytest.mark.parametrize("where", ["flag", "grid"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_sigma_on_a_polynomial_kernel_exits_1(self, command, where, tmp_path, capsys):
        """A polynomial kernel has no width: a sigma sweep over it would write
        identical rows, and --sigma would be dropped. Both exit 1 and write
        nothing."""
        poly = {"kind": "krls-ald-reg", "kernel": {"family": "polynomial", "degree": 2},
                "lambda": 0.1, "delta": 0.01}
        grid = {"sigma": [0.5, 1.0, 2.0]} if where == "grid" else {"delta": [0.01]}
        cfg = self.sweep_config(tmp_path, grid, filter=poly)
        flags = ["--sigma", "2"] if where == "flag" else []
        assert main([command, "--config", write_config(tmp_path / "s.json", cfg)] + flags) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "validation",
                       "message": "a polynomial kernel does not read sigma, the Gaussian width"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]
        # the same config without sigma runs
        cfg["grid"] = {"delta": [0.01]}
        assert main([command, "--config", write_config(tmp_path / "s.json", cfg)]) == 0


class TestVerify:
    @pytest.mark.parametrize("suite", SUITES)
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max_deviation" in out

    @staticmethod
    def drifted_oracle(monkeypatch, drift):
        """Has the suites' batch oracle hand its solution to `drift` first."""
        solve = kaf.verify.batch_solve_regularized

        def drifted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            drift(sol)
            return sol
        monkeypatch.setattr(kaf.verify, "batch_solve_regularized", drifted)

    def fails_at(self, suite, capsys):
        assert main(["verify", "--suite", suite]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"suite={suite} ") and out.splitlines()[0].endswith(" FAIL")
        return json.loads(out[out.index("{"):])["first_failure"]

    def test_krls_batch_fails_at_a_drifted_prefix_solution(self, monkeypatch, capsys):
        def drift(sol):  # sample 150 is step 151
            sol.step_alphas[150] = sol.step_alphas[150] * (1 + 1e-6)
        self.drifted_oracle(monkeypatch, drift)
        failure = self.fails_at("krls-batch", capsys)
        assert failure["step"] == 151 and failure["deviation"] > 1e-8

    def test_inverse_consistency_fails_at_a_drifted_expansion_row(self, monkeypatch, capsys):
        def drift(sol):  # L = A G W^T takes A's row 200 from step 201 on
            sol.A[200, 0] += 1.0
        self.drifted_oracle(monkeypatch, drift)
        failure = self.fails_at("inverse-consistency", capsys)
        assert failure["step"] == 201 and failure["p_identity_residual_per_k"] > 1e-6

    def test_inverse_consistency_fails_at_a_drifted_gram(self, monkeypatch, capsys):
        """The Gram matrix of the first ten centers drifts: the identity
        residual fails at the step that admits the tenth center."""
        admitted = []  # the first nonzero of A's column 9 is the tenth center's 1
        self.drifted_oracle(monkeypatch, lambda sol: admitted.append(
            int(np.flatnonzero(sol.A[:, 9])[0]) + 1))
        gram = Dictionary.gram.fget
        monkeypatch.setattr(Dictionary, "gram", property(
            lambda d: gram(d) + 1e-4 * np.eye(d.size) if d.size == 10 else gram(d)))
        failure = self.fails_at("inverse-consistency", capsys)
        assert failure["step"] == admitted[0] and failure["gram_identity_residual"] > 1e-8

    @pytest.mark.parametrize("part", ["A row", "centers"])
    def test_krls_batch_fails_where_the_dictionary_diverges(self, part, monkeypatch, capsys):
        """The oracle's A row 20 takes its last center at sample 20 (step
        21), or its tenth center moves: the suite fails at that step as a
        divergence."""
        steps = []

        def drift(sol):
            if part == "A row":
                sol.A[20, -1] = 1.0
                steps.append(21)
            else:  # the first nonzero of A's column 9 is the tenth center's 1
                sol.centers[9] += 1.0
                steps.append(int(np.flatnonzero(sol.A[:, 9])[0]) + 1)
        self.drifted_oracle(monkeypatch, drift)
        failure = self.fails_at("krls-batch", capsys)
        assert failure == {"step": steps[0], "reason": "dictionary diverged from the oracle"}

    def test_unknown_suite_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown verify suite"):
            run_suite("bogus")

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_3_without_a_traceback(self, unbuffered):
        """`kaf verify ... | head -1` once the reader has gone: whether a print
        or the final flush meets the closed pipe, kaf exits 3, the I/O error
        code, and writes nothing to stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.path.dirname(os.path.dirname(kaf.__file__))}
        try:
            proc = subprocess.run([sys.executable, "-m", "kaf.cli", "verify", "--suite",
                                   "gram-psd"], stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=300)
        finally:
            os.close(write_end)
        assert proc.stderr.decode() == ""
        assert proc.returncode == 3


class TestBench:
    def test_recipes(self, monkeypatch):
        """Each recipe's sizes strictly increase, its first window starts
        after sample 0 (which the constructor absorbs, untimed), and every
        kind is a `--filter` choice that reaches `run_bench`."""
        for kind, sizes in kaf.bench.RECIPES.items():
            assert all(a < b for a, b in zip(sizes, sizes[1:])), kind
            assert sizes[0] - kaf.bench._half_width(sizes[0]) > 0, kind
        kinds = []
        monkeypatch.setattr(kaf.cli, "run_bench", lambda kind: kinds.append(kind)
                            or kaf.bench.BenchResult(kind, [], 2.0, False))
        for kind in kaf.bench.RECIPES:
            assert main(["bench", "--filter", kind]) == 0
        assert kinds == list(kaf.bench.RECIPES)

    def test_emits_csv_and_slope(self, tmp_path, monkeypatch, capsys):
        """Synthetic step times in place of the child's, one per size up to
        the recipe's last plus one (test_cost_scaling times the real child)."""
        sizes = kaf.bench.RECIPES["krls-ald-reg"]
        monkeypatch.setattr(kaf.bench, "_collect_one_thread",
                            lambda kind: np.arange(sizes[-1] + 2) ** 2 / 1e9)
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--filter", "krls-ald-reg", "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == ["size", "median_step_seconds", "rel_iqr"]
        assert [int(r[0]) for r in rows[1:]] == list(sizes)
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert sorted(report) == ["filter", "slope", "unstable_timings"]
        assert report["filter"] == "krls-ald-reg" and np.isfinite(report["slope"])

    @pytest.mark.parametrize("kind", kaf.bench.BENCH_KINDS)
    def test_every_window_is_two_sided(self, kind, monkeypatch, capsys):
        """The child, run in process on step times of size^2, collects past
        the last recipe size's window: `run_bench` reads the slope 2."""
        monkeypatch.setattr(kaf.bench, "_collect",
                            lambda kind, max_size: np.arange(max_size + 2) ** 2 / 1e9)
        kaf.bench._child(kind)
        times = np.array(json.loads(capsys.readouterr().out))
        monkeypatch.setattr(kaf.bench, "_collect_one_thread", lambda kind: times)
        assert kaf.bench.run_bench(kind).slope == pytest.approx(2.0, abs=1e-3)

    def test_each_step_reads_its_fastest_pass(self, monkeypatch, capsys):
        """The child runs the stream PASSES times and prints each step's
        fastest time: steps that one pass ran slowly read as in the others."""
        passes = iter(range(kaf.bench.PASSES))

        def collect(kind, max_size):
            times = np.ones(max_size + 2)
            times[next(passes)::kaf.bench.PASSES] = 2.0  # each step is slow in one pass
            return times

        monkeypatch.setattr(kaf.bench, "_collect", collect)
        kaf.bench._child("krls-ald-reg")
        times = json.loads(capsys.readouterr().out)
        assert len(times) == 2202 and set(times) == {1.0}

    def test_failed_child_exits_2(self, tmp_path, monkeypatch, capfd):
        """A child that cannot run, here a program in place of the Python
        interpreter that exits 1: its last stderr line names the failure."""
        child = tmp_path / "child"
        child.write_text("#!/bin/sh\necho 'ValueError: no child' >&2\nexit 1\n")
        child.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(child))
        assert main(["bench", "--filter", "krls-ald-reg"]) == 2
        out, err = capfd.readouterr()
        assert err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "numerical"
        assert error["message"] == "bench child exited 1: ValueError: no child"
