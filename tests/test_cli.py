import csv
import json
import os

import numpy as np
import pytest

from kaf.cli import main
from kaf.exceptions import ValidationError
from kaf.experiments import StreamConfig, generate
from kaf.verify import run_suite


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
        ("run", "filter", "unregularized", "false"),
        ("run", None, "record_timings", "false"),
        ("sweep", None, "trials", "abc"),
        ("sweep", "stream", "length", "ten"),
    ])
    def test_malformed_config_scalar_exits_1(self, command, section, key, value,
                                              tmp_path, capsys):
        cfg = base_run_config(tmp_path, grid={"delta": [0.01]})
        (cfg[section] if section else cfg)[key] = value
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "validation" and repr(value) in err["message"]
        assert not os.path.exists(cfg["out"])

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        cfg = base_run_config(tmp_path, out=str(tmp_path / "missing" / "x.csv"))
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "io"

    def test_late_write_failure_leaves_no_partial_output(self, tmp_path, capsys):
        # the CSV is written first; the summary's directory does not exist
        cfg = base_run_config(tmp_path,
                              summary_out=str(tmp_path / "missing" / "s.json"))
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "io"
        assert not os.path.exists(cfg["out"])
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_bad_kaf_threads_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KAF_THREADS", "zero")
        cfg = base_run_config(tmp_path)
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        capsys.readouterr()


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

    def test_empty_grid_rejected(self, tmp_path):
        cfg = self.sweep_config(tmp_path, {})
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 1


class TestVerify:
    @pytest.mark.parametrize("suite", ["krls-batch", "klms-feature", "gram-psd",
                                       "inverse-consistency"])
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max_deviation" in out

    def test_unknown_suite_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown verify suite"):
            run_suite("bogus")


class TestBench:
    def test_emits_csv_and_slope(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--filter", "lms", "--sizes", "8,16,32",
                     "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0] == ["size", "median_step_seconds", "rel_iqr"]
        assert len(rows) == 4
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert np.isfinite(report["slope"])

    def test_sizes_must_increase(self, capsys):
        assert main(["bench", "--filter", "lms", "--sizes", "32,16"]) == 1
        capsys.readouterr()

    def test_lms_step_time_flat_in_size(self, capsys):
        # no dictionary: per-step cost does not scale with the size axis
        assert main(["bench", "--filter", "lms", "--sizes", "50,100,200,400"]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert abs(report["slope"]) <= 0.5
