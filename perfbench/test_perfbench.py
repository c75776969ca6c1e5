"""The benchmark's own tests: every phase runs, and every check can fail.

    python3 -m pytest perfbench -q

The smoke runs drive each workload through set-up, training, prediction,
`kaf run` and the checks on short streams. The perturbation tests feed each
check genuine kaf output that passes, then the same output with one value
changed, which must fail.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import kaf  # noqa: E402
import kaf.cli  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    res = result(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "0", "--smoke"))
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_smoke_traced_reports_every_per_layer_metric():
    res = result(run_bench("--workload", "krls_small_k", "--seed", "3", "--seconds", "1",
                           "--trace", "1", "--smoke"))
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["metrics"]["base.as_input_calls.unchanged_step"]["value"] > 0


def test_refuses_to_run_without_kaf_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "krls_small_k", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- perturbed outputs ------------------------------------------------------

SPEC_G = kaf.KernelSpec("gaussian", sigma=1.0)


def krls_run(n=400):
    U, d = kaf.generate(kaf.StreamConfig("nonlinear_sysid", n, 0.0, 5, 3))
    f = kaf.KrlsAldReg(SPEC_G, 0.1, 0.01, U[0], d[0])
    grew = [True] + [f.step(U[i], d[i]).grew for i in range(1, n)]
    return U, d, np.array(grew), f


def klms_run(n=400):
    U, d = kaf.generate(kaf.StreamConfig("nonlinear_sysid", n, 0.0, 5, 3))
    f = kaf.Klms(SPEC_G, 0.2, U[0], d[0])
    y, e = [0.0], [d[0]]
    for i in range(1, n):
        out = f.step(U[i], d[i])
        y.append(out.y)
        e.append(out.e)
    return U, d, np.array(y), np.array(e), f


def test_krls_coefficient_check_catches_one_entry_off_by_1e6_relative():
    U, d, grew, f = krls_run()
    alpha_ref, _ = checks.krls_reference(U, d, grew, 1.0, 0.1)
    assert checks.check_krls_coefficients(f.alpha, alpha_ref).ok
    bad = f.alpha.copy()
    j = int(np.argmax(np.abs(bad)))
    bad[j] *= 1 + 1e-6
    assert not checks.check_krls_coefficients(bad, alpha_ref).ok


@pytest.mark.parametrize("flip_to", [True, False])
def test_krls_admission_check_catches_one_flipped_admission(flip_to):
    U, d, grew, _ = krls_run()
    _, d2 = checks.krls_reference(U, d, grew, 1.0, 0.1)
    assert checks.check_krls_admissions(grew, d2, 0.01).ok
    flipped = grew.copy()
    j = int(np.nonzero(grew[1:] != flip_to)[0][-1]) + 1
    flipped[j] = flip_to
    _, d2_flipped = checks.krls_reference(U, d, flipped, 1.0, 0.1)
    assert not checks.check_krls_admissions(flipped, d2_flipped, 0.01).ok


@pytest.mark.parametrize("field", ["y", "e", "coeffs"])
def test_klms_check_catches_one_perturbed_output(field):
    U, d, y, e, f = klms_run()
    data = {"y": y, "e": e, "coeffs": f.coeffs.copy()}
    assert checks.check_klms(U, d, data["y"], data["e"], data["coeffs"], 0.2, 1.0).ok
    data[field] = data[field].copy()
    data[field][len(U) // 2] += 1e-6
    assert not checks.check_klms(U, d, data["y"], data["e"], data["coeffs"], 0.2, 1.0).ok


def test_heldout_check_catches_a_wrong_prediction_and_a_linear_grade_model():
    U, d, _, f = krls_run()
    X, dh = kaf.generate(kaf.StreamConfig("nonlinear_sysid", 300, 0.0, 6, 3))
    pred = np.array([f.predict(x) for x in X])
    args = (f.dict.centers, f.alpha, U, d, 1.0)
    assert checks.check_heldout(X, dh, pred, *args).ok
    bad = pred.copy()
    bad[7] += 1e-6
    assert not checks.check_heldout(X, dh, bad, *args).ok
    # a zero model is evaluated exactly but predicts worse than a linear fit
    zero = np.zeros_like(pred)
    assert not checks.check_heldout(X, dh, zero, f.dict.centers, np.zeros_like(f.alpha),
                                    U, d, 1.0).ok


@pytest.fixture()
def kaf_run_output(tmp_path):
    cfg = {"filter": WORKLOADS["krls_small_k"].filter,
           "stream": {"generator": "noisy_sinc", "length": 300, "noise_std": 0.1,
                      "seed": 4, "embed_L": 1},
           "trials": 2, "out": str(tmp_path / "run.csv")}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    code = kaf.cli.main(["run", "--config", str(tmp_path / "run.json")])
    U, d = kaf.generate(kaf.StreamConfig.from_json(cfg["stream"]))
    f = kaf.KrlsAldReg(SPEC_G, 0.1, 0.01, U[0], d[0])
    for i in range(1, len(d)):
        f.step(U[i], d[i])
    return code, tmp_path / "run.csv", tmp_path / "run.summary.json", f.dict_size


def _check(code, csv_path, summary_path, k):
    return checks.check_kaf_run(code, str(csv_path), str(summary_path), 2, 300, k).ok


def test_kaf_run_check_passes_genuine_output(kaf_run_output):
    assert _check(*kaf_run_output)


def test_kaf_run_check_catches_an_altered_row(kaf_run_output):
    code, csv_path, summary_path, k = kaf_run_output
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    rows[120][3] = repr(float(rows[120][3]) + 1e-6)
    with open(csv_path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    assert not _check(code, csv_path, summary_path, k)


def test_kaf_run_check_catches_a_missing_row(kaf_run_output):
    code, csv_path, summary_path, k = kaf_run_output
    with open(csv_path) as f:
        lines = f.readlines()
    with open(csv_path, "w") as f:
        f.writelines(lines[:-1])
    assert not _check(code, csv_path, summary_path, k)


def test_kaf_run_check_catches_a_wrong_trial_k_and_a_failed_exit(kaf_run_output):
    code, csv_path, summary_path, k = kaf_run_output
    assert not _check(code, csv_path, summary_path, k + 1)
    assert not _check(1, csv_path, summary_path, k)
