"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success). Tolerances are pinned
here and must not be loosened.
"""

import json

import numpy as np
import pytest

from kaf import BatchProblem, KernelSpec, KrlsAldReg, batch_solve_regularized, gram
from kaf.bench import run_bench
from kaf.cli import main
from kaf.experiments import FilterConfig, StreamConfig, run_trial
from kaf.verify import (
    gram_psd_suite,
    inverse_consistency_suite,
    klms_feature_suite,
)

GAUSS = KernelSpec("gaussian", sigma=1.0)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def krls_300_stream():
    """300-sample stream (Gaussian sigma=1, lambda=0.1, delta=0.01) driven
    through both the recursion and the per-prefix dense solve."""
    rng = np.random.default_rng(11)
    U = rng.uniform(-1.5, 1.5, (300, 2))
    d = np.sin(2 * U[:, 0]) * np.cos(U[:, 1]) + 0.3 * U[:, 1] \
        + 0.05 * rng.standard_normal(300)
    lam, delta = 0.1, 0.01
    sol = batch_solve_regularized(
        BatchProblem(U, d, GAUSS, lam, delta), collect_steps=True)
    filt = KrlsAldReg(GAUSS, lam, delta, U[0], d[0])
    max_dev, grew, unchanged, p_resid = 0.0, 0, 0, []
    for i in range(1, 300):
        out = filt.step(U[i], d[i])
        grew += out.grew
        unchanged += not out.grew
        ref = sol.step_alphas[i]
        if ref.shape != filt.alpha.shape:
            max_dev = np.inf
            break
        max_dev = max(max_dev, float(
            np.linalg.norm(filt.alpha - ref, np.inf) / np.linalg.norm(ref, np.inf)))
        # P inverts L^T L + lam I for the whitened features L = A G W^T,
        # with A the oracle's expansion matrix over this prefix
        k = filt.dict_size
        L = sol.A[: i + 1, :k] @ filt.dict.gram @ filt.dict.W.T
        p_resid.append(float(np.linalg.norm(
            filt.P @ (L.T @ L + lam * np.eye(k)) - np.eye(k), np.inf)) / k)
    return {"max_dev": max_dev, "grew": grew, "unchanged": unchanged,
            "max_p_residual_per_k": max(p_resid)}


def test_recursive_equals_batch(krls_300_stream):
    r = krls_300_stream
    ok = (r["max_dev"] <= 1e-8 and r["grew"] >= 20 and r["unchanged"] >= 20)
    report("recursive-equals-batch", ok,
           f"max rel dev {r['max_dev']:.3e} <= 1e-8, "
           f"branches grew={r['grew']} unchanged={r['unchanged']} (each >= 20)")


def test_krr_limit():
    rng = np.random.default_rng(5)
    U = rng.uniform(-5, 5, (100, 2))
    d = np.sin(U[:, 0]) * np.cos(U[:, 1]) + 0.1 * rng.standard_normal(100)
    lam = 0.1
    filt = KrlsAldReg(GAUSS, lam, 0.0, U[0], d[0])
    for i in range(1, 100):
        filt.step(U[i], d[i])
    ref = np.linalg.solve(gram(GAUSS, U) + lam * np.eye(100), d)
    dev = float(np.linalg.norm(filt.alpha - ref, np.inf) / np.linalg.norm(ref, np.inf))
    ok = dev <= 1e-8 and filt.dict_size == 100
    report("krr-limit", ok,
           f"rel dev {dev:.3e} <= 1e-8, dictionary size {filt.dict_size} == 100")


def test_p_invariant(krls_300_stream):
    worst = krls_300_stream["max_p_residual_per_k"]
    report("p-invariant", worst <= 1e-6,
           f"max ||P(L^T L + lam I) - I||_inf / K = {worst:.3e} <= 1e-6 over 300 steps")


def test_gram_inverse_consistency():
    res = inverse_consistency_suite(samples=500)
    report("gram-inverse-consistency", res.max_deviation <= 1e-8 and res.passed,
           f"max ||G W^T W - I||_inf {res.max_deviation:.3e} <= 1e-8 after every "
           f"growth, 500-step run, final K={res.details['final_dict_size']}")


def test_klms_feature_space_equivalence():
    res = klms_feature_suite(samples=200, eta=0.1, degree=2, dim=2)
    report("klms-feature-equivalence", res.passed,
           f"max |y_kernel - y_feature| {res.max_deviation:.3e} <= 1e-10 "
           f"over 200 steps (poly degree 2, dim 2, eta 0.1)")


def test_gram_psd():
    res = gram_psd_suite(sets=50, points=50)
    report("gram-psd", res.passed,
           f"worst -min_eig/n = {res.max_deviation:.3e} <= 1e-10 over 50 sets of 50")


def test_cost_scaling():
    # A forced-growth KRLS step makes three K^2 matrix-vector products and no
    # K^2 write. Only from K ~ 500 on do they outweigh its fixed call cost
    # (~70 us) and stream from memory rather than cache; over sizes 50-800
    # the log-log slope reads about 1.
    krls = run_bench("krls-ald-reg", [500, 707, 1000, 1414, 2000])
    klms = run_bench("klms", [500, 1000, 2000, 4000, 8000])
    ok = 1.5 <= krls.slope <= 2.5 and 0.7 <= klms.slope <= 1.3
    report("cost-scaling", ok,
           f"KRLS log-log slope {krls.slope:.2f} in [1.5, 2.5]; "
           f"KLMS slope {klms.slope:.2f} in [0.7, 1.3]")


def test_nonlinear_advantage():
    def mean_ss(fc):
        vals = []
        for s in range(10):
            sc = StreamConfig("nonlinear_sysid", length=3000, noise_std=0.1,
                              seed=100 + s, embed_L=3)
            vals.append(run_trial(fc, sc).steady_state_mse())
        return float(np.mean(vals))

    krls = mean_ss(FilterConfig("krls-ald-reg",
                                kernel=KernelSpec("gaussian", sigma=2.0),
                                lam=0.1, delta=0.01))
    rls = mean_ss(FilterConfig("rls", lam=0.1))
    klms = mean_ss(FilterConfig("klms", kernel=GAUSS, eta=0.2))
    lms = mean_ss(FilterConfig("lms", eta=0.2))
    ok = krls < rls and klms < lms
    report("nonlinear-advantage", ok,
           f"mean steady-state MSE over 10 seeds: KRLS {krls:.4f} < RLS {rls:.4f}; "
           f"KLMS {klms:.4f} < LMS {lms:.4f}")


def test_dictionary_saturation():
    rng = np.random.default_rng(42)
    U = rng.uniform(-1, 1, (2000, 2))
    d = np.sin(2 * U[:, 0]) + U[:, 1] ** 2 + 0.1 * rng.standard_normal(2000)
    filt = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
    k1000 = None
    for i in range(1, 2000):
        filt.step(U[i], d[i])
        if i == 999:
            k1000 = filt.dict_size
    growth = filt.dict_size - k1000
    ok = growth <= 0.1 * k1000
    report("dictionary-saturation", ok,
           f"K(1000)={k1000}, K(2000)={filt.dict_size}, "
           f"growth {growth} <= {0.1 * k1000:.1f}")


def test_run_determinism(tmp_path):
    cfg = {
        "filter": {"kind": "krls-ald-reg",
                   "kernel": {"family": "gaussian", "sigma": 1.0},
                   "lambda": 0.1, "delta": 0.01},
        "stream": {"generator": "nonlinear_sysid", "length": 300,
                   "noise_std": 0.1, "seed": 12, "embed_L": 3},
        "trials": 2,
        "out": str(tmp_path / "curve.csv"),
    }
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cpath)]) == 0
    first = open(cfg["out"], "rb").read()
    assert main(["run", "--config", str(cpath)]) == 0
    second = open(cfg["out"], "rb").read()
    ok = first == second and len(first) > 0
    report("run-determinism", ok,
           f"two identical runs produced byte-identical CSV ({len(first)} bytes)")
