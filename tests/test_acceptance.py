"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success). Tolerances are pinned
here and must not be loosened.

Five criteria read a `kaf verify` suite's result rather than repeat its
run: recursive-equals-batch and p-invariant read krls-batch (its alpha
deviation, branch counts and `max_p_residual_per_k`),
gram-inverse-consistency reads inverse-consistency, klms-feature-equivalence
reads klms-feature and gram-psd reads gram-psd. The rest drive the filters,
the bench and the CLI themselves.
"""

import json

import numpy as np
import pytest

from kaf import KernelSpec, KrlsAldReg, gram
from kaf.bench import run_bench
from kaf.cli import main
from kaf.experiments import FilterConfig, StreamConfig, run_trial
from kaf.verify import (
    gram_psd_suite,
    inverse_consistency_suite,
    klms_feature_suite,
    krls_batch_suite,
)

GAUSS = KernelSpec("gaussian", sigma=1.0)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def krls_300_stream():
    """`kaf verify --suite krls-batch`: 300 samples (Gaussian sigma=1,
    lambda=0.1, delta=0.01) through both the recursion and the per-prefix
    dense solve."""
    return krls_batch_suite()


def test_recursive_equals_batch(krls_300_stream):
    r = krls_300_stream
    grew, unchanged = r.details["grew_steps"], r.details["unchanged_steps"]
    ok = r.passed and r.max_deviation <= 1e-8 and grew >= 20 and unchanged >= 20
    report("recursive-equals-batch", ok,
           f"max rel dev {r.max_deviation:.3e} <= 1e-8, "
           f"branches grew={grew} unchanged={unchanged} (each >= 20)")


def test_krr_limit():
    """delta = 0 with distinct inputs: every sample admitted, the batch
    expansion matrix is the identity, and alpha is kernel ridge regression."""
    rng = np.random.default_rng(5)
    U = rng.uniform(-5, 5, (100, 2))
    d = np.sin(U[:, 0]) * np.cos(U[:, 1]) + 0.1 * rng.standard_normal(100)
    lam = 0.1
    filt = KrlsAldReg(GAUSS, lam, 0.0, U[0], d[0])
    grew = sum(filt.step(U[i], d[i]).grew for i in range(1, 100))
    ref = np.linalg.solve(gram(GAUSS, U) + lam * np.eye(100), d)
    dev = float(np.linalg.norm(filt.alpha - ref, np.inf) / np.linalg.norm(ref, np.inf))
    ok = dev <= 1e-8 and grew == 99 and filt.dict_size == 100
    report("krr-limit", ok,
           f"rel dev {dev:.3e} <= 1e-8, {grew} of 99 steps grew, "
           f"dictionary size {filt.dict_size} == 100")


def test_p_invariant(krls_300_stream):
    # P inverts L^T L + lam I for the whitened features L = A G W^T, with A
    # the oracle's expansion matrix over each prefix
    details = krls_300_stream.details
    worst, steps = details["max_p_residual_per_k"], details["grew_steps"] + details["unchanged_steps"]
    report("p-invariant", worst <= 1e-6 and steps == 299,
           f"max ||P(L^T L + lam I) - I||_inf / K = {worst:.3e} <= 1e-6 "
           f"over {steps} of 299 steps")


def test_gram_inverse_consistency():
    res = inverse_consistency_suite()
    report("gram-inverse-consistency", res.max_deviation <= 1e-8 and res.passed,
           f"max ||G W^T W - I||_inf {res.max_deviation:.3e} <= 1e-8 after every "
           f"growth, 500-step run, final K={res.details['final_dict_size']}")


def test_klms_feature_space_equivalence():
    res = klms_feature_suite()
    report("klms-feature-equivalence", res.passed,
           f"max |y_kernel - y_feature| {res.max_deviation:.3e} <= 1e-10 "
           f"over 200 steps (poly degree 2, dim 2, eta 0.1)")


def test_gram_psd():
    res = gram_psd_suite()
    report("gram-psd", res.passed,
           f"worst -min_eig/n = {res.max_deviation:.3e} <= 1e-10 over 50 sets of 50")


def test_cost_scaling():
    # The recipes of `kaf.bench.RECIPES`. A forced-growth KRLS step makes
    # three K^2 matrix-vector products, each over one triangle of W or P_b
    # (about K^2/2 entries each, through BLAS's dtrmv and dsymv where numpy's
    # OpenBLAS exports them), and copies W and P_b only at
    # every eighth of growth. Only from K ~ 500 on do they outweigh its
    # fixed call cost (~70 us) and stream from memory rather than cache, so
    # its recipe reads K = 500-2000; KLMS's reads 500-8000 terms of a
    # 128-dimensional stream.
    krls = run_bench("krls-ald-reg")
    klms = run_bench("klms")
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
