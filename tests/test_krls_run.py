"""`KrlsAldReg.run`, the bulk path, against the step loop it stands in for."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kaf.experiments
from kaf import FilterConfig, KernelSpec, KrlsAldReg, StreamConfig, generate, gram, run_trial
from kaf.exceptions import DimensionMismatchError, KafError, NonFiniteInputError, NumericalError
from kaf.dictionary import AldScreen
from kaf.krls import BLOCK, BLOCK_DENOM_MIN, PENDING

GAUSS = KernelSpec("gaussian", sigma=1.0)


def step_loop(f, U, d):
    """The reference: `step` on every sample, outputs as arrays."""
    outs = [f.step(u, t) for u, t in zip(U, d)]
    return (np.array([o.y for o in outs]), np.array([o.e for o in outs]),
            np.array([o.dict_size for o in outs], dtype=int))


def inject_P(f, P):
    """White-box: give f the matrix P, as its P_b with no pending rows."""
    k = f.dict_size
    f._Pb[:k, :k] = P
    f._m = 0


def rel(a, b):
    """max |a - b| over max |b| (or 1, when b is all but 0)."""
    return float(np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b), initial=0.0), 1.0))


def assert_same_failure(f, g, U, d):
    """`run` on f and the step loop on g raise the same error after the same
    committed samples, and leave the same dictionary and n."""
    with pytest.raises(Exception) as want:
        step_loop(g, U, d)
    with pytest.raises(type(want.value)) as got:
        f.run(U, d)
    assert str(got.value) == str(want.value)
    assert f.n == g.n
    assert np.array_equal(f.dict.centers, g.dict.centers)
    assert np.array_equal(f.dict.W, g.dict.W)


@st.composite
def streams(draw):
    """A stream that revisits a small pool of inputs (repeats), with delta
    set to a residual the stream reaches (so some residuals sit at delta)."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(2, 3 * BLOCK))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.uniform(-2, 2, (draw(st.integers(1, 12)), dim))
    fresh = rng.uniform(-2, 2, (n, dim))
    U = np.where(rng.random((n, 1)) < draw(st.floats(0, 1)), pool[rng.integers(0, len(pool), n)],
                 fresh)
    d = np.sin(2 * U[:, 0]) + 0.1 * rng.standard_normal(n)
    spec = KernelSpec("gaussian", sigma=draw(st.floats(0.5, 2.0)))
    lam = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
    delta = draw(st.floats(1e-3, 0.5))
    # a first pass records the residuals the stream meets under delta; one of
    # them, exactly, becomes the threshold of the compared runs
    f = KrlsAldReg(spec, max(lam, 1e-3), delta, U[0], d[0])
    d2 = []
    for u, t in zip(U[1:], d[1:]):
        d2.append(f.dict.ald_test(u, delta).d2)
        f.step(u, t)
    near = [x for x in d2 if x >= 1e-3]
    if near and draw(st.booleans()):
        delta = near[draw(st.integers(0, len(near) - 1))]
    return spec, lam, delta, U, d


def rel_function(f, alpha, alpha_ref):
    """rel for two expansions over f's centers, in the kernel's function norm
    |a|_G = sqrt(a^T G a): the norm of the model, which its coefficients
    alone fix only to cond(G) times the roundoff."""
    G = f.dict.gram
    norm = lambda a: float(np.sqrt(max(a @ G @ a, 0.0)))
    return norm(alpha - alpha_ref) / max(norm(alpha_ref), 1.0)


@settings(max_examples=150)
@given(streams())
def test_run_equals_the_step_loop(case):
    """The same admissions, e = d - y exactly, and y and the model to 1e-12
    relative, or to the roundoff scale eps cond(P) of the ridge problem
    where that is larger (lambda <= 1e-3 on these draws: cond(P) to ~1e5)."""
    spec, lam, delta, U, d = case
    f = KrlsAldReg(spec, lam, delta, U[0], d[0])
    g = copy.deepcopy(f)
    y, e, size = f.run(U[1:], d[1:])
    y_ref, _, size_ref = step_loop(g, U[1:], d[1:])
    assert np.array_equal(size, size_ref)
    assert np.array_equal(f.dict.centers, g.dict.centers)
    assert f.n == g.n == len(U)
    assert np.array_equal(e, d[1:] - y)
    tol = max(1e-12, 16 * np.finfo(float).eps * np.linalg.cond(g.P))
    assert rel(y, y_ref) <= tol
    assert rel_function(g, f.alpha, g.alpha) <= tol


@st.composite
def hard_streams(draw):
    """Streams long enough to take K past PENDING and cross several flushes
    of Y, with repeated inputs, stretches of one constant input, and sigma,
    lambda and delta each drawn over two to four decades."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2 * PENDING, 3 * BLOCK + 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = rng.uniform(-3, 3, (n, dim))
    kind = draw(st.sampled_from(["fresh", "repeats", "constant"]))
    if kind == "repeats":
        pool = U[: draw(st.integers(1, n // 2))]
        pick = rng.random(n) < 0.5
        U[pick] = pool[rng.integers(0, len(pool), pick.sum())]
    elif kind == "constant":  # each stretch repeats its first input
        starts = np.sort(rng.choice(n, draw(st.integers(1, 8)), replace=False))
        for a, b in zip(starts, list(starts[1:]) + [n]):
            U[a:min(b, a + draw(st.integers(2, 40)))] = U[a]
    d = np.sin(2 * U[:, 0]) * np.cos(U[:, -1]) + 0.1 * rng.standard_normal(n)
    spec = KernelSpec("gaussian", sigma=10 ** draw(st.floats(-1.3, 1.0)))
    lam = 10 ** draw(st.floats(-3.0, 1.0))
    delta = 10 ** draw(st.floats(-4.0, -0.3))
    return spec, lam, delta, U, d


def batch_alpha(f, U, d, admitted):
    """The ridge solution (A^T A G + lam I)^-1 A^T d for f's admission order,
    by dense solves: an admitted sample is its center's unit row, a rejected
    one the coefficients G^-1 h over the centers admitted before it."""
    C = U[admitted]
    G = gram(f.spec, C)
    A = np.zeros((len(U), len(C)))
    k = 0
    for i, (u, grew) in enumerate(zip(U, admitted)):
        if grew:
            A[i, k] = 1.0
            k += 1
        else:
            h = gram(f.spec, np.vstack((C[:k], u)))[-1, :k]
            A[i, :k] = np.linalg.solve(G[:k, :k], h)
    return np.linalg.solve(A.T @ A @ G + f.lam * np.eye(len(C)), A.T @ d)


@settings(max_examples=60)
@given(hard_streams())
def test_invariants_across_flushes(case):
    """Across flushes of Y: P is exactly symmetric after every step and after
    `run`; `run` admits what the step loop admits; and both agree with the
    batch ridge solution to 1e-8, in the norm of the model."""
    spec, lam, delta, U, d = case
    f = KrlsAldReg(spec, lam, delta, U[0], d[0])
    g = copy.deepcopy(f)
    admitted = [True]
    for u, t in zip(U[1:], d[1:]):
        admitted.append(f.step(u, t).grew)
        P = f.P
        assert np.array_equal(P, P.T)
    _, _, size = g.run(U[1:], d[1:])
    assert np.array_equal(g.P, g.P.T)
    assert np.array_equal(np.diff(size, prepend=1) > 0, admitted[1:])
    assert np.array_equal(f.dict.centers, g.dict.centers)
    alpha = batch_alpha(f, U, d, np.array(admitted))
    assert rel_function(f, f.alpha, alpha) <= 1e-8
    assert rel_function(g, g.alpha, alpha) <= 1e-8


@pytest.mark.parametrize("family", ["gaussian", "polynomial"])
def test_run_matches_the_step_loop_across_blocks(family):
    """Several blocks, admissions inside blocks (the screen gains a center
    and goes on), and both kernel families."""
    spec = KernelSpec(family, sigma=1.0, degree=2)
    U, d = generate(StreamConfig("nonlinear_sysid", length=5 * BLOCK + 7, seed=4, embed_L=2))
    f = KrlsAldReg(spec, 0.1, 0.05 if family == "gaussian" else 0.5, U[0], d[0])
    g = copy.deepcopy(f)
    y, e, size = f.run(U[1:], d[1:])
    y_ref, _, size_ref = step_loop(g, U[1:], d[1:])
    assert np.array_equal(size, size_ref)
    assert 3 < size[-1] < len(U) // 2
    assert rel(y, y_ref) <= 1e-12
    assert rel(f.alpha, g.alpha) <= 1e-12
    assert np.array_equal(e, d[1:] - y)


@settings(max_examples=60)
@given(st.sampled_from(["gaussian", "polynomial"]), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_screen_rejects_no_sample_step_admits(family, dim, seed):
    """At a threshold one ulp below a sample's d2 from `_ald`, `step` admits
    it, so the screen must not reject it, though its own d2 differs from
    `_ald`'s by roundoff; also after the screen follows the dictionary's
    growth."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec(family, sigma=rng.uniform(0.5, 2.0), degree=int(rng.integers(1, 4)))
    U = rng.uniform(-2, 2, (80, dim))
    f = KrlsAldReg(spec, 0.1, 1e-3, U[0], 0.0)
    for u in U[1:20]:
        f.step(u, 0.0)
    screen = AldScreen(f.dict, U[40:])
    for u in U[20:40]:
        d2 = np.array([f.dict._ald(v, 0.0).d2_raw for v in U[40:]])
        for k in np.flatnonzero(d2 > 0):
            assert not screen.rejects(np.nextafter(d2[k], -np.inf))[k]
        if f.step(u, 0.0).grew:
            screen.extend()


def test_scalar_inputs_and_an_empty_stream():
    U = np.linspace(-3, 3, 40)
    d = np.sin(U)
    f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
    g = copy.deepcopy(f)
    y, _, size = f.run(U[1:], d[1:])
    y_ref, _, size_ref = step_loop(g, U[1:], d[1:])
    assert np.array_equal(size, size_ref) and rel(y, y_ref) <= 1e-12
    y, e, size = f.run(np.empty((0, 1)), [])
    assert y.shape == e.shape == size.shape == (0,)
    assert f.n == 40


@settings(max_examples=60)
@given(k=st.sampled_from([4, PENDING + 8]), lam=st.sampled_from([0.0, 0.1]),
       grows=st.booleans(), margin=st.floats(-1.0, 1e-13),
       before=st.lists(st.integers(-3, 30), max_size=40), seed=st.integers(0, 2 ** 32 - 1))
def test_injected_floor_violation_is_transactional(k, lam, grows, margin, before, seed):
    """Centers 10 apart, so every l is a coordinate vector to roundoff, and a
    P_b injected with l^T P l = margin - 1 along one sample's l: its
    denominator 1 + l^T P l is at or below the 1e-12 floor, on the unchanged
    branch (a member) or the growth branch (a point 1.5 from a center). The
    samples before it (members of other centers, and new far points that
    grow) leave that denominator where it is. `step` raises NumericalError
    at that sample and leaves every state array bit-identical; `run` raises
    the same error there, with the same n, dictionary and, to roundoff (its
    unchanged stretches go in blocks), P and b."""
    C = 10.0 * np.arange(k)[:, None]
    f = KrlsAldReg(GAUSS, lam, 0.5, C[0], 1.0)
    for c in C[1:]:
        assert f.step(c, 1.0).grew
    rng = np.random.default_rng(seed)
    j = int(rng.integers(k))
    bad = C[j] + (1.5 if grows else 0.0)
    l = f.dict.ald_test(bad, f.delta).l
    P = f.P
    inject_P(f, P - (1.0 - margin + l @ P @ l) * np.outer(l, l) / (l @ l) ** 2)
    # before the bad sample: members of the other centers, or (i < 0) new
    # points far from every center
    others = [i for i in range(k) if i != j]
    U = [C[others[i % len(others)]] if i >= 0 else [10.0 * (k - i)] for i in before]
    U = np.array(U + [bad, C[j]], dtype=float).reshape(-1, 1)
    d = rng.standard_normal(len(U))
    g = copy.deepcopy(f)
    for i in range(len(before)):
        f.step(U[i], d[i])
    state = pickle.dumps(f)
    with pytest.raises(NumericalError, match="rank-one") as want:
        f.step(U[len(before)], d[len(before)])
    assert pickle.dumps(f) == state
    with pytest.raises(NumericalError) as got:
        g.run(U, d)
    assert str(got.value) == str(want.value)
    assert g.n == f.n == k + len(before)
    assert np.array_equal(g.dict.centers, f.dict.centers) and np.array_equal(g.dict.W, f.dict.W)
    assert rel(g.P, f.P) <= 1e-12 and rel(g.b, f.b) <= 1e-12


def spaced_filter(k, lam=0.1):
    """A filter whose k 1-D centers lie 2 apart (k(c_i, c_j) <= e^-2), with
    random targets: a well-conditioned dictionary of any size."""
    rng = np.random.default_rng(k)
    C = 2.0 * np.arange(k)[:, None]
    f = KrlsAldReg(GAUSS, lam, 1e-3, C[0], rng.standard_normal())
    for c in C[1:]:
        assert f.step(c, rng.standard_normal()).grew
    return f


@pytest.mark.parametrize("k, rows", [(13, BLOCK), (BLOCK - 1, BLOCK), (13, 5), (BLOCK, BLOCK),
                                     (PENDING + 8, 20), (PENDING + 8, BLOCK)])
def test_block_update_on_both_sides_of_the_bordering_rule(k, rows, monkeypatch):
    """`_update_block` factors S bordered by B = [L P, d - L b] when
    K + 1 <= rows, and by the identity otherwise (one Cholesky either way);
    both leave P and b, and return the a priori errors, as the step loop's
    rank-one updates along the same rows do, with rows pending or not."""
    f = spaced_filter(k)
    rng = np.random.default_rng(rows)
    L = 0.3 * rng.standard_normal((rows, k))
    d = rng.standard_normal(rows)
    g = copy.deepcopy(f)
    want = []
    for l, t in zip(L, d):
        want.append(t - l @ g.b)
        g._update(*g._gain(l), want[-1])
    borders = []
    cholesky = np.linalg.cholesky

    def spy(M):
        borders.append(M[rows:, :rows].copy())
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    errs = f._update_block(L, d)
    wide = k + 1 <= rows
    assert len(borders) == 1
    assert borders[0].shape == ((k + 1, rows) if wide else (rows, rows))
    assert np.array_equal(borders[0], np.eye(rows)) != wide
    assert rel(errs, np.array(want)) <= 1e-12
    assert rel(f.P, g.P) <= 1e-12 and rel(f.b, g.b) <= 1e-12
    assert np.array_equal(f.P, f.P.T)
    assert f.n == g.n + rows


@pytest.mark.parametrize("scale", [1e150, 1e160])
def test_huge_targets_match_the_step_loop(scale):
    """Targets near 1e160 make c = |B|_F^2 + 1 overflow. F's lower-left block
    Z^T does not depend on c, so a block either gives the step loop's numbers
    or falls back to `step`; it never returns wrong ones."""
    U, d = generate(StreamConfig("noisy_sinc", length=4 * BLOCK, noise_std=0.1, seed=2))
    d = scale * d
    f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
    g = copy.deepcopy(f)
    y, e, size = f.run(U[1:], d[1:])
    y_ref, e_ref, size_ref = step_loop(g, U[1:], d[1:])
    assert np.array_equal(size, size_ref)
    assert rel(y, y_ref) <= 1e-12 and rel(e, e_ref) <= 1e-12
    assert rel(f.b, g.b) <= 1e-12 and rel(f.P, g.P) <= 1e-12


def test_dictionary_keeps_the_row_sums_of_abs_w():
    """The row sums of |W| the screen reads are W's, to roundoff, and a
    snapshot's replay rebuilds them bit for bit."""
    U, d = generate(StreamConfig("nonlinear_sysid", length=400, seed=6, embed_L=3))
    f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
    f.run(U[1:], d[1:])
    k = f.dict_size
    assert k > PENDING
    sums = f.dict._row_l1[:k]
    assert rel(sums, np.abs(f.dict.W).sum(axis=1)) <= 1e-15
    resumed = KrlsAldReg.from_snapshot(f.to_snapshot(resume_exact=True))
    assert np.array_equal(resumed.dict._row_l1[:k], sums)


class TestFailures:
    @pytest.fixture
    def spaced(self):
        """Centers 10 apart (kernel values ~4e-44): every l is a coordinate
        vector to roundoff, so each sample's denominator can be set alone."""
        C = 10.0 * np.arange(4)[:, None]
        f = KrlsAldReg(GAUSS, 0.1, 0.5, C[0], 1.0)
        for c in C[1:]:
            f.step(c, 1.0)
        return f, C

    @pytest.mark.parametrize("margin", [0.0, 1e-13], ids=["zero", "below-floor"])
    def test_floor_violation_mid_block(self, spaced, margin):
        """1 + l^T P l at sample 20 is 0 (the block's Cholesky fails), or
        1e-13: the Cholesky succeeds, but the step's 1e-12 floor refuses."""
        f, C = spaced
        U = C[np.arange(BLOCK) % 3]  # members 0, 1 and 2: none is admitted
        U[20] = C[3]
        d = np.ones(BLOCK)
        l = f.dict.ald_test(C[3], f.delta).l
        # white-box P with l^T P l = -(1 - margin) along the member at sample 20 only
        inject_P(f, -(1 - margin) * np.outer(l, l) / (l @ l) ** 2)
        g = copy.deepcopy(f)
        assert_same_failure(f, g, U, d)
        assert f.n == 4 + 20
        assert np.array_equal(f.P, g.P) and np.array_equal(f.b, g.b)
        with pytest.raises(NumericalError, match="rank-one"):
            f.step(U[20], d[20])

    def test_short_block_not_positive_definite(self, spaced):
        """A block of fewer rows than K + 1, bordered by the identity, whose S
        is singular (1 + l^T P l = 0 at its second sample): its Cholesky
        fails, and `step` raises at that sample with the step loop's state."""
        f, C = spaced
        U, d = C[[0, 3, 1]], np.ones(3)
        l = f.dict.ald_test(C[3], f.delta).l
        inject_P(f, -np.outer(l, l) / (l @ l) ** 2)
        g = copy.deepcopy(f)
        assert_same_failure(f, g, U, d)
        assert f.n == 4 + 1
        assert np.array_equal(f.P, g.P) and np.array_equal(f.b, g.b)

    @pytest.mark.parametrize("picks", [[3, 0, 1], [3, 0, 1, 2, 0, 1]],
                             ids=["identity-border", "b-border"])
    def test_small_denominator_refuses_the_block(self, spaced, picks, monkeypatch):
        """P_b indefinite, yet S and the bordered M still factor: the first
        denominator diag(R)^2 = 1 + l^T P l = 0.45 is below BLOCK_DENOM_MIN,
        so the block is refused and its samples go through `step`, whose
        floor passes them. Outputs and state are the step loop's, bit for bit."""
        f, C = spaced
        U, d = C[picks], np.ones(len(picks))
        l = f.dict.ald_test(C[3], f.delta).l
        inject_P(f, -0.55 * np.outer(l, l) / (l @ l) ** 2)
        g = copy.deepcopy(f)
        denominators = []
        cholesky = np.linalg.cholesky

        def spy(M):
            F = cholesky(M)
            denominators.append(np.diagonal(F)[:len(picks)] ** 2)
            return F

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        y, e, size = f.run(U, d)
        assert len(denominators) == 1
        assert 0 < denominators[0].min() < BLOCK_DENOM_MIN
        y_ref, e_ref, size_ref = step_loop(g, U, d)
        assert np.array_equal(y, y_ref) and np.array_equal(e, e_ref)
        assert np.array_equal(size, size_ref) and f.n == g.n
        assert np.array_equal(f.P, g.P) and np.array_equal(f.b, g.b)

    def test_nan_mid_block(self):
        U, d = generate(StreamConfig("noisy_sinc", length=100, noise_std=0.1, seed=8))
        U = U.copy()
        U[30, 0] = np.nan
        f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
        g = copy.deepcopy(f)
        assert_same_failure(f, g, U[1:], d[1:])
        assert f.n == 30
        assert rel(f.P, g.P) <= 1e-12 and rel(f.b, g.b) <= 1e-12

    def test_nan_target(self):
        U, d = generate(StreamConfig("noisy_sinc", length=100, noise_std=0.1, seed=8))
        d = d.copy()
        d[70] = np.inf
        f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
        assert_same_failure(f, copy.deepcopy(f), U[1:], d[1:])
        assert f.n == 70

    @pytest.mark.parametrize("shape", [(50, 3), (50, 1), (50, 2, 1)])
    def test_wrong_input_dimension(self, shape):
        f = KrlsAldReg(GAUSS, 0.1, 0.01, [0.0, 0.0], 0.5)
        before = copy.deepcopy(f)
        U = np.zeros(shape)
        assert_same_failure(f, copy.deepcopy(f), U, np.zeros(shape[0]))
        assert f.n == 1
        assert np.array_equal(f.P, before.P) and np.array_equal(f.b, before.b)

    def test_ragged_inputs_fail_at_the_bad_row(self):
        f = KrlsAldReg(GAUSS, 0.1, 0.01, [0.0, 0.0], 0.5)
        U = [[0.1, 0.2], [0.3, 0.4], [0.5], [0.6, 0.7]]
        assert_same_failure(f, copy.deepcopy(f), U, np.zeros(4))
        assert f.n == 3

    def test_targets_must_match_inputs(self):
        f = KrlsAldReg(GAUSS, 0.1, 0.01, [0.0], 0.5)
        with pytest.raises(DimensionMismatchError, match="3 inputs for 2 targets"):
            f.run(np.zeros((3, 1)), np.zeros(2))
        assert f.n == 1

    def test_predict_only_state_refuses(self):
        f = KrlsAldReg(GAUSS, 0.1, 0.01, [0.0], 0.5)
        g = KrlsAldReg.from_snapshot(f.to_snapshot())
        assert g.P is None
        assert_same_failure(g, copy.deepcopy(g), np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(KafError, match="^snapshot was saved without resume_exact"):
            g.to_snapshot(resume_exact=True)
        y, e, size = g.run(np.empty((0, 1)), [])  # as the step loop, which runs no step
        assert y.shape == e.shape == size.shape == (0,) and g.n == 1


def test_p_symmetric_and_snapshot_resumes_like_the_step_loop():
    """After `run`, P is exactly symmetric, so a resume_exact snapshot loads;
    the loaded filter steps as the one saved, bit for bit, and both agree
    with a filter that took the whole stream through the step loop."""
    U, d = generate(StreamConfig("nonlinear_sysid", length=600, noise_std=0.1, seed=5,
                                 embed_L=3))
    f = KrlsAldReg(GAUSS, 0.1, 0.01, U[0], d[0])
    g = copy.deepcopy(f)
    f.run(U[1:400], d[1:400])
    step_loop(g, U[1:400], d[1:400])
    assert np.array_equal(f.P, f.P.T)
    resumed = KrlsAldReg.from_snapshot(f.to_snapshot(resume_exact=True))
    assert np.array_equal(resumed.P, f.P) and np.array_equal(resumed.b, f.b)
    assert np.array_equal(resumed.dict.W, f.dict.W) and resumed.n == f.n == 400
    y, _, size = step_loop(resumed, U[400:], d[400:])
    y_saved, _, size_saved = step_loop(f, U[400:], d[400:])
    assert np.array_equal(y, y_saved) and np.array_equal(size, size_saved)
    y_ref, _, size_ref = step_loop(g, U[400:], d[400:])
    assert np.array_equal(size, size_ref)
    assert rel(y, y_ref) <= 1e-12 and rel(resumed.alpha, g.alpha) <= 1e-12


class TestRunTrial:
    SC = StreamConfig("noisy_sinc", length=300, noise_std=0.1, seed=2)
    FC = FilterConfig("krls-ald-reg")

    def test_record_timings_takes_the_step_loop(self):
        timed = run_trial(self.FC, self.SC, record_timings=True)
        bulk = run_trial(self.FC, self.SC)
        assert (timed.step_seconds > 0).all()
        assert not bulk.step_seconds.any()
        U, d = generate(self.SC)
        f = KrlsAldReg(self.FC.kernel, self.FC.lam, self.FC.delta, U[0], d[0])
        y, e, size = step_loop(f, U[1:], d[1:])
        assert np.array_equal(timed.y[1:], y) and np.array_equal(timed.e[1:], e)
        assert np.array_equal(bulk.dict_size, timed.dict_size)
        assert rel(bulk.y, timed.y) <= 1e-12
        assert np.array_equal(bulk.e, bulk.d - bulk.y)

    def test_failure_names_the_same_seed_and_step(self, monkeypatch):
        def with_nan(sc):
            U, d = generate(sc)
            U = U.copy()
            U[150, 0] = np.nan
            return U, d

        monkeypatch.setattr(kaf.experiments, "generate", with_nan)
        messages = []
        for timed in (True, False):
            with pytest.raises(NonFiniteInputError) as exc:
                run_trial(self.FC, replace(self.SC, seed=9), record_timings=timed)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("trial with seed 9 failed at step 151: ")
