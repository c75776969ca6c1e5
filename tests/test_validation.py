"""Validation at the public boundary: what is checked once, and where.

Filters check an input vector and a target once per `step`/`predict` and
pass the checked vector inward; `Dictionary.ald_test`/`grow` check theirs
and delegate to the trusted `_ald`/`_grow`. These tests pin that contract:
bad inputs raise the typed error and leave the state bit-identical, the
trusted paths compute exactly what the public ones do, and one KRLS step
validates once. Snapshot loaders turn malformed scalar fields into
ValidationError, and a resume_exact KRLS snapshot resumes bit for bit.
"""

import json
import math
import pickle
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kaf.base
import kaf.kernels
from kaf import Dictionary, KernelSpec, Klms, KrlsAldReg, Lms, Rls, kernel_eval
from kaf.exceptions import (
    DimensionMismatchError,
    NonFiniteInputError,
    NumericalError,
    ValidationError,
)
from kaf.kernels import kernel_self

GAUSS = KernelSpec("gaussian", sigma=1.0)
DIM = 2
# derandomize: every run draws the same examples, so a failure reproduces
# from the commit alone.
PROPS = settings(max_examples=30, deadline=None, derandomize=True)


def stream(n, seed):
    rng = np.random.default_rng(seed)
    U = rng.uniform(-1.5, 1.5, (n, DIM))
    return U, np.sin(2 * U[:, 0]) * np.cos(U[:, 1])


def trained(kind):
    U, d = stream(40, 11)
    if kind == "krls":
        f = KrlsAldReg(GAUSS, 0.1, 0.05, U[0], d[0])
    elif kind == "klms":
        f = Klms(GAUSS, 0.2, U[0], d[0])
    elif kind == "lms":
        f = Lms(DIM, 0.05)
    else:
        f = Rls(DIM, 0.1)
    for u, t in zip(U[1:], d[1:]):
        f.step(u, t)
    return f


def grown_dictionary():
    U, _ = stream(40, 12)
    dct = Dictionary(GAUSS, U[0])
    for u in U[1:]:
        res = dct.ald_test(u, 0.05)
        if res.admitted:
            dct.grow(u, res)
    return dct


FILTERS = {kind: trained(kind) for kind in ("krls", "klms", "lms", "rls")}
FAR = np.array([9.0, -9.0])     # admitted by any dictionary grown on the stream

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def non_finite_vectors(draw):
    u = draw(st.lists(finite, min_size=DIM, max_size=DIM))
    u[draw(st.integers(0, DIM - 1))] = draw(non_finite)
    return u


wrong_length = st.integers(0, 5).filter(lambda n: n != DIM).flatmap(
    lambda n: st.lists(finite, min_size=n, max_size=n))
two_d = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(st.lists(finite, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))
bad_inputs = st.one_of(
    non_finite_vectors().map(lambda u: (u, NonFiniteInputError)),
    wrong_length.map(lambda u: (u, DimensionMismatchError)),
    two_d.map(lambda u: (u, DimensionMismatchError)),
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestBadInputLeavesState:
    @PROPS
    @given(kind=st.sampled_from(sorted(FILTERS)), bad=bad_inputs, target=finite)
    def test_step_and_predict_reject_bad_input(self, kind, bad, target):
        f = FILTERS[kind]
        u, error = bad
        before = pickle.dumps(f)
        with pytest.raises(error):
            f.step(u, target)
        with pytest.raises(error):
            f.predict(u)
        assert pickle.dumps(f) == before

    @PROPS
    @given(kind=st.sampled_from(sorted(FILTERS)), target=non_finite,
           u=st.lists(finite, min_size=DIM, max_size=DIM))
    def test_step_rejects_non_finite_target(self, kind, target, u):
        f = FILTERS[kind]
        before = pickle.dumps(f)
        with pytest.raises(NonFiniteInputError):
            f.step(u, target)
        assert pickle.dumps(f) == before

    @PROPS
    @given(bad=bad_inputs)
    def test_dictionary_rejects_bad_input(self, bad):
        dct = grown_dictionary()
        u, error = bad
        ald = dct.ald_test(FAR, 0.05)
        assert ald.admitted
        before = pickle.dumps(dct)
        with pytest.raises(error):
            dct.ald_test(u, 0.05)
        with pytest.raises(error):
            dct.grow(u, ald)
        assert pickle.dumps(dct) == before


class TestTrustedPaths:
    @PROPS
    @given(u=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
           sigma=st.floats(min_value=1e-300, max_value=1e300),
           degree=st.integers(1, 6))
    def test_kernel_self_is_kernel_eval_bitwise(self, u, sigma, degree):
        uu = np.array(u)
        poly = KernelSpec("polynomial", degree=degree)
        assert bits(kernel_self(poly, uu)) == bits(kernel_eval(poly, uu, uu))
        if sigma * sigma == 0:   # k(u, u) would be 0/0: the spec is refused
            with pytest.raises(ValidationError):
                KernelSpec("gaussian", sigma=sigma)
            return
        gauss = KernelSpec("gaussian", sigma=sigma)
        assert bits(kernel_self(gauss, uu)) == bits(kernel_eval(gauss, uu, uu)) == bits(1.0)

    @PROPS
    @given(points=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                           min_size=2, max_size=25),
           delta=st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    def test_step_ald_equals_public_ald_test(self, points, delta):
        U = np.array(points)
        f = KrlsAldReg(GAUSS, 0.1, delta, U[0], 1.0)
        seen = []
        trusted = f.dict._ald

        def recorded(uu, dl):
            seen.append(trusted(uu, dl))
            return seen[-1]

        f.dict._ald = recorded
        for u in U[1:]:
            public = f.dict.ald_test(u, f.delta)
            try:
                f.step(u, 1.0)
            except NumericalError:      # a refused near-duplicate: the ALD test still ran
                pass
            inner = seen.pop()
            assert inner.admitted == public.admitted
            for name in ("d2", "d2_raw"):
                assert bits(getattr(inner, name)) == bits(getattr(public, name))
            for name in ("l", "h"):
                assert getattr(inner, name).tobytes() == getattr(public, name).tobytes()


def test_krls_step_validates_once(monkeypatch):
    """One `as_input` call per step on either branch, and no `kernel_eval`:
    k(u, u) comes from `kernel_self` on the already checked vector."""
    calls = {"as_input": 0, "kernel_eval": 0}
    for owner, name in ((kaf.base, "as_input"), (kaf.kernels, "kernel_eval")):
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "kaf" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    f = trained("krls")
    for u, grows in ((f.dict.centers[2].copy(), False), (FAR, True)):
        calls.update(as_input=0, kernel_eval=0)
        assert f.step(u, 0.5).grew == grows
        assert calls == {"as_input": 1, "kernel_eval": 0}


@PROPS
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
       sigma=st.floats(0.3, 3.0), lam=st.floats(1e-3, 1.0),
       delta=st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]), split=st.integers(2, 40))
def test_resume_exact_json_round_trip_is_bitwise(seed, dim, sigma, lam, delta, split):
    """A resume_exact snapshot through JSON text loads with the centers, the
    replayed W, P and b bit-identical, and the next steps match bit for bit."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(-2, 2, (60, dim))
    d = np.sin(U.sum(axis=1)) + 0.1 * rng.standard_normal(60)
    f = KrlsAldReg(KernelSpec("gaussian", sigma=sigma), lam, delta, U[0], d[0])
    for u, t in zip(U[1:split], d[1:split]):
        f.step(u, t)
    g = KrlsAldReg.from_snapshot(json.loads(json.dumps(f.to_snapshot(resume_exact=True))))
    for name in ("P", "b"):
        assert getattr(g, name).tobytes() == getattr(f, name).tobytes()
    assert g.dict.W.tobytes() == f.dict.W.tobytes()
    assert g.dict.centers.tobytes() == f.dict.centers.tobytes()
    assert g.n == f.n
    for u, t in zip(U[split:], d[split:]):
        a, b = f.step(u, t), g.step(u, t)
        assert (bits(a.y), bits(a.e), a.grew) == (bits(b.y), bits(b.e), b.grew)


def _snapshot(kind):
    if kind == "klms":      # one term, so no cap value is refused for being below it
        return Klms(GAUSS, 0.2, [0.0] * DIM, 1.0).to_snapshot()
    f = trained(kind)
    return f.to_snapshot(resume_exact=True) if kind == "krls" else f.to_snapshot()


LOADERS = {"krls": KrlsAldReg, "klms": Klms, "lms": Lms, "rls": Rls}


@pytest.mark.parametrize("kind, field, value", [
    ("klms", "max_terms", "5"),
    ("klms", "max_terms", [3]),
    ("klms", "max_terms", 2.5),
    ("klms", "max_terms", True),
    ("klms", "max_terms", 0),
    ("klms", "eta", None),
    ("klms", "eta", "x"),
    ("klms", "eta", "missing"),
    ("klms", "kernel", "missing"),
    ("krls", "n", "abc"),
    ("krls", "n", None),
    ("krls", "n", math.inf),
    ("krls", "lambda", "x"),
    ("krls", "delta", None),
    ("krls", "sigma", "q"),
    ("lms", "eta", "x"),
    ("rls", "lambda", None),
    ("rls", "forgetting", "x"),
])
def test_malformed_scalar_field_rejected(kind, field, value):
    snap = _snapshot(kind)
    LOADERS[kind].from_snapshot(pickle.loads(pickle.dumps(snap)))  # intact: loads
    if field == "sigma":
        snap["kernel"]["sigma"] = value
    elif value == "missing":
        del snap[field]
    else:
        snap[field] = value
    with pytest.raises(ValidationError):
        LOADERS[kind].from_snapshot(snap)
