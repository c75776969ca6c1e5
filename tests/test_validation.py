"""Validation at the public boundary: what is checked once, and where.

Filters check an input vector and a target once per `step`/`predict` and
pass the checked vector inward; `Dictionary.ald_test`/`grow` check theirs
and delegate to the trusted `_ald`/`_grow`. These tests pin that contract:
bad inputs, targets and `run` arguments raise the typed `KafError` and
leave the state bit-identical, the trusted paths compute exactly what the
public ones do, and one KRLS step validates once. Snapshot loaders turn
malformed scalar fields, and any one drawn corruption of a field, into
ValidationError or NumericalError, and an intact snapshot resumes bit for
bit.
Config readers share one field rule and one key check: `FilterConfig`
refuses exactly what the filters' constructors refuse, a config and a
snapshot take the same hyperparameter values, and a malformed config exits
1 and writes nothing.
"""

import contextlib
import copy
import io
import json
import math
import os
import pickle
import struct
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import kaf.base
import kaf.kernels
from kaf import (BatchProblem, Dictionary, FilterConfig, KernelSpec, Klms, KrlsAldReg, Lms, Rls,
                 batch_krr, gram, kernel_eval, kernel_matrix, run_trials)
from kaf.base import as_floats, as_input, check_target, convert
from kaf.cli import main
from kaf.exceptions import (
    DimensionMismatchError,
    NonFiniteInputError,
    NumericalError,
    ValidationError,
)
from kaf.experiments import FILTER_KEYS, GENERATORS, KERNEL_KINDS, StreamConfig, build_filter
from kaf.kernels import kernel_self
from kaf.krls import PENDING
from kaf.oracle import polynomial_feature_map

GAUSS = KernelSpec("gaussian", sigma=1.0)
DIM = 2
PROPS = settings(max_examples=30)


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
    # not real numbers: each entry is read by the field rule, so a string, a
    # bool or a complex number is refused whatever numpy would make of it
    st.sampled_from(["ab", [0.1, None], [[0.1], [0.2, 0.3]], {}, "1.5", ["0.1", 0.2], b"1",
                     True, [True, 0.5], np.array([True, False]), np.array(["0.1"]),
                     np.array([1 + 2j, 0])]).map(lambda u: (u, ValidationError)),
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def refuse(error, call, *args):
    """`call(*args)` raises `error` itself, not a subclass of it."""
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error, info.value


class TestBadInputLeavesState:
    @PROPS
    @given(kind=st.sampled_from(sorted(FILTERS)), bad=bad_inputs, target=finite)
    def test_step_and_predict_reject_bad_input(self, kind, bad, target):
        f = FILTERS[kind]
        u, error = bad
        before = pickle.dumps(f)
        refuse(error, f.step, u, target)
        refuse(error, f.predict, u)
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
        refuse(error, dct.ald_test, u, 0.05)
        refuse(error, dct.grow, u, ald)
        assert pickle.dumps(dct) == before


@pytest.mark.parametrize("kind", sorted(FILTERS))
@pytest.mark.parametrize("target, error", [
    (None, ValidationError), ("a", ValidationError), ([1.0, 2.0], DimensionMismatchError),
    (np.zeros(2), DimensionMismatchError), ([[1.0], [2.0, 3.0]], DimensionMismatchError),
    ("0.5", ValidationError), (b"0.5", ValidationError), (True, ValidationError),
    (np.bool_(True), ValidationError), (np.complex128(1), ValidationError)])
def test_step_refuses_malformed_target(kind, target, error):
    f = FILTERS[kind]
    before = pickle.dumps(f)
    refuse(error, f.step, [0.1, 0.2], target)
    assert pickle.dumps(f) == before


@pytest.mark.parametrize("U, d, error", [
    (np.zeros((3, DIM)), 5.0, DimensionMismatchError),
    (5.0, [1.0], DimensionMismatchError),
    (None, None, DimensionMismatchError),
    ("ab", "ab", ValidationError),
    ([["0.9", "1.1"]] * 3, [1.0, 2.0, 3.0], ValidationError),
    (np.ones((3, DIM), dtype=bool), [1.0, 2.0, 3.0], ValidationError),
    (np.ones((3, DIM)), [True, False, True], ValidationError),
])
def test_krls_run_refuses_what_it_cannot_size(U, d, error):
    f = FILTERS["krls"]
    before = pickle.dumps(f)
    with pytest.raises(error):
        f.run(U, d)
    assert pickle.dumps(f) == before


@pytest.mark.parametrize("delta", ["0.1", True, None, -1.0, math.nan, [0.1]])
def test_ald_test_reads_delta_by_the_constructors_rule(delta):
    """`Dictionary.ald_test` refuses exactly the deltas `KrlsAldReg` does."""
    dct = grown_dictionary()
    with pytest.raises(ValidationError, match="delta"):
        dct.ald_test(FAR, delta)
    with pytest.raises(ValidationError, match="delta"):
        KrlsAldReg(GAUSS, 0.1, delta, FAR, 1.0)


class TestTrustedPaths:
    @PROPS
    @given(u=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
           sigma=st.floats(min_value=1e-300, max_value=1e300),
           degree=st.integers(1, 6))
    def test_kernel_self_is_kernel_eval_bitwise(self, u, sigma, degree):
        uu = np.array(u)
        poly = KernelSpec("polynomial", degree=degree)
        assert bits(kernel_self(poly, uu)) == bits(kernel_eval(poly, uu, uu))
        if not 0 < sigma * sigma < math.inf:  # k(u, u) would be 0/0, or a far value inf/inf
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
            assert inner.l.tobytes() == public.l.tobytes()


real_numbers = st.one_of(
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint8]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
    st.lists(st.floats() | st.integers(-2 ** 70, 2 ** 70), max_size=5),
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats(), st.integers(-2 ** 70, 2 ** 70))


@settings(PROPS, max_examples=300)
@given(x=real_numbers)
def test_real_numbers_read_to_the_bits_numpy_gives(x):
    """Every real array, list or scalar is read to the float64 bits that
    np.asarray(x, dtype=float64) gives it: the one reader changes what is
    refused, not what an accepted number reads as."""
    want = np.asarray(x, dtype=np.float64)
    got = as_floats(x, "x")
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if want.ndim <= 1 and np.isfinite(want).all():
        assert as_input(x).tobytes() == want.reshape(-1).tobytes()
        if want.ndim == 0:
            assert bits(check_target(x)) == bits(float(want))


TINY = 2.2250738585072014e-308   # the smallest normal float64
HUGE = 1.7976931348623157e308    # the largest finite float64
entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(1e154, HUGE).flatmap(lambda x: st.sampled_from([x, -x])),  # x * x overflows
    st.floats(-TINY, TINY),                                            # subnormals and zeros
    st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(PROPS, max_examples=300)
@given(u=st.lists(entries, max_size=8), step=st.sampled_from([1, -1, 2]))
@example(u=[HUGE, -1e154], step=1)
def test_as_input_accepts_exactly_the_finite_vectors(u, step):
    """`as_input`'s finiteness test, one product u . u with an exact
    fallback, accepts exactly the vectors np.isfinite accepts, those whose
    squares overflow included, and refuses the rest with the one error."""
    x = np.array(u, dtype=np.float64)[::step]
    if np.isfinite(x).all():
        assert as_input(x) is x
        assert as_input(x.tolist()).tobytes() == x.tobytes()
    else:
        for arg in (x, x.tolist()):
            with pytest.raises(NonFiniteInputError,
                               match="^input vector contains non-finite entries$"):
                as_input(arg)


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
    if kind == "rls-config":   # a filter config, read by FilterConfig.from_json
        return FilterConfig("rls", lam=0.1).to_json()
    if kind == "klms":
        return Klms(GAUSS, 0.2, [0.0] * DIM, 1.0).to_snapshot()
    f = trained(kind)
    return f.to_snapshot(resume_exact=True) if kind == "krls" else f.to_snapshot()


LOADERS = {"krls": KrlsAldReg, "klms": Klms, "lms": Lms, "rls": Rls,
           "rls-config": SimpleNamespace(from_snapshot=FilterConfig.from_json)}


@pytest.mark.parametrize("kind, field, value", [
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
    ("krls", "n", 40.5),
    ("krls", "lambda", "0.1"),
    ("krls", "sigma", True),
    ("krls", "degree", 2.7),
    ("krls", "sigmaa", 5),
    ("klms", "eta", True),
    ("lms", "eta", "0.05"),
    ("rls", "forgetting", True),
    ("rls-config", "max_terms", "abc"),
    ("rls-config", "max_terms", True),
    ("rls-config", "max_terms", 2.5),
])
def test_malformed_scalar_field_rejected(kind, field, value):
    snap = _snapshot(kind)
    LOADERS[kind].from_snapshot(pickle.loads(pickle.dumps(snap)))  # intact: loads
    if field in ("sigma", "degree", "sigmaa"):
        snap["kernel"][field] = value
    elif value == "missing":
        del snap[field]
    else:
        snap[field] = value
    with pytest.raises(ValidationError):
        LOADERS[kind].from_snapshot(snap)


def _krls_with_pending(m):
    """KRLS grown to K = PENDING + 8 centers spaced 3 apart on a line, then
    stepped on repeats of its centers until m rows of Y are pending."""
    C = 3.0 * np.arange(PENDING + 8)[:, None]
    f = KrlsAldReg(GAUSS, 0.1, 0.5, C[0], 1.0)
    for c in C[1:]:
        f.step(c, 1.0)
    i = 0
    while f._m != m:
        f.step(C[i % len(C)], 0.5)
        i += 1
    return f


# Each filter a snapshot is drawn from, and the snapshot it saves.
SNAPSHOT_FILTERS = {
    "krls": (FILTERS["krls"], False),
    "krls-exact-small-k": (FILTERS["krls"], True),
    **{f"krls-exact-{m}-pending": (_krls_with_pending(m), True) for m in (0, 1, PENDING - 1)},
    "klms": (FILTERS["klms"], False),
    "lms": (FILTERS["lms"], False),
    "rls": (FILTERS["rls"], False),
}
# Keys whose absence is a valid snapshot: the field's default applies.
OPTIONAL_KEYS = {"resume_exact", "P_pending"}


def _saved(name: str) -> dict:
    f, exact = SNAPSHOT_FILTERS[name]
    return json.loads(json.dumps(f.to_snapshot(resume_exact=True) if exact else f.to_snapshot()))


@st.composite
def corruptions(draw):
    """A filter of SNAPSHOT_FILTERS and one corruption of one field of its
    snapshot: a non-finite entry, a wrong shape, the key dropped, a bool or
    string in place of a number, an asymmetric P or aux, one eigen-direction
    of P = P_b - Y^T Y (or of aux) negated, an edited checksum, or one pending
    row of Y more than can be pending."""
    name = draw(st.sampled_from(sorted(SNAPSHOT_FILTERS)))
    snap = _saved(name)
    kinds = ["non_finite", "shape", "drop", "wrong_type"]
    kinds += ["asymmetric", "indefinite"] * ("P" in snap or "aux" in snap)
    kinds += ["checksum"] * ("centers_sha256" in snap)
    kinds += ["pending_too_many"] * SNAPSHOT_FILTERS[name][1]
    kind = draw(st.sampled_from(kinds))
    inverse = "P" if "P" in snap else "aux"
    key = {"asymmetric": inverse, "indefinite": inverse, "checksum": "centers_sha256",
           "pending_too_many": "P_pending"}.get(kind)
    if key is None:
        key = draw(st.sampled_from(sorted(set(snap) - OPTIONAL_KEYS if kind == "drop"
                                          else snap)))
    value, new, index = snap.get(key), None, 0
    if kind == "non_finite":
        new = draw(st.sampled_from([math.nan, -math.inf]))
    elif kind == "wrong_type":
        new = draw(st.sampled_from(["true", 1] if isinstance(value, bool) else [True, "0.5"]))
    if isinstance(value, (list, str)) and kind in ("non_finite", "wrong_type", "checksum"):
        index = draw(st.integers(0, np.array(value, dtype=object).size - 1 if
                                 isinstance(value, list) else len(value) - 1))
    return name, kind, key, new, index


def _corrupt(snap: dict, kind: str, key: str, new, index: int) -> dict:
    """`snap` with the drawn corruption of field `key` (see `corruptions`)."""
    value = snap.get(key)
    if kind == "drop":
        del snap[key]
    elif kind == "shape":   # one axis too many
        snap[key] = (np.array(value, dtype=object)[..., None].tolist()
                     if isinstance(value, list) else [value])
    elif kind == "asymmetric":   # one entry one ulp off
        snap[key][0][1] = float(np.nextafter(value[0][1], np.inf))
    elif kind == "indefinite":   # P's top eigen-direction negated, P_b kept exactly symmetric
        Pb = np.array(value)
        Y = np.array(snap.get("P_pending", np.empty((0, len(Pb)))))
        lam, V = np.linalg.eigh(Pb - Y.T @ Y)
        snap[key] = (Pb - 2 * lam[-1] * np.outer(V[:, -1], V[:, -1])).tolist()
    elif kind == "checksum":     # one hex digit edited
        snap[key] = value[:index] + ("1" if value[index] == "0" else "0") + value[index + 1:]
    elif kind == "pending_too_many":
        k = len(snap["P"])
        limit = PENDING - 1 if k > PENDING else 0
        rows = np.array(value if value else [[1e-3] * k])
        snap[key] = np.resize(rows, (limit + 1, k)).tolist()
    elif isinstance(value, list):   # one entry of the array
        entries = np.array(value, dtype=object)
        entries.flat[index] = new
        snap[key] = entries.tolist()
    elif isinstance(value, dict):   # the kernel's width
        value["sigma"] = new
    else:
        snap[key] = new
    return snap


@settings(max_examples=300)
@given(corruptions())
def test_corrupted_snapshot_is_refused_and_intact_one_resumes(corruption):
    """A snapshot with one corrupted field is refused with ValidationError or
    NumericalError, and nothing else; the intact one loads and steps (or,
    saved without resume_exact, predicts) bit for bit as the saved filter."""
    name = corruption[0]
    f = copy.deepcopy(SNAPSHOT_FILTERS[name][0])
    with pytest.raises((ValidationError, NumericalError)):
        type(f).from_snapshot(_corrupt(_saved(name), *corruption[1:]))
    g = type(f).from_snapshot(_saved(name))
    dim = f.dim if hasattr(f, "dim") else f.dict.dim
    for u in np.random.default_rng(0).uniform(-2, 2, (5, dim)):
        if name == "krls":   # predict only
            assert bits(f.predict(u)) == bits(g.predict(u))
        else:
            a, b = f.step(u, 0.3), g.step(u, 0.3)
            assert (bits(a.y), bits(a.e), a.grew) == (bits(b.y), bits(b.e), b.grew)


@pytest.mark.parametrize("value, kind, want", [
    (1, float, 1.0), (np.float32(0.5), float, 0.5), (np.int64(3), float, 3.0),
    (5.0, int, 5), (np.int64(3), int, 3), (True, bool, True), ("a.csv", str, "a.csv"),
])
def test_field_rule_accepts(value, kind, want):
    got = convert(value, kind, "field")
    assert got == want and type(got) is kind


@pytest.mark.parametrize("value, kind", [
    ("0.1", float), (True, float), (None, float), ([0.1], float), (True, int),
    (2.5, int), (math.inf, int), (math.nan, int), ("3", int), (1, bool), ("false", bool),
    (np.True_, bool), (5, str), (None, str),
])
def test_field_rule_refuses(value, kind):
    with pytest.raises(ValidationError, match="field"):
        convert(value, kind, "field")


def _mostly(lo, hi, edges):
    """A float from [lo, hi] three times in four, else one of `edges`."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(edges) if i == 0 else st.floats(lo, hi))


@settings(PROPS, max_examples=100)   # cheap examples: every kind meets every edge
@given(kind=st.sampled_from(sorted(FILTER_KEYS)),
       kernel=st.sampled_from([GAUSS, KernelSpec("polynomial", degree=2)]),
       lam=_mostly(-0.2, 2, [0.0, -0.1, math.inf, math.nan, 1e300]),
       delta=_mostly(-0.05, 1, [0.0, -1e-9, math.inf, math.nan]),
       eta=_mostly(-0.2, 2, [0.0, -0.1, math.inf, math.nan]))
def test_filter_config_is_the_constructors_rule(kind, kernel, lam, delta, eta):
    """FilterConfig refuses a setting exactly when building its filter on a
    real sample does: the constructor is the one rule."""
    fields = dict(kind=kind, kernel=kernel, lam=lam, delta=delta, eta=eta)
    U, d = stream(2, 3)
    try:
        build_filter(SimpleNamespace(**fields), U[0], d[0], DIM)
        constructor_refuses = False
    except ValidationError:
        constructor_refuses = True
    try:
        FilterConfig(**fields)
        config_refuses = False
    except ValidationError as exc:
        assert str(exc).startswith("filter.")
        config_refuses = True
    assert config_refuses == constructor_refuses


PARITY_VALUES = [5, 5.0, np.int64(5), 2.5, True, "5", 0, -1, [3], None,
                 0.0, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan, np.float32(0.5)]


def _kept(load, key):
    """repr of the value the object `load` returns keeps for config key
    `key`, or "refused" when `load` raises ValidationError."""
    try:
        obj = load()
    except ValidationError:
        return "refused"
    return repr(getattr(obj, {"lambda": "lam"}.get(key, key)))


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in FILTER_KEYS.items()
                                       for key in keys if key != "kernel"])
def test_config_and_snapshot_take_the_same_hyperparameters(kind, key):
    """A filter config and a snapshot of the filter accept the same values
    for each hyperparameter, converted to the same number, and refuse the
    same values."""
    loader = {"krls-ald-reg": "krls"}.get(kind, kind)
    snap = _snapshot(loader)
    for value in PARITY_VALUES:
        config = _kept(lambda: FilterConfig.from_json({"kind": kind, key: value}), key)
        loaded = _kept(lambda: LOADERS[loader].from_snapshot(dict(snap, **{key: value})), key)
        assert config == loaded, value


kernel_specs = st.builds(KernelSpec, st.sampled_from(kaf.kernels.FAMILIES),
                         sigma=st.floats(1e-100, 1e100), degree=st.integers(1, 8))


@st.composite
def stream_configs(draw):
    embed_L = draw(st.integers(1, 6))
    return StreamConfig(draw(st.sampled_from(GENERATORS)),
                        length=draw(st.integers(embed_L + 1, 10 ** 9)),
                        noise_std=draw(st.floats(0, 1e6)), seed=draw(st.integers(0, 2 ** 64)),
                        embed_L=embed_L)


def _as_drawn(value):
    """`value`, or the same number as a numpy scalar or as an int or float of
    the other Python type where that is exact: what a caller might pass."""
    forms = [value, np.float64(value), np.float32(value) if np.float32(value) == value else value]
    if float(value).is_integer() and abs(value) < 2 ** 53:
        forms += [int(value), float(value), np.int64(value)]
    return st.sampled_from(forms)


@st.composite
def filter_configs(draw):
    """A valid FilterConfig that sets only the fields its kind reads (to_json
    writes no others); lambda is >= 0 for KRLS and > 0 for RLS. Each number
    may be passed as a numpy scalar or an integral float, as a caller may."""
    kind = draw(st.sampled_from(sorted(FILTER_KEYS)))
    values = {"kernel": kernel_specs, "delta": st.floats(0, 1e6), "eta": st.floats(1e-6, 1e3),
              "lambda": st.floats(0 if kind == "krls-ald-reg" else 1e-6, 1e6)}
    fields = {}
    for key in FILTER_KEYS[kind]:
        value = draw(values[key])
        fields[{"lambda": "lam"}.get(key, key)] = (
            value if key == "kernel" else draw(_as_drawn(value)))
    return FilterConfig(kind, **fields)


@settings(PROPS, max_examples=100)
@given(x=st.one_of(kernel_specs, stream_configs(), filter_configs()))
def test_config_json_round_trip(x):
    """A config dumps to JSON text that reads back to an equal config, and
    dumps again to the same text: its fields hold plain ints and floats."""
    text = json.dumps(x.to_json())
    y = type(x).from_json(json.loads(text))
    assert y == x and json.dumps(y.to_json()) == text


# The type of every config field, level by level, and values wrong for each.
CONFIG_FIELDS = {
    "config": {"filter": dict, "stream": dict, "trials": int, "out": str,
               "summary_out": str, "record_timings": bool, "grid": dict},
    "filter": {"kind": str, "kernel": dict, "lambda": float, "delta": float,
               "eta": float},
    "stream": {"generator": str, "length": int, "noise_std": float, "seed": int,
               "embed_L": int},
    "kernel": {"family": str, "sigma": float, "degree": int},
    "grid": {"delta": list, "lambda": list, "sigma": list, "eta": list},
}
WRONG = {
    float: ["0.1", [0.1], {"v": 0.1}, None, True],
    int: ["3", [3], {"v": 3}, None, True, 2.5],
    bool: ["true", [True], {"v": True}, None, 1],
    str: [["x"], {"v": "x"}, None, True, 3],
    dict: ["x", [{}], None, True, 3],
    list: ["0.1", 0.1, {"v": 0.1}, None, True, ["a"], [0.1, None], [[0.1]], [False]],
}
# The keys a level cannot do without (MISSING deletes one), and values of the
# right type that a field's range refuses.
MISSING = object()
REQUIRED = {"filter": ("kind",), "stream": ("generator", "length"), "kernel": ("family",)}
OUT_OF_RANGE = {"noise_std": [-1.0]}
BASE_FILTERS = {
    "klms": {"eta": 0.2},
    "krls-ald-reg": {"lambda": 0.1, "delta": 0.01},
    "lms": {"eta": 0.05},
    "rls": {"lambda": 0.1},
}
# A grid over every key each kind reads, and no other: a kind refuses a grid
# key it does not read.
BASE_GRIDS = {
    "klms": {"eta": [0.1, 0.2], "sigma": [1.0]},
    "krls-ald-reg": {"delta": [0.01, 0.1], "lambda": [0.1], "sigma": [1.0]},
    "lms": {"eta": [0.01, 0.05]},
    "rls": {"lambda": [0.1, 1.0]},
}


def _small_config(directory, kind):
    kernel = {"kernel": {"family": "gaussian", "sigma": 1.0}} if kind in KERNEL_KINDS else {}
    return {
        "filter": {"kind": kind, **kernel, **BASE_FILTERS[kind]},
        "stream": {"generator": "nonlinear_sysid", "length": 50, "noise_std": 0.1,
                   "seed": 1, "embed_L": 2},
        "trials": 1, "record_timings": False, "grid": {key: list(values) for key, values in BASE_GRIDS[kind].items()},
        "out": os.path.join(directory, "curve.csv"),
        "summary_out": os.path.join(directory, "summary.json"),
    }


def _run_cli(command, cfg, directory):
    path = os.path.join(directory, "c.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", path])
    return code, stdout.getvalue(), sorted(os.listdir(directory))


def _level(cfg, level):
    if level == "config":
        return cfg
    return cfg["filter"]["kernel"] if level == "kernel" else cfg[level]


@pytest.mark.parametrize("kind", sorted(BASE_FILTERS))
def test_small_config_runs(kind):
    """The configs the property below breaks are valid as they stand."""
    with tempfile.TemporaryDirectory() as directory:
        for command in ("run", "sweep"):
            assert _run_cli(command, _small_config(directory, kind), directory)[0] == 0


@st.composite
def broken_configs(draw):
    """A small valid config with one field set to a value of the wrong type
    or out of its range, one required key deleted, or one unknown key added,
    at any level."""
    level = draw(st.sampled_from(sorted(CONFIG_FIELDS)))
    kind = draw(st.sampled_from(KERNEL_KINDS if level == "kernel" else sorted(BASE_FILTERS)))
    fields = CONFIG_FIELDS[level]
    if level == "filter":   # the fields this kind reads
        fields = {key: fields[key] for key in ("kind",) + FILTER_KEYS[kind]}
    key = draw(st.sampled_from(sorted(fields) + ["bogus"]))
    if key == "bogus":
        value = 1
    else:
        value = draw(st.sampled_from(
            WRONG[fields[key]] + OUT_OF_RANGE.get(key, []) + ([MISSING] if key in REQUIRED.get(level, ()) else [])))
    return kind, level, key, value


@PROPS
@given(command=st.sampled_from(["run", "sweep"]), broken=broken_configs())
@example(command="run", broken=("lms", "filter", "kind", MISSING))
@example(command="run", broken=("rls", "stream", "generator", MISSING))
@example(command="run", broken=("lms", "stream", "length", MISSING))
@example(command="run", broken=("klms", "kernel", "family", MISSING))
@example(command="run", broken=("rls", "stream", "noise_std", -1.0))
def test_malformed_config_exits_1_and_writes_nothing(command, broken):
    kind, level, key, value = broken
    with tempfile.TemporaryDirectory() as directory:
        cfg = _small_config(directory, kind)
        if value is MISSING:
            del _level(cfg, level)[key]
        else:
            _level(cfg, level)[key] = value
        code, stdout, files = _run_cli(command, cfg, directory)
        assert code == 1, stdout
        error = json.loads(stdout)["error"]
        assert error["type"] == "validation" and key in error["message"], error
        assert files == ["c.json"]


PTS = [[0.0], [1.0]]
KERNEL_TAKERS = {
    "klms": lambda spec: Klms(spec, 0.2, [0.0], 0.0),
    "krls-ald-reg": lambda spec: KrlsAldReg(spec, 0.1, 0.01, [0.0], 0.0),
    "Dictionary": lambda spec: Dictionary(spec, [0.0]),
    "BatchProblem": lambda spec: BatchProblem(PTS, [0.0, 1.0], spec, 0.1, 0.01),
    "batch_krr": lambda spec: batch_krr(PTS, [0.0, 1.0], spec, 0.1),
    "gram": lambda spec: gram(spec, PTS),
    "kernel_matrix": lambda spec: kernel_matrix(spec, PTS, PTS),
    "kernel_eval": lambda spec: kernel_eval(spec, [0.0], [1.0]),
}


@pytest.mark.parametrize("name", KERNEL_TAKERS)
def test_kernel_must_be_a_kernel_spec(name):
    """A kernel object that is not a KernelSpec is refused where it enters:
    by a filter's constructor, whether built directly or through
    FilterConfig, and by every other public callable that takes a kernel."""
    if name in KERNEL_KINDS:
        with pytest.raises(ValidationError,
                           match="^filter.kernel must be a KernelSpec, got dict$"):
            FilterConfig(name, kernel={"family": "gaussian"})
    for spec in ({"family": "gaussian"}, "gaussian", None):
        with pytest.raises(ValidationError, match="^kernel must be a KernelSpec"):
            KERNEL_TAKERS[name](spec)


BOUNDARIES = {
    **{f"{cls.__name__}.from_snapshot({snap!r})":
       (lambda cls=cls, snap=snap: cls.from_snapshot(snap), "^snapshot must be an object")
       for cls in (KrlsAldReg, Klms, Lms, Rls, Dictionary) for snap in ([], "{}", None)},
    "Dictionary.grow(u, None)": (lambda: Dictionary(GAUSS, [0.0]).grow([1.0], None),
                                 "^grow requires an admitted ALD result"),
    **{f"run_trials(trials={trials!r})":
       (lambda trials=trials: run_trials(FilterConfig("lms"), StreamConfig("noisy_sinc", length=10),
                                         trials), "^trials is not a int")
       for trials in (1.5, "2")},
    "to_snapshot(resume_exact='yes')": (
        lambda: KrlsAldReg(GAUSS, 0.1, 0.01, [0.0], 0.5).to_snapshot(resume_exact="yes"),
        "^resume_exact is not a bool"),
    "run_trials(trials=0)": (
        lambda: run_trials(FilterConfig("lms"), StreamConfig("noisy_sinc", length=10), 0),
        "^trials must be >= 1, got 0$"),
    "Rls(dim=0)": (lambda: Rls(0, 0.1), "^dim must be >= 1, got 0$"),
    **{f"{type(obj).__name__}.from_snapshot(centers of shape (0, 2))":
       (lambda obj=obj: type(obj).from_snapshot({**obj.to_snapshot(), "centers": np.zeros((0, 2))}),
        "^snapshot centers must be a nonempty list of vectors$")
       for obj in (Dictionary(GAUSS, [0.0, 0.0]), Klms(GAUSS, 0.2, [0.0, 0.0], 0.5))},
    "gram(points holding a NaN)": (lambda: gram(GAUSS, [[0.0], [np.nan]]),
                                   "^point set contains non-finite entries$"),
    "polynomial_feature_map(degree=3)": (
        lambda: polynomial_feature_map([[1.0]], 3),
        "^explicit feature map implemented for degree <= 2, got 3$"),
}


@pytest.mark.parametrize("call, match", BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_every_public_boundary_raises_a_kaf_error(call, match):
    """What enters at a public boundary is checked there, so a malformed
    snapshot, ALD result, trial count, dimension, point set, feature-map
    degree or flag raises a ValidationError naming it, never an
    AttributeError or TypeError from inside."""
    with pytest.raises(ValidationError, match=match):
        call()
