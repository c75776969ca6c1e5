import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaf import Dictionary, KernelSpec, Klms, gram, kernel_eval, kernel_matrix
from kaf.exceptions import DimensionMismatchError, NonFiniteInputError, ValidationError
from kaf.kernels import Centers, kernel_block, kernel_diag, kernel_self, kernel_vector
from kaf.oracle import polynomial_feature_map

GAUSS = KernelSpec("gaussian", sigma=1.0)


class TestEval:
    def test_gaussian_identical_inputs(self):
        assert kernel_eval(GAUSS, [0.3, -2.0], [0.3, -2.0]) == 1.0

    def test_gaussian_unit_distance(self):
        assert kernel_eval(GAUSS, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_gaussian_sigma_scales_width(self):
        # width enters as sigma^2 (no factor of 2)
        k = kernel_eval(KernelSpec("gaussian", sigma=2.0), [0.0], [1.0])
        assert k == pytest.approx(math.exp(-0.25), rel=1e-15)

    def test_polynomial(self):
        assert kernel_eval(KernelSpec("polynomial", degree=2), [1.0, 0.0], [1.0, 1.0]) == 4.0

    def test_zero_length_vectors(self):
        """Vectors of length 0 are at distance 0: every Gaussian value is 1."""
        assert kernel_eval(GAUSS, [], []) == 1.0
        np.testing.assert_array_equal(gram(GAUSS, [[], []]), np.ones((2, 2)))
        np.testing.assert_array_equal(kernel_vector(GAUSS, np.empty((3, 0)), np.empty(0)),
                                      np.ones(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_eval(GAUSS, [0.0], [1.0, 2.0])

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteInputError):
            kernel_eval(GAUSS, [np.nan], [1.0])
        with pytest.raises(NonFiniteInputError):
            kernel_eval(GAUSS, [0.0], [np.inf])

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for spec in (GAUSS, KernelSpec("polynomial", degree=3)):
            for _ in range(50):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                assert kernel_eval(spec, u, v) == kernel_eval(spec, v, u)

    def test_gaussian_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            k = kernel_eval(GAUSS, u, v)
            assert 0.0 < k < 1.0
            assert kernel_eval(GAUSS, u, u) == 1.0


class TestKernelTrick:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_polynomial_matches_explicit_features(self, degree, dim):
        """(u.v + 1)^p equals the dot product of exact monomial feature vectors."""
        rng = np.random.default_rng(degree * 10 + dim)
        spec = KernelSpec("polynomial", degree=degree)
        for _ in range(25):
            u = rng.uniform(-2, 2, dim)
            v = rng.uniform(-2, 2, dim)
            phi = polynomial_feature_map(np.vstack([u, v]), degree)
            assert kernel_eval(spec, u, v) == pytest.approx(phi[0] @ phi[1], abs=1e-12)


class TestGram:
    def test_single_point_gaussian(self):
        np.testing.assert_allclose(gram(GAUSS, [[0.7]]), [[1.0]])

    def test_two_points_gaussian(self):
        e1 = math.exp(-1.0)
        np.testing.assert_allclose(gram(GAUSS, [[0.0], [1.0]]),
                                   [[1.0, e1], [e1, 1.0]], rtol=1e-15)

    def test_polynomial_values(self):
        # verified by brute-force pairwise evaluation
        spec = KernelSpec("polynomial", degree=1)
        pts = [[1.0], [3.0]]
        expected = [[kernel_eval(spec, a, b) for b in pts] for a in pts]
        assert expected == [[2.0, 4.0], [4.0, 10.0]]
        np.testing.assert_array_equal(gram(spec, pts), expected)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((20, 3))
        G = gram(GAUSS, pts)
        assert np.array_equal(G, G.T)

    def test_psd_random_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 51))
            dim = int(rng.integers(1, 5))
            pts = rng.uniform(-2, 2, (n, dim))
            G = gram(KernelSpec("gaussian", sigma=float(rng.uniform(0.5, 2))), pts)
            assert np.linalg.eigvalsh(G)[0] >= -1e-10 * n

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((6, 2))
        for spec in (GAUSS, KernelSpec("polynomial", degree=2)):
            G = gram(spec, pts)
            for i in range(6):
                for j in range(6):
                    assert G[i, j] == pytest.approx(kernel_eval(spec, pts[i], pts[j]),
                                                    abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_matrix(GAUSS, [[0.0, 1.0]], [[0.0]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            gram(GAUSS, np.empty((0, 2)))


@st.composite
def center_sets(draw):
    """A Gaussian kernel or a polynomial one of degree 1..6, a query u and a
    (K, L) center set, L = 0..8, held in C order, in F order or as a
    dictionary's own (transposed buffer) view; the dictionary, or None."""
    dim = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    spec = draw(st.one_of(st.floats(0.3, 5.0).map(lambda s: KernelSpec("gaussian", sigma=s)),
                          st.integers(1, 6).map(lambda p: KernelSpec("polynomial", degree=p))))
    C = rng.standard_normal((draw(st.integers(1, 40)), dim)) * scale
    layout = draw(st.sampled_from(["C", "F", "dictionary"]))
    d = None
    if layout == "F":
        C = np.asfortranarray(C)
    elif layout == "dictionary":
        d = grown(spec, C)
        C = d.centers
    return spec, rng.standard_normal(dim) * scale, C, d


def grown(spec, points, check=lambda d: None):
    """A dictionary that has tested every point at delta = 1e-6 and admitted
    those it could, with `check(d)` called before each test."""
    d = Dictionary(spec, points[0])
    for c in points[1:]:
        check(d)
        res = d.ald_test(c, 1e-6)
        if res.admitted:
            d.grow(c, res)
    return d


def assert_one_row(spec, C, u, d=None):
    """h = kernel_vector(spec, C, u) is bit for bit kernel_block's row, and
    the kernel vector of the center store of the dictionary d holding C."""
    h = kernel_vector(spec, C, u)
    assert h.tobytes() == kernel_block(spec, u[None], C)[0].tobytes()
    if d is not None:
        assert d._centers.kernel_vector(u).tobytes() == h.tobytes()
    return h


@settings(max_examples=300, deadline=None)
@given(center_sets())
def test_one_summation_order(case):
    """kernel_vector, kernel_block, gram, kernel_eval, kernel_self and
    kernel_diag sum the per-coordinate terms in one order and raise the
    polynomial base to its degree one way, so they agree bit for bit."""
    spec, u, C, d = case
    h = assert_one_row(spec, C, u, d)
    G = gram(spec, C)
    assert np.array_equal(G, G.T)
    diag = kernel_diag(spec, C)
    for i in range(C.shape[0]):
        assert kernel_eval(spec, C[i], u) == h[i]
        assert kernel_eval(spec, u, C[i]) == h[i]
        assert kernel_eval(spec, C[i], C[0]) == G[i, 0]
        assert kernel_self(spec, C[i]) == diag[i] == G[i, i]


@pytest.mark.parametrize("spec, dim, k_min", [
    (GAUSS, 0, 1), (GAUSS, 1, 9), (GAUSS, 3, 9),
    (KernelSpec("polynomial", degree=2), 3, 9), (KernelSpec("polynomial", degree=6), 1, 7)])
def test_dictionary_kernel_vector_reads_the_block_row(spec, dim, k_min):
    """A dictionary's center store reads its (L, capacity) center rows, and h
    is bit for bit the public kernel_vector and kernel_block's row at every
    size: past the buffer's doublings at K = 4 and 8, and at L = 0."""
    rng = np.random.default_rng(dim)
    queries = rng.uniform(-4, 4, (5, dim))

    def check(d):
        for u in queries:
            assert_one_row(spec, d.centers, u, d)

    d = grown(spec, rng.uniform(-4, 4, (60, dim)), check)
    check(d)
    assert d.size >= k_min


@pytest.mark.parametrize("sigma, far", [(1e-160, 1e-150), (1e-150, 1e-140), (0.5, 1e154)])
def test_an_exponent_past_the_float_range_gives_0_without_a_warning(sigma, far):
    """||u - v||^2 / sigma^2 past the float range (1e-300 / 1e-320, or
    1e308 / 0.25) would overflow; the value it stands for is exactly 0 and
    is formed so, with no numpy warning. A repeated point still gives 1."""
    spec = KernelSpec("gaussian", sigma=sigma)
    X = np.array([[0.0], [far], [0.0]])
    assert np.array_equal(gram(spec, X), [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.array_equal(kernel_vector(spec, X, X[1]), [0.0, 1.0, 0.0])
    assert kernel_eval(spec, [0.0], [far]) == 0.0


def assert_same_store(a: Centers, b: Centers) -> None:
    """Two stores hold the same centers, shifted columns, capacities and gate."""
    assert a.size == b.size and a._scale == b._scale
    assert a.points.tobytes() == b.points.tobytes()
    assert a._C.shape == b._C.shape
    assert a._C[:, :a.size].tobytes() == b._C[:, :b.size].tobytes()
    if a._shifted is None or b._shifted is None:
        assert a._shifted is b._shifted is None
    else:
        assert a._shifted.shape == b._shifted.shape
        assert a._shifted[:, :a.size].tobytes() == b._shifted[:, :b.size].tobytes()


@pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("spec, n0", [(GAUSS, 0), (GAUSS, 10), (GAUSS, 16),
                                      (KernelSpec("polynomial", degree=2), 10)])
def test_extend_is_append_row_by_row(spec, n0, m, far):
    """`Centers.extend` writes a block of m centers as `append` on each row
    in order does, bit for bit, after n0 appended ones: across capacity
    doublings (16, 32, ..., 256), and with one far row mid-block, which
    shuts the gate for good."""
    rng = np.random.default_rng(m + n0)
    X = 3.0 * rng.standard_normal((n0 + m, 3))
    if far:
        X[n0 + m // 2] += 1e6  # past c_1 unless it is c_1
    a, b = Centers(spec, 3, shift=True), Centers(spec, 3, shift=True)
    for u in X:
        a.append(u)
    for u in X[:n0]:
        b.append(u)
    b.extend(X[n0:])
    assert_same_store(a, b)
    assert math.isinf(b._scale) == (far and n0 + m // 2 > 0 or spec.family != "gaussian")


class TestKernelSpec:
    def test_json_round_trip(self):
        for spec in (KernelSpec("gaussian", sigma=0.5),
                     KernelSpec("polynomial", degree=3)):
            assert KernelSpec.from_json(spec.to_json()) == spec

    def test_json_schema_keys(self):
        j = KernelSpec("gaussian", sigma=2.0).to_json()
        assert set(j) == {"family", "sigma", "degree"}

    def test_invalid_family(self):
        with pytest.raises(ValidationError):
            KernelSpec("laplacian")

    def test_invalid_sigma(self):
        with pytest.raises(ValidationError):
            KernelSpec("gaussian", sigma=0.0)
        with pytest.raises(ValidationError):
            KernelSpec("gaussian", sigma=float("nan"))
        with pytest.raises(ValidationError):
            KernelSpec("gaussian", sigma=-1.0)
        with pytest.raises(ValidationError):
            KernelSpec.from_json({"family": "gaussian", "sigma": -1.0})

    @pytest.mark.parametrize("sigma", [1.35e154, 1e200, 1e308])
    def test_sigma_whose_square_overflows_is_refused(self, sigma):
        """sigma^2 = inf would make a far value inf/inf = NaN: refused, as a
        sigma whose square underflows is, at every way in."""
        with pytest.raises(ValidationError, match="kernel.sigma"):
            KernelSpec("gaussian", sigma=sigma)
        with pytest.raises(ValidationError, match="kernel.sigma"):
            KernelSpec.from_json({"family": "gaussian", "sigma": sigma})
        with pytest.raises(ValidationError, match="kernel.sigma"):
            Klms.from_snapshot({"algorithm": "klms", "eta": 0.1, "centers": [[0.0]],
                                "coeffs": [1.0],
                                "kernel": {"family": "gaussian", "sigma": sigma}})
        assert KernelSpec("polynomial", sigma=sigma).sigma == sigma  # no width there

    def test_largest_sigma_gives_finite_values_without_a_warning(self):
        spec = KernelSpec("gaussian", sigma=1.34e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_eval(spec, [0.0], [1.34e154]) == math.exp(-1.0)

    @pytest.mark.parametrize("field, value", [
        ("sigma", "1"), ("sigma", True), ("sigma", None), ("degree", 2.5),
        ("degree", "2"), ("degree", True),
    ])
    def test_fields_read_by_the_field_rule(self, field, value):
        with pytest.raises(ValidationError, match=f"kernel.{field}"):
            KernelSpec("gaussian", **{field: value})

    def test_to_json_holds_plain_numbers(self):
        j = KernelSpec("gaussian", sigma=np.float64(2.0), degree=np.int64(3)).to_json()
        assert j == {"family": "gaussian", "sigma": 2.0, "degree": 3}
        assert type(j["sigma"]) is float and type(j["degree"]) is int

    def test_invalid_degree(self):
        with pytest.raises(ValidationError):
            KernelSpec("polynomial", degree=0)
