import numpy as np
import pytest

from kaf import (
    BatchProblem,
    KernelSpec,
    batch_krr,
    batch_solve_regularized,
    gram,
)
from kaf.exceptions import NumericalError, ValidationError
from kaf.oracle import _solve, feature_space_lms, gradient_residual, objective

GAUSS = KernelSpec("gaussian", sigma=1.0)


def random_problem(n=25, seed=0, lam=0.1, delta=0.05, scale=1.5):
    rng = np.random.default_rng(seed)
    U = rng.uniform(-scale, scale, (n, 2))
    d = np.sin(2 * U[:, 0]) + 0.3 * U[:, 1] + 0.1 * rng.standard_normal(n)
    return BatchProblem(U, d, GAUSS, lam, delta)


class TestBatchSolveRegularized:
    def test_single_sample(self):
        sol = batch_solve_regularized(BatchProblem([[0.3]], [2.0], GAUSS, 1.0, 0.1))
        np.testing.assert_allclose(sol.alpha, [1.0])
        np.testing.assert_array_equal(sol.A, [[1.0]])

    def test_two_identical_samples(self):
        # dense solve of (A^T A K + I) alpha = A^T d with A = [1, 1]^T, K = [1]
        sol = batch_solve_regularized(
            BatchProblem([[0.3], [0.3]], [3.0, 3.0], GAUSS, 1.0, 0.1))
        np.testing.assert_allclose(sol.alpha, [2.0], rtol=1e-14)
        assert sol.centers.shape == (1, 1)

    def test_zero_delta_reduces_to_krr(self):
        rng = np.random.default_rng(1)
        U = rng.uniform(-5, 5, (20, 2))
        d = rng.standard_normal(20)
        sol = batch_solve_regularized(BatchProblem(U, d, GAUSS, 0.1, 0.0))
        np.testing.assert_array_equal(sol.A, np.eye(20))
        np.testing.assert_allclose(sol.alpha, batch_krr(U, d, GAUSS, 0.1), atol=1e-10)

    def test_rejected_rows_carry_ald_coefficients(self):
        prob = random_problem(n=30, seed=2)
        sol = batch_solve_regularized(prob)
        k = sol.centers.shape[0]
        assert 1 < k < 30
        indicator_rows = [i for i, row in enumerate(sol.A)
                          if np.count_nonzero(row) == 1 and row.max() == 1.0]
        assert len(indicator_rows) == k
        # rows appended after the final growth were solved against the full
        # dictionary, so the Gram matrix maps them back to kernel vectors
        from kaf.kernels import kernel_vector
        for i in range(indicator_rows[-1] + 1, 30):
            h = kernel_vector(GAUSS, sol.centers, prob.inputs[i])
            np.testing.assert_allclose(sol.gram @ sol.A[i], h, atol=1e-8)

    def test_step_collection_prefix_consistency(self):
        prob = random_problem(n=15, seed=3)
        sol = batch_solve_regularized(prob, collect_steps=True)
        assert len(sol.step_alphas) == 15
        np.testing.assert_array_equal(sol.step_alphas[-1], sol.alpha)
        # prefix solution equals solving the truncated problem from scratch
        sub = BatchProblem(prob.inputs[:8], prob.targets[:8], GAUSS,
                           prob.lam, prob.delta)
        np.testing.assert_allclose(sol.step_alphas[7],
                                   batch_solve_regularized(sub).alpha, atol=1e-12)

    def test_condition_diagnostics_attached(self):
        sol = batch_solve_regularized(random_problem())
        assert np.isfinite(sol.cond_system) and sol.cond_system >= 1.0
        assert np.isfinite(sol.cond_gram) and sol.cond_gram >= 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            BatchProblem([[0.0]], [1.0, 2.0], GAUSS, 0.1, 0.1)
        with pytest.raises(ValidationError):
            BatchProblem([[0.0]], [1.0], GAUSS, -0.1, 0.1)

    @pytest.mark.parametrize("targets, lam, delta", [
        ([1.0, 2.0], True, 0.1), ([1.0, 2.0], "0.1", 0.1), ([1.0, 2.0], 0.1, True),
        ([1.0, 2.0], 0.1, "0.1"), (["0.5", 2.0], 0.1, 0.1), ([True, 2.0], 0.1, 0.1)])
    def test_reads_by_the_filters_rule(self, targets, lam, delta):
        """The oracle refuses, with ValidationError, what KrlsAldReg refuses:
        a bool or string lambda or delta, and a target that is not a number."""
        with pytest.raises(ValidationError):
            BatchProblem([[0.0], [1.0]], targets, GAUSS, lam, delta)


class TestBatchKrr:
    def test_single_point(self):
        lam = 0.7
        np.testing.assert_allclose(batch_krr([[1.0]], [2.0], GAUSS, lam),
                                   [2.0 / (1.0 + lam)], rtol=1e-14)

    def test_large_lambda_spectral_bound(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((15, 2))
        d = rng.standard_normal(15)
        lam = 1e6
        alpha = batch_krr(U, d, GAUSS, lam)
        assert np.linalg.norm(alpha) <= np.linalg.norm(d) / lam

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValidationError):
            batch_krr([[0.0]], [1.0], GAUSS, 0.0)

    @pytest.mark.parametrize("targets, lam", [
        ([1.0, 2.0], "0.1"), ([1.0, 2.0], True), ([1.0, np.nan], 0.1), (["0.5", 2.0], 0.1)])
    def test_refuses_what_is_not_a_number(self, targets, lam):
        with pytest.raises(ValidationError):
            batch_krr([[0.0], [1.0]], targets, GAUSS, lam)


@pytest.mark.parametrize("targets, eta, degree", [
    (["0.5", 2.0], 0.1, 2), ([1.0, 2.0], "0.1", 2), ([1.0, 2.0], 0.1, True)])
def test_feature_space_lms_refuses_what_is_not_a_number(targets, eta, degree):
    with pytest.raises(ValidationError):
        feature_space_lms([[0.0], [1.0]], targets, eta, degree)


class TestStationarity:
    def test_gradient_vanishes_at_solution(self):
        prob = random_problem(n=40, seed=5)
        sol = batch_solve_regularized(prob)
        resid = gradient_residual(sol.A, sol.gram, prob.targets, prob.lam, sol.alpha)
        assert resid <= 1e-8 * np.linalg.norm(sol.A.T @ prob.targets)

    def test_objective_minimal_under_perturbation(self):
        prob = random_problem(n=40, seed=6)
        sol = batch_solve_regularized(prob)
        base = objective(sol.A, sol.gram, prob.targets, prob.lam, sol.alpha)
        rng = np.random.default_rng(7)
        for _ in range(20):
            direction = rng.standard_normal(sol.alpha.shape[0])
            perturbed = sol.alpha + 1e-3 * direction
            assert objective(sol.A, sol.gram, prob.targets, prob.lam,
                             perturbed) >= base


def test_singular_system_raises():
    with pytest.raises(NumericalError):
        _solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]), 0.0)


def test_objective_uses_gram_metric():
    # hand check on a 1x1 system: ||a g alpha - d||^2 + lam alpha^2 g
    A = np.array([[1.0]])
    G = np.array([[2.0]])
    d = np.array([3.0])
    assert objective(A, G, d, 0.5, np.array([1.0])) == pytest.approx(
        (2.0 - 3.0) ** 2 + 0.5 * 2.0)
