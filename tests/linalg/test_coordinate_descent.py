"""Unit tests for the elastic-net coordinate-descent solver."""

import numpy as np
import pytest

from repro.linalg.coordinate_descent import (
    elastic_net,
    soft_threshold,
)
from repro.linalg.sparse import CSRMatrix


class TestSoftThreshold:
    def test_shrinks_positive(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_shrinks_negative(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zeroes_small_values(self):
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_zero_threshold_is_identity(self):
        assert soft_threshold(1.7, 0.0) == 1.7


class TestElasticNet:
    def test_ridge_limit_matches_closed_form(self, rng):
        X = rng.standard_normal((30, 10))
        y = rng.standard_normal(30)
        alpha = 1.5
        result = elastic_net(X, y, alpha, l1_ratio=0.0, max_iter=5000,
                             tol=1e-12)
        expected = np.linalg.solve(
            X.T @ X + alpha * np.eye(10), X.T @ y
        )
        assert np.allclose(result.coef, expected, atol=1e-8)
        assert result.converged

    def test_lasso_kkt_conditions(self, rng):
        X = rng.standard_normal((40, 12))
        y = rng.standard_normal(40)
        alpha = 1.0
        result = elastic_net(X, y, alpha, l1_ratio=1.0, max_iter=5000,
                             tol=1e-12)
        gradient = X.T @ (X @ result.coef - y)
        for j in range(12):
            if result.coef[j] != 0.0:
                assert abs(gradient[j] + np.sign(result.coef[j]) * alpha) < 1e-6
            else:
                assert abs(gradient[j]) <= alpha + 1e-6

    def test_zero_penalty_matches_lstsq(self, rng):
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        result = elastic_net(X, y, 0.0, max_iter=20000, tol=1e-13)
        expected = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.allclose(result.coef, expected, atol=1e-6)

    def test_huge_penalty_gives_zero(self, rng):
        X = rng.standard_normal((20, 6))
        y = rng.standard_normal(20)
        result = elastic_net(X, y, 1e8, l1_ratio=1.0)
        assert np.array_equal(result.coef, np.zeros(6))
        assert result.n_nonzero == 0

    def test_sparsity_increases_with_alpha(self, rng):
        X = rng.standard_normal((50, 20))
        y = X[:, 0] + 0.5 * X[:, 1] + 0.1 * rng.standard_normal(50)
        nnz = [
            elastic_net(X, y, alpha, l1_ratio=1.0, max_iter=3000).n_nonzero
            for alpha in (0.01, 1.0, 10.0)
        ]
        assert nnz[0] >= nnz[1] >= nnz[2]

    def test_recovers_true_support(self, rng):
        X = rng.standard_normal((80, 25))
        coefficients = np.zeros(25)
        coefficients[[2, 7, 11]] = [3.0, -2.0, 4.0]
        y = X @ coefficients + 0.05 * rng.standard_normal(80)
        result = elastic_net(X, y, 2.0, l1_ratio=1.0, max_iter=3000)
        support = set(np.flatnonzero(result.coef))
        assert {2, 7, 11} <= support
        assert len(support) <= 8

    def test_sparse_input_matches_dense(self, rng):
        dense = rng.standard_normal((30, 12))
        dense[np.abs(dense) < 0.7] = 0.0
        y = rng.standard_normal(30)
        a = elastic_net(dense, y, 0.8, l1_ratio=0.6, max_iter=5000,
                        tol=1e-12)
        b = elastic_net(CSRMatrix.from_dense(dense), y, 0.8, l1_ratio=0.6,
                        max_iter=5000, tol=1e-12)
        assert np.allclose(a.coef, b.coef, atol=1e-10)

    def test_validation(self, rng):
        X = rng.standard_normal((10, 4))
        y = rng.standard_normal(10)
        with pytest.raises(ValueError):
            elastic_net(X, y, -1.0)
        with pytest.raises(ValueError):
            elastic_net(X, y, 1.0, l1_ratio=1.5)
        with pytest.raises(ValueError):
            elastic_net(X, np.ones(9), 1.0)

    def test_constant_zero_column_ignored(self, rng):
        X = rng.standard_normal((20, 5))
        X[:, 3] = 0.0
        y = rng.standard_normal(20)
        result = elastic_net(X, y, 1.0, l1_ratio=1.0, max_iter=2000)
        assert result.coef[3] == 0.0
