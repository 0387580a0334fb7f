"""Unit tests for the one-vs-rest ridge classifier."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.baselines.ridge import RidgeClassifier
from repro.core.base import NotFittedError
from repro.linalg.sparse import CSRMatrix


class TestRidgeClassifier:
    def test_separable_data(self, small_classification):
        X, y = small_classification
        assert RidgeClassifier(alpha=1.0).fit(X, y).score(X, y) == 1.0

    def test_decision_function_shape(self, small_classification):
        X, y = small_classification
        model = RidgeClassifier(alpha=1.0).fit(X, y)
        assert model.decision_function(X).shape == (X.shape[0], 3)

    def test_coefficients_match_per_class_ridge(self, small_classification):
        X, y = small_classification
        alpha = 2.0
        model = RidgeClassifier(
            alpha=alpha, config=SolverConfig(solver="normal")
        ).fit(X, y)
        m, n = X.shape
        X_aug = np.hstack([X, np.ones((m, 1))])
        for k, label in enumerate(model.classes_):
            target = np.where(y == label, 1.0, -1.0)
            expected = np.linalg.solve(
                X_aug.T @ X_aug + alpha * np.eye(n + 1), X_aug.T @ target
            )
            assert np.allclose(model.coef_[:, k], expected[:-1], atol=1e-8)
            assert model.intercept_[k] == pytest.approx(expected[-1], abs=1e-8)

    def test_normal_vs_lsqr(self, small_classification):
        X, y = small_classification
        a = RidgeClassifier(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(X, y)
        b = RidgeClassifier(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-14,
        ).fit(X, y)
        assert np.allclose(a.coef_, b.coef_, atol=1e-6)

    def test_dual_path_when_wide(self, rng):
        m, n = 10, 40
        X = rng.standard_normal((m, n))
        y = np.arange(m) % 2
        model = RidgeClassifier(
            alpha=0.5, config=SolverConfig(solver="normal")
        ).fit(X, y)
        X_aug = np.hstack([X, np.ones((m, 1))])
        target = np.where(y == model.classes_[0], 1.0, -1.0)
        expected = np.linalg.solve(
            X_aug.T @ X_aug + 0.5 * np.eye(n + 1), X_aug.T @ target
        )
        assert np.allclose(model.coef_[:, 0], expected[:-1], atol=1e-8)

    def test_alpha_zero_lstsq_path(self, small_classification):
        X, y = small_classification
        model = RidgeClassifier(
            alpha=0.0, config=SolverConfig(solver="normal")
        ).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_sparse_input(self, sparse_classification):
        S, dense, y = sparse_classification
        sparse_model = RidgeClassifier(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=400,
            tol=1e-13,
        ).fit(S, y)
        dense_model = RidgeClassifier(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(dense, y)
        assert np.allclose(sparse_model.coef_, dense_model.coef_, atol=1e-6)
        assert np.array_equal(
            sparse_model.predict(S), dense_model.predict(dense)
        )

    def test_auto_solver_dispatch(self, sparse_classification):
        S, dense, y = sparse_classification
        sparse_model = RidgeClassifier(
            config=SolverConfig(solver="auto")
        ).fit(S, y)
        assert sparse_model.lsqr_iterations_ is not None
        dense_model = RidgeClassifier(
            config=SolverConfig(solver="auto")
        ).fit(dense, y)
        assert dense_model.lsqr_iterations_ is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RidgeClassifier(alpha=-1.0)
        with pytest.raises(ValueError):
            RidgeClassifier(config=SolverConfig(solver="qr"))

    def test_unfitted(self, rng):
        with pytest.raises(NotFittedError):
            RidgeClassifier().predict(rng.standard_normal((2, 3)))

    def test_string_labels(self, rng):
        X = np.vstack([rng.standard_normal((10, 4)),
                       rng.standard_normal((10, 4)) + 4.0])
        y = np.array(["neg"] * 10 + ["pos"] * 10)
        model = RidgeClassifier(alpha=1.0).fit(X, y)
        assert set(model.predict(X)) <= {"neg", "pos"}
        assert model.score(X, y) == 1.0
