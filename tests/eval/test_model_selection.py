"""Unit tests for α model selection."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.srda import SRDA
from repro.eval.model_selection import (
    AlphaSearchResult,
    alpha_grid,
    grid_search_alpha,
)
from repro.linalg.sparse import CSRMatrix


class TestAlphaGrid:
    def test_parameterization(self):
        grid = alpha_grid(9)
        ratios = grid / (1.0 + grid)
        assert np.allclose(ratios, np.linspace(0.1, 0.9, 9), atol=1e-12)

    def test_monotone_increasing(self):
        grid = alpha_grid(7)
        assert np.all(np.diff(grid) > 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            alpha_grid(0)


class TestGridSearch:
    @pytest.fixture
    def data(self, rng):
        centers = 2.0 * rng.standard_normal((3, 40))
        y = np.repeat(np.arange(3), 12)
        X = centers[y] + 1.5 * rng.standard_normal((36, 40))
        return X, y

    def test_result_structure(self, data):
        X, y = data
        result = grid_search_alpha(
            lambda a: SRDA(alpha=a, config=SolverConfig(solver="normal")),
            X, y, alphas=[0.1, 1.0, 10.0], n_splits=3, seed=0,
        )
        assert isinstance(result, AlphaSearchResult)
        assert result.alphas.shape == (3,)
        assert result.mean_errors.shape == (3,)
        assert np.all(result.mean_errors >= 0)
        assert np.all(result.mean_errors <= 1)
        assert result.best_alpha in (0.1, 1.0, 10.0)
        assert result.best_error == result.mean_errors.min()
        assert result.flatness() >= 0

    def test_deterministic(self, data):
        X, y = data
        kwargs = dict(alphas=[0.5, 5.0], n_splits=2, seed=3)
        a = grid_search_alpha(lambda a: SRDA(alpha=a), X, y, **kwargs)
        b = grid_search_alpha(lambda a: SRDA(alpha=a), X, y, **kwargs)
        assert np.array_equal(a.mean_errors, b.mean_errors)

    def test_default_grid_used(self, data):
        X, y = data
        result = grid_search_alpha(
            lambda a: SRDA(alpha=a), X, y, n_splits=2, seed=0
        )
        assert result.alphas.shape == (9,)

    def test_sparse_input(self, rng):
        dense = rng.standard_normal((40, 30))
        dense[np.abs(dense) < 1.0] = 0.0
        y = np.arange(40) % 2
        dense[y == 1, :5] += 3.0
        X = CSRMatrix.from_dense(dense)
        result = grid_search_alpha(
            lambda a: SRDA(
                alpha=a, config=SolverConfig(solver="lsqr"), max_iter=30
            ),
            X, y, alphas=[1.0], n_splits=2, seed=0,
        )
        assert np.isfinite(result.mean_errors).all()

    def test_insufficient_samples_rejected(self, rng):
        X = rng.standard_normal((4, 3))
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="hold out"):
            grid_search_alpha(
                lambda a: SRDA(alpha=a), X, y,
                validation_per_class=2, n_splits=1,
            )

    def test_picks_sane_alpha_on_overfit_prone_data(self, rng):
        # undersampled noisy problem: huge alpha should lose to moderate
        n = 60
        centers = 1.5 * rng.standard_normal((3, n))
        y = np.repeat(np.arange(3), 8)
        X = centers[y] + 2.0 * rng.standard_normal((24, n))
        result = grid_search_alpha(
            lambda a: SRDA(alpha=a, config=SolverConfig(solver="normal")),
            X, y, alphas=[1e-6, 1.0, 1e6], n_splits=4, seed=1,
        )
        assert result.best_alpha != 1e6


class TestGridSearchSRDA:
    @pytest.fixture
    def data(self, rng):
        centers = 2.0 * rng.standard_normal((3, 40))
        y = np.repeat(np.arange(3), 12)
        X = centers[y] + 1.5 * rng.standard_normal((36, 40))
        return X, y

    def test_matches_per_alpha_refits(self, data):
        """The shared-bidiagonalization search scores the same models as
        refitting SRDA per alpha, so the error surfaces coincide."""
        from repro.eval.model_selection import grid_search_alpha_srda

        X, y = data
        kwargs = dict(alphas=[0.1, 1.0, 10.0], n_splits=3, seed=0)
        refit = grid_search_alpha(
            lambda a: SRDA(
                alpha=a,
                config=SolverConfig(solver="lsqr"),
                max_iter=15,
                tol=0.0,
            ),
            X, y, **kwargs,
        )
        shared = grid_search_alpha_srda(
            X, y, max_iter=15, tol=0.0, **kwargs
        )
        assert np.array_equal(refit.alphas, shared.alphas)
        assert np.array_equal(refit.mean_errors, shared.mean_errors)
        assert np.array_equal(refit.std_errors, shared.std_errors)

    def test_sparse_input(self, rng):
        from repro.eval.model_selection import grid_search_alpha_srda

        dense = rng.standard_normal((40, 30))
        dense[np.abs(dense) < 1.0] = 0.0
        y = np.arange(40) % 2
        dense[y == 1, :5] += 3.0
        matrix = CSRMatrix.from_dense(dense)
        result = grid_search_alpha_srda(
            matrix, y, alphas=[0.5, 5.0], n_splits=2, seed=1
        )
        assert isinstance(result, AlphaSearchResult)
        assert result.mean_errors.shape == (2,)

    def test_default_grid(self, data):
        from repro.eval.model_selection import grid_search_alpha_srda

        X, y = data
        result = grid_search_alpha_srda(X, y, n_splits=2, seed=0)
        assert result.alphas.shape == (9,)
