"""Unit tests for SRDA's warm-started (incremental) refitting."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.srda import SRDA


@pytest.fixture
def stream(rng):
    """An initial batch plus a small increment from the same source."""
    centers = 3.0 * rng.standard_normal((4, 20))

    def batch(size, seed):
        r = np.random.default_rng(seed)
        y = np.concatenate([np.arange(4), r.integers(0, 4, size - 4)])
        X = centers[y] + r.standard_normal((size, 20))
        return X, y

    X0, y0 = batch(60, 1)
    X1, y1 = batch(12, 2)
    return (X0, y0), (np.vstack([X0, X1]), np.concatenate([y0, y1]))


class TestWarmStart:
    def test_warm_refit_converges_in_fewer_iterations(self, stream):
        (X0, y0), (X1, y1) = stream
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-8,
            warm_start=True,
        )
        model.fit(X0, y0)
        cold_iters = sum(model.lsqr_iterations_)
        model.fit(X1, y1)  # warm refit on the grown dataset
        warm_iters = sum(model.lsqr_iterations_)
        cold = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-8,
        )
        cold.fit(X1, y1)
        assert warm_iters < sum(cold.lsqr_iterations_)
        assert warm_iters < cold_iters

    def test_warm_refit_matches_cold_solution(self, stream):
        (X0, y0), (X1, y1) = stream
        warm = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=1000,
            tol=1e-13,
            warm_start=True,
        )
        warm.fit(X0, y0)
        warm.fit(X1, y1)
        cold = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=1000,
            tol=1e-13,
        )
        cold.fit(X1, y1)
        assert np.allclose(warm.components_, cold.components_, atol=1e-6)
        assert np.allclose(warm.intercept_, cold.intercept_, atol=1e-6)

    def test_incompatible_shapes_fall_back_to_cold(self, stream, rng):
        (X0, y0), _ = stream
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=200,
            tol=1e-10,
            warm_start=True,
        )
        model.fit(X0, y0)
        # different feature count: warm start silently skipped
        X_new = rng.standard_normal((30, 7))
        y_new = np.arange(30) % 3
        model.fit(X_new, y_new)
        assert model.components_.shape == (7, 2)

    def test_warm_start_ignored_by_normal_solver(self, stream):
        (X0, y0), (X1, y1) = stream
        warm = SRDA(
            alpha=1.0, config=SolverConfig(solver="normal"), warm_start=True
        )
        warm.fit(X0, y0)
        warm.fit(X1, y1)
        cold = SRDA(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(X1, y1)
        assert np.allclose(warm.components_, cold.components_, atol=1e-10)

    def test_warm_start_on_augmented_path(self, stream):
        (X0, y0), (X1, y1) = stream
        warm = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            centering=False,
            max_iter=500,
            tol=1e-8,
            warm_start=True,
        )
        warm.fit(X0, y0)
        warm.fit(X1, y1)
        cold = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            centering=False,
            max_iter=500,
            tol=1e-8,
        ).fit(X1, y1)
        assert sum(warm.lsqr_iterations_) < sum(cold.lsqr_iterations_)
        assert np.allclose(warm.components_, cold.components_, atol=1e-4)

    def test_disabled_by_default(self, stream):
        (X0, y0), (X1, y1) = stream
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-8,
        )
        model.fit(X0, y0)
        first = sum(model.lsqr_iterations_)
        model.fit(X1, y1)
        second = sum(model.lsqr_iterations_)
        # no warm start: the refit pays full price (within LSQR noise)
        assert second >= first - 10
