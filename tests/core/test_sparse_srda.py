"""Unit tests for the sparse-projection SRDA variant."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.sparse_srda import SparseSRDA
from repro.core.srda import SRDA
from repro.linalg.sparse import CSRMatrix


@pytest.fixture
def feature_selection_problem(rng):
    """3 classes separated only through the first 6 of 46 features."""
    c, per_class, informative, noise = 3, 25, 6, 40
    centers = np.zeros((c, informative + noise))
    centers[:, :informative] = 4.0 * rng.standard_normal((c, informative))
    y = np.repeat(np.arange(c), per_class)
    X = centers[y] + rng.standard_normal((c * per_class, informative + noise))
    return X, y, informative


class TestSparseSRDA:
    def test_projections_are_sparse(self, feature_selection_problem):
        X, y, _ = feature_selection_problem
        model = SparseSRDA(alpha=2.0, l1_ratio=0.95).fit(X, y)
        assert model.sparsity_ > 0.5
        assert model.components_.shape == (X.shape[1], 2)

    def test_selects_informative_features(self, feature_selection_problem):
        X, y, informative = feature_selection_problem
        model = SparseSRDA(alpha=2.0, l1_ratio=0.95).fit(X, y)
        selected = model.selected_features()
        assert selected.size > 0
        assert np.all(selected < informative)

    def test_classifies_despite_sparsity(self, feature_selection_problem):
        X, y, _ = feature_selection_problem
        model = SparseSRDA(alpha=2.0, l1_ratio=0.95).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_ridge_limit_matches_srda(self, small_classification):
        """l1_ratio = 0 must agree with SRDA's centered normal path
        (both solve the same ridge problem)."""
        X, y = small_classification
        sparse_model = SparseSRDA(alpha=1.0, l1_ratio=0.0, max_iter=5000,
                                  tol=1e-12).fit(X, y)
        srda = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        assert np.allclose(
            sparse_model.components_, srda.components_, atol=1e-6
        )
        assert np.allclose(sparse_model.intercept_, srda.intercept_, atol=1e-6)

    def test_sparsity_grows_with_alpha(self, feature_selection_problem):
        X, y, _ = feature_selection_problem
        sparsities = [
            SparseSRDA(alpha=alpha, l1_ratio=1.0).fit(X, y).sparsity_
            for alpha in (0.1, 1.0, 5.0)
        ]
        assert sparsities[0] <= sparsities[1] <= sparsities[2]

    def test_sparse_input_runs(self, sparse_classification):
        S, dense, y = sparse_classification
        model = SparseSRDA(alpha=0.5, l1_ratio=0.9).fit(S, y)
        assert model.score(S, y) > 0.8
        # transform consistent across representations
        assert np.allclose(
            model.transform(S), model.transform(dense), atol=1e-10
        )

    def test_iteration_telemetry(self, small_classification):
        X, y = small_classification
        model = SparseSRDA(alpha=1.0).fit(X, y)
        assert len(model.n_iter_) == 2
        assert all(n >= 1 for n in model.n_iter_)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSRDA(alpha=-1.0)
        with pytest.raises(ValueError):
            SparseSRDA(l1_ratio=2.0)

    def test_unfitted(self, rng):
        from repro.core.base import NotFittedError

        with pytest.raises(NotFittedError):
            SparseSRDA().transform(rng.standard_normal((2, 3)))
        with pytest.raises(NotFittedError):
            SparseSRDA().selected_features()
