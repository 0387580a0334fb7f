"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.linalg.sparse import CSRMatrix


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_classification(rng):
    """A small, well-separated classification problem (m > n).

    Returns ``(X, y)`` with 3 classes of 20 samples in 10 dimensions.
    """
    n_per_class, n_features, n_classes = 20, 10, 3
    centers = 4.0 * rng.standard_normal((n_classes, n_features))
    X = np.vstack(
        [
            centers[k] + rng.standard_normal((n_per_class, n_features))
            for k in range(n_classes)
        ]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    shuffle = rng.permutation(X.shape[0])
    return X[shuffle], y[shuffle]


@pytest.fixture
def highdim_classification(rng):
    """An undersampled problem (n > m) with linearly independent samples.

    Returns ``(X, y)`` with 4 classes of 5 samples in 60 dimensions —
    the regime of Corollary 3.
    """
    n_per_class, n_features, n_classes = 5, 60, 4
    centers = 3.0 * rng.standard_normal((n_classes, n_features))
    X = np.vstack(
        [
            centers[k] + rng.standard_normal((n_per_class, n_features))
            for k in range(n_classes)
        ]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return X, y


@pytest.fixture
def sparse_classification(rng):
    """A sparse 5-class problem as (CSRMatrix, dense_copy, y)."""
    m, n, n_classes = 60, 40, 5
    y = np.arange(m) % n_classes
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) < 0.7] = 0.0
    # inject class signal on disjoint coordinate blocks
    for k in range(n_classes):
        cols = slice(8 * k, 8 * k + 4)
        dense[y == k, cols] += 2.0
    return CSRMatrix.from_dense(dense), dense, y


@pytest.fixture
def sequential_lsqr_srda():
    """An SRDA subclass that solves one response column at a time.

    Its ``_ridge_lsqr`` runs the reference :func:`repro.linalg.lsqr`
    once per column with the same damping, tolerances, warm starts and
    tracer hook as the blocked solver, and feeds the same per-column
    diagnostics into the report — an independent reference to check
    SRDA's blocked Golub–Kahan fit against.
    """
    from repro.core.srda import SRDA, _record_lsqr_columns
    from repro.linalg.lsqr import lsqr

    class SequentialLsqrSRDA(SRDA):
        def _ridge_lsqr(self, op, targets, report):
            starts = self._warm_start_matrix(op.shape[1], targets.shape[1])
            damp = float(np.sqrt(self.alpha))
            tracer = getattr(self, "_fit_tracer", None)
            hook = tracer.iteration_hook() if tracer is not None else None
            weights = np.empty((op.shape[1], targets.shape[1]))
            columns = []
            for j in range(targets.shape[1]):
                result = lsqr(
                    op,
                    targets[:, j],
                    damp=damp,
                    atol=self.tol,
                    btol=self.tol,
                    iter_lim=self.max_iter,
                    x0=None if starts is None else starts[:, j],
                    on_iteration=hook,
                )
                weights[:, j] = result.x
                columns.append(result)
            self.lsqr_iterations_ = _record_lsqr_columns(
                columns, report, self.tol, self.alpha
            )
            return weights

    return SequentialLsqrSRDA
