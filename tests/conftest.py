"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.linalg.sparse import CSRMatrix


@pytest.fixture
def rng(request):
    """A fresh deterministic generator per test.

    Seeded 12345, or with the seed a test passes through
    ``@pytest.mark.parametrize("rng", seeds, indirect=True)``.
    """
    return np.random.default_rng(getattr(request, "param", 12345))


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
    """An SRDA subclass whose fits solve one response column at a time.

    While its ``fit`` runs, the regression stage's ``block_lsqr`` (the
    name :func:`repro.core.srda.solve_ridge` calls) is replaced by
    scipy's LSQR (:func:`tests.lsqr_reference.scipy_lsqr`), run once
    per column with the same damping, tolerances and warm starts — an
    independent reference to check SRDA's blocked Golub–Kahan fit
    against.  The per-column results feed the same report diagnostics.
    scipy takes no preconditioner or iteration hook, so a fit that
    passes either fails here.  A test that never reaches the reference
    fails at teardown, so the seam cannot silently stop overriding
    anything.
    """
    from repro.core import srda as srda_module
    from repro.core.srda import SRDA
    from tests.lsqr_reference import scipy_lsqr

    solved_columns = []

    class ColumnResults:
        """The slice of ``BlockLSQRResult`` the regression stage reads."""

        def __init__(self, columns):
            self.X = np.column_stack([result.x for result in columns])
            self._columns = columns

        def column(self, j):
            return self._columns[j]

    def sequential_lsqr(
        A, B, damp, atol, btol, iter_lim, X0=None, on_iteration=None,
        precondition=None,
    ):
        assert on_iteration is None and precondition is None, (
            "scipy's lsqr takes no iteration hook or preconditioner"
        )
        columns = [
            scipy_lsqr(
                A,
                B[:, j],
                damp=damp,
                atol=atol,
                btol=btol,
                iter_lim=iter_lim,
                x0=None if X0 is None else X0[:, j],
            )
            for j in range(B.shape[1])
        ]
        solved_columns.extend(columns)
        return ColumnResults(columns)

    class SequentialLsqrSRDA(SRDA):
        def fit(self, X, y):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(srda_module, "block_lsqr", sequential_lsqr)
                return super().fit(X, y)

    yield SequentialLsqrSRDA
    assert solved_columns, "the sequential LSQR reference never ran"
