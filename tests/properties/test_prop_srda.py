"""Property-based tests for SRDA's core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SolverConfig
from repro.core.srda import SRDA
from repro.linalg.sparse import CSRMatrix


def classification_case(seed, max_m=30, max_n=15, max_c=5):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, max_c + 1))
    m = int(rng.integers(2 * c, max_m))
    n = int(rng.integers(2, max_n))
    y = np.concatenate([np.arange(c), rng.integers(0, c, m - c)])
    rng.shuffle(y)
    centers = 3.0 * rng.standard_normal((c, n))
    X = centers[y] + rng.standard_normal((m, n))
    return X, y, c


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_embedding_dimension_always_c_minus_1(seed):
    X, y, c = classification_case(seed)
    Z = SRDA(
        alpha=1.0, config=SolverConfig(solver="normal")
    ).fit_transform(X, y)
    assert Z.shape == (X.shape[0], c - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1e-3, 1e3))
def test_normal_and_lsqr_agree(seed, alpha):
    X, y, _ = classification_case(seed, max_m=20, max_n=10)
    a = SRDA(alpha=alpha, config=SolverConfig(solver="normal")).fit(X, y)
    b = SRDA(
        alpha=alpha,
        config=SolverConfig(solver="lsqr"),
        max_iter=3000,
        tol=1e-14,
    ).fit(X, y)
    scale = max(1.0, np.abs(a.components_).max())
    assert np.abs(a.components_ - b.components_).max() < 1e-5 * scale


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sample_order_invariance(seed):
    X, y, _ = classification_case(seed)
    perm = np.random.default_rng(seed + 1).permutation(X.shape[0])
    a = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
    b = SRDA(
        alpha=1.0, config=SolverConfig(solver="normal")
    ).fit(X[perm], y[perm])
    assert np.allclose(a.components_, b.components_, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sparse_dense_agreement(seed):
    X, y, _ = classification_case(seed, max_m=20, max_n=10)
    X = X.copy()
    X[np.abs(X) < 0.8] = 0.0
    dense_model = SRDA(
        alpha=1.0, config=SolverConfig(solver="normal"), centering=False
    ).fit(X, y)
    sparse_model = SRDA(
        alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=3000, tol=1e-14
    ).fit(CSRMatrix.from_dense(X), y)
    assert np.abs(
        dense_model.components_ - sparse_model.components_
    ).max() < 1e-5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(10.0, 1e4))
def test_translation_invariant_predictions(seed, shift_size):
    X, y, _ = classification_case(seed)
    shift = shift_size * np.ones(X.shape[1])
    a = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
    b = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X + shift, y)
    assert np.array_equal(a.predict(X), b.predict(X + shift))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_transform_is_affine(seed):
    """transform must be exactly X @ components + intercept."""
    X, y, _ = classification_case(seed)
    model = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
    Z = model.transform(X)
    assert np.allclose(Z, X @ model.components_ + model.intercept_, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_predictions_match_embedding_centroids(seed):
    X, y, c = classification_case(seed)
    model = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
    Z = model.transform(X)
    predictions = model.predict(X)
    for i in range(X.shape[0]):
        distances = np.linalg.norm(model.centroids_ - Z[i], axis=1)
        assert predictions[i] == model.classes_[np.argmin(distances)]
