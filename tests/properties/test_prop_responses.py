"""Property-based tests for response generation (Eqn 15/16 invariants)."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.graph import lda_weight_matrix
from repro.core.responses import (
    generate_responses,
    response_table,
    response_table_from_counts,
)
from repro.linalg.gram_schmidt import orthonormalize


def label_vectors(max_classes=6, max_samples=40):
    """Random label vectors guaranteed to cover every class."""

    @st.composite
    def build(draw):
        c = draw(st.integers(2, max_classes))
        extra = draw(st.integers(0, max_samples - c))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        y = np.concatenate([np.arange(c), rng.integers(0, c, extra)])
        rng.shuffle(y)
        return y, c

    return build()


@settings(max_examples=60, deadline=None)
@given(label_vectors())
def test_shape_is_c_minus_one(case):
    y, c = case
    assert generate_responses(y, c).shape == (len(y), c - 1)


@settings(max_examples=60, deadline=None)
@given(label_vectors())
def test_orthogonal_to_ones(case):
    y, c = case
    R = generate_responses(y, c)
    assert np.abs(R.sum(axis=0)).max() < 1e-8


@settings(max_examples=60, deadline=None)
@given(label_vectors())
def test_orthonormal_columns(case):
    y, c = case
    R = generate_responses(y, c)
    assert np.allclose(R.T @ R, np.eye(c - 1), atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(label_vectors())
def test_eigenvectors_of_w(case):
    y, c = case
    R = generate_responses(y, c)
    W = lda_weight_matrix(y, c)
    assert np.allclose(W @ R, R, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(label_vectors())
def test_piecewise_constant(case):
    y, c = case
    R = generate_responses(y, c)
    response_table(R, y, c)  # raises when not piecewise constant


@settings(max_examples=60, deadline=None)
@given(label_vectors())
def test_distinct_classes_get_distinct_response_rows(case):
    """Classes must be separable in response space: the (c, c-1) table
    rows form a non-degenerate simplex."""
    y, c = case
    R = generate_responses(y, c)
    table = response_table(R, y, c)
    # pairwise distinct rows
    for i in range(c):
        for j in range(i + 1, c):
            assert np.linalg.norm(table[i] - table[j]) > 1e-8


@settings(max_examples=60, deadline=None)
@given(label_vectors(), st.integers(0, 2**31 - 1))
def test_permutation_equivariance(case, seed):
    y, c = case
    perm = np.random.default_rng(seed).permutation(len(y))
    R = generate_responses(y, c)
    R_perm = generate_responses(y[perm], c)
    assert np.allclose(R_perm, R[perm], atol=1e-8)


def _class_counts():
    """Per-class counts: 2–80 classes of 1 to 10⁶ samples each."""
    return st.integers(2, 80).flatmap(
        lambda c: st.lists(st.integers(1, 10**6), min_size=c, max_size=c)
    )


def _gram_schmidt_table(counts):
    """The paper's Gram–Schmidt of ``[1, indicators]``, one row per class.

    Every vector in the indicator span is constant on classes, so the
    length-``m`` Gram–Schmidt is the same computation as Gram–Schmidt
    of the ``c`` class rows weighted by ``√m_k``; dividing the weight
    back out gives the per-class response values.
    """
    c = len(counts)
    root = np.sqrt(np.asarray(counts, dtype=np.float64))[:, None]
    Q, kept = orthonormalize(root * np.hstack([np.ones((c, 1)), np.eye(c)]))
    assert kept.tolist() == list(range(c))
    return Q[:, 1:] / root


@settings(max_examples=60, deadline=None)
@given(_class_counts())
@example([1, 1])
@example([1] * 80)
@example([10**6] * 79 + [1])
def test_closed_form_table_matches_gram_schmidt(counts):
    table = response_table_from_counts(np.asarray(counts))
    np.testing.assert_allclose(
        table, _gram_schmidt_table(counts), rtol=0, atol=1e-13
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 80).flatmap(
    lambda c: st.lists(st.integers(1, 40), min_size=c, max_size=c)
))
@example([1, 1])
@example([1] * 80)
def test_closed_form_matches_length_m_gram_schmidt(counts):
    """The same check against the literal ``(m, c+1)`` Gram–Schmidt."""
    c = len(counts)
    y = np.repeat(np.arange(c), counts)
    stacked = np.hstack([np.ones((y.shape[0], 1)), np.eye(c)[y]])
    Q, kept = orthonormalize(stacked)
    assert kept.tolist() == list(range(c))
    expected = Q[:, 1:]
    np.testing.assert_allclose(
        generate_responses(y, c), expected, rtol=0, atol=1e-13
    )
    np.testing.assert_allclose(
        response_table_from_counts(np.asarray(counts))[y], expected,
        rtol=0, atol=1e-13,
    )
