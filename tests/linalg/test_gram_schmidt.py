"""Unit tests for modified Gram–Schmidt and the thin QR."""

import numpy as np
import pytest

from repro.linalg.gram_schmidt import (
    gram_schmidt_qr,
    orthogonalize_against,
    orthonormality_error,
    orthonormalize,
)


class TestOrthonormalize:
    def test_full_rank_input(self, rng):
        V = rng.standard_normal((15, 6))
        Q, kept = orthonormalize(V)
        assert Q.shape == (15, 6)
        assert np.array_equal(kept, np.arange(6))
        assert orthonormality_error(Q) < 1e-12

    def test_span_is_preserved(self, rng):
        V = rng.standard_normal((10, 4))
        Q, _ = orthonormalize(V)
        # every input column is reproduced by its projection onto Q
        for j in range(4):
            projected = Q @ (Q.T @ V[:, j])
            assert np.allclose(projected, V[:, j], atol=1e-10)

    def test_dependent_column_dropped(self, rng):
        V = rng.standard_normal((12, 5))
        V[:, 2] = 3.0 * V[:, 0] - V[:, 1]
        Q, kept = orthonormalize(V)
        assert Q.shape[1] == 4
        assert 2 not in kept

    def test_zero_column_dropped(self, rng):
        V = rng.standard_normal((8, 3))
        V[:, 1] = 0.0
        Q, kept = orthonormalize(V)
        assert Q.shape[1] == 2
        assert list(kept) == [0, 2]

    def test_all_zero_input(self):
        Q, kept = orthonormalize(np.zeros((5, 3)))
        assert Q.shape == (5, 0)
        assert kept.size == 0

    def test_nearly_dependent_stays_orthonormal(self, rng):
        # classical GS fails here; modified GS + reorthogonalization holds
        base = rng.standard_normal(50)
        V = np.column_stack(
            [base + 1e-9 * rng.standard_normal(50) for _ in range(4)]
            + [rng.standard_normal(50)]
        )
        Q, _ = orthonormalize(V)
        assert orthonormality_error(Q) < 1e-10

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            orthonormalize(np.ones(4))


class TestOrthogonalizeAgainst:
    def test_result_is_orthogonal(self, rng):
        basis, _ = orthonormalize(rng.standard_normal((20, 5)))
        v = rng.standard_normal(20)
        out = orthogonalize_against(v, basis)
        assert np.abs(basis.T @ out).max() < 1e-12

    def test_input_unchanged(self, rng):
        basis, _ = orthonormalize(rng.standard_normal((10, 2)))
        v = rng.standard_normal(10)
        v_copy = v.copy()
        orthogonalize_against(v, basis)
        assert np.array_equal(v, v_copy)

    def test_dimension_mismatch(self, rng):
        basis, _ = orthonormalize(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            orthogonalize_against(np.ones(9), basis)


class TestGramSchmidtQR:
    def test_factorization(self, rng):
        A = rng.standard_normal((12, 5))
        Q, R, kept = gram_schmidt_qr(A)
        assert np.allclose(Q @ R, A, atol=1e-10)
        assert orthonormality_error(Q) < 1e-12
        assert np.array_equal(kept, np.arange(5))

    def test_r_is_upper_triangular(self, rng):
        A = rng.standard_normal((9, 4))
        _, R, _ = gram_schmidt_qr(A)
        assert np.allclose(R, np.triu(R))

    def test_rank_deficient(self, rng):
        A = rng.standard_normal((10, 4))
        A[:, 3] = A[:, 0] + A[:, 1]
        Q, R, kept = gram_schmidt_qr(A)
        assert Q.shape[1] == 3
        assert 3 not in kept
        assert np.allclose(Q @ R, A, atol=1e-8)

    def test_zero_matrix(self):
        Q, R, kept = gram_schmidt_qr(np.zeros((6, 2)))
        assert Q.shape == (6, 0)
        assert kept.size == 0

    def test_matches_numpy_qr_span(self, rng):
        A = rng.standard_normal((8, 3))
        Q, _, _ = gram_schmidt_qr(A)
        Q_np, _ = np.linalg.qr(A)
        # same subspace: projection operators agree
        assert np.allclose(Q @ Q.T, Q_np @ Q_np.T, atol=1e-10)
