"""Unit tests for the from-scratch Lanczos eigensolver."""

import numpy as np
import pytest

from repro.linalg.eigen import lanczos_eigsh
from repro.linalg.operators import as_operator
from repro.linalg.sparse import CSRMatrix


def symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return A + A.T


class TestLanczos:
    def test_leading_pairs_match_numpy(self, rng):
        B = rng.standard_normal((120, 30))
        S = B @ B.T
        w, V = lanczos_eigsh(S, k=6, seed=1)
        w_ref = np.sort(np.linalg.eigvalsh(S))[::-1][:6]
        assert np.allclose(w, w_ref, rtol=1e-7)
        for i in range(6):
            residual = np.linalg.norm(S @ V[:, i] - w[i] * V[:, i])
            assert residual < 1e-6 * max(1.0, w[0])

    def test_indefinite_matrix(self, rng):
        A = symmetric(rng, 50)
        w, V = lanczos_eigsh(A, k=3, seed=2, max_iter=50)
        w_ref = np.sort(np.linalg.eigvalsh(A))[::-1][:3]
        assert np.allclose(w, w_ref, atol=1e-6)

    def test_eigenvectors_orthonormal(self, rng):
        B = rng.standard_normal((80, 20))
        _, V = lanczos_eigsh(B @ B.T, k=5, seed=3)
        assert np.allclose(V.T @ V, np.eye(5), atol=1e-8)

    def test_operator_input(self, rng):
        B = rng.standard_normal((60, 15))
        S = B @ B.T
        w_dense, _ = lanczos_eigsh(S, k=3, seed=4)
        w_op, _ = lanczos_eigsh(as_operator(S), k=3, seed=4)
        assert np.allclose(w_dense, w_op)

    def test_sparse_operator(self, rng):
        dense = rng.standard_normal((40, 40))
        dense[np.abs(dense) < 1.0] = 0.0
        S = dense + dense.T + 40 * np.eye(40)
        w, _ = lanczos_eigsh(CSRMatrix.from_dense(S), k=2, seed=5)
        w_ref = np.sort(np.linalg.eigvalsh(S))[::-1][:2]
        assert np.allclose(w, w_ref, atol=1e-6)

    def test_k_equals_m(self, rng):
        A = symmetric(rng, 8)
        w, _ = lanczos_eigsh(A, k=8, seed=6, max_iter=8)
        w_ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(w, w_ref, atol=1e-7)

    def test_validation(self, rng):
        A = symmetric(rng, 5)
        with pytest.raises(ValueError):
            lanczos_eigsh(A, k=0)
        with pytest.raises(ValueError):
            lanczos_eigsh(A, k=6)
        with pytest.raises(ValueError):
            lanczos_eigsh(np.ones((3, 4)), k=1)

    def test_projection_matrix_spectrum(self, rng):
        """Eigenvalues of the LDA graph matrix W: exactly c ones."""
        from repro.core.graph import lda_weight_matrix

        y = rng.integers(0, 4, 30)
        y[:4] = np.arange(4)
        W = lda_weight_matrix(y, 4)
        w, _ = lanczos_eigsh(W, k=5, seed=7, max_iter=30)
        assert np.allclose(w[:4], 1.0, atol=1e-8)
        assert abs(w[4]) < 1e-8
