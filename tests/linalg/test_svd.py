"""Unit tests for the cross-product SVD (§II-B trick)."""

import numpy as np
import pytest

from repro.linalg.svd import cross_product_svd


def svd_rank(X):
    """The number of singular values ``cross_product_svd`` keeps."""
    return cross_product_svd(X)[1].shape[0]


class TestReconstruction:
    @pytest.mark.parametrize("shape", [(20, 7), (7, 20), (10, 10), (1, 5), (5, 1)])
    def test_reconstruction(self, rng, shape):
        X = rng.standard_normal(shape)
        U, s, V = cross_product_svd(X)
        assert np.allclose((U * s) @ V.T, X, atol=1e-8)

    @pytest.mark.parametrize("shape", [(20, 7), (7, 20)])
    def test_orthonormal_factors(self, rng, shape):
        X = rng.standard_normal(shape)
        U, s, V = cross_product_svd(X)
        r = s.shape[0]
        assert np.allclose(U.T @ U, np.eye(r), atol=1e-8)
        assert np.allclose(V.T @ V, np.eye(r), atol=1e-8)

    def test_singular_values_descending(self, rng):
        X = rng.standard_normal((15, 9))
        _, s, _ = cross_product_svd(X)
        assert np.all(np.diff(s) <= 1e-12)

    def test_matches_numpy_svd_values(self, rng):
        X = rng.standard_normal((12, 8))
        _, s, _ = cross_product_svd(X)
        s_np = np.linalg.svd(X, compute_uv=False)
        assert np.allclose(np.sort(s)[::-1], s_np[: len(s)], atol=1e-8)

    def test_empty_matrix(self):
        U, s, V = cross_product_svd(np.empty((0, 4)))
        assert U.shape == (0, 0) and s.shape == (0,) and V.shape == (4, 0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            cross_product_svd(np.ones(5))


class TestRank:
    def test_exact_low_rank(self, rng):
        X = rng.standard_normal((25, 6)) @ rng.standard_normal((6, 18))
        assert svd_rank(X) == 6

    def test_centered_matrix_loses_rank(self, rng):
        # centering a wide (m < n) full-rank matrix drops rank to m-1
        X = rng.standard_normal((7, 30))
        centered = X - X.mean(axis=0)
        assert svd_rank(centered) == 6

    def test_zero_matrix_rank_zero(self):
        assert svd_rank(np.zeros((4, 5))) == 0

    def test_rank_one(self, rng):
        u = rng.standard_normal(10)
        v = rng.standard_normal(6)
        assert svd_rank(np.outer(u, v)) == 1
