"""Unit tests for dense helpers (products, eig, ridge oracle, gen-eig)."""

import numpy as np
import pytest

from repro.linalg.dense import (
    dense_matmul,
    generalized_eigh,
    is_orthonormal,
    ridge_solution,
    solve_lstsq,
    symmetric_eigh,
)


class TestDenseMatmul:
    """``dense_matmul`` equals ``A @ B``; float64 comes back F-ordered,
    float32 byte-identical."""

    @pytest.mark.parametrize("adjoint", [False, True], ids=["AB", "ATU"])
    @pytest.mark.parametrize("k", [None, 1, 2, 67], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize(
        "a_dtype, b_dtype, order",
        [
            (np.float64, np.float64, "C"),
            (np.float64, np.float64, "F"),
            (np.float32, np.float32, "C"),
            (np.float32, np.float64, "C"),
            (np.float64, np.float32, "F"),
        ],
        ids=["f64-C", "f64-F", "f32", "f32xf64", "f64xf32"],
    )
    def test_matches_plain_product(
        self, rng, a_dtype, b_dtype, order, k, adjoint
    ):
        X = np.asarray(rng.standard_normal((120, 50)), a_dtype, order=order)
        A = X.T if adjoint else X
        shape = (A.shape[1],) if k is None else (A.shape[1], k)
        B = rng.standard_normal(shape).astype(b_dtype)
        expected = A @ B
        result = dense_matmul(A, B)
        assert result.dtype == np.result_type(A, B) == expected.dtype
        assert result.shape == expected.shape
        if result.dtype == np.float32:
            assert result.tobytes() == expected.tobytes()
            return
        scale = np.abs(expected).max()
        assert np.abs(result - expected).max() <= 1e-12 * scale
        if result.ndim == 2:
            assert result.flags.f_contiguous


class TestSymmetricEigh:
    def test_descending_order(self, rng):
        A = rng.standard_normal((8, 8))
        A = A + A.T
        eigvals, _ = symmetric_eigh(A)
        assert np.all(np.diff(eigvals) <= 1e-12)

    def test_eigen_equation(self, rng):
        A = rng.standard_normal((10, 10))
        A = A + A.T
        eigvals, eigvecs = symmetric_eigh(A)
        assert np.allclose(A @ eigvecs, eigvecs * eigvals, atol=1e-8)

    def test_symmetrizes_input(self, rng):
        A = rng.standard_normal((6, 6))
        sym = 0.5 * (A + A.T)
        vals_raw, _ = symmetric_eigh(A)
        vals_sym, _ = symmetric_eigh(sym)
        assert np.allclose(vals_raw, vals_sym)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigh(np.ones((3, 4)))


class TestLeastSquares:
    def test_solve_lstsq(self, rng):
        A = rng.standard_normal((20, 6))
        b = rng.standard_normal(20)
        x = solve_lstsq(A, b)
        # optimality: residual orthogonal to the column space
        assert np.abs(A.T @ (A @ x - b)).max() < 1e-10

    def test_ridge_solution_limits(self, rng):
        A = rng.standard_normal((25, 8))
        b = rng.standard_normal(25)
        tiny = ridge_solution(A, b, 1e-12)
        assert np.allclose(tiny, solve_lstsq(A, b), atol=1e-6)
        huge = ridge_solution(A, b, 1e12)
        assert np.linalg.norm(huge) < 1e-9

    def test_ridge_shrinks_norm(self, rng):
        A = rng.standard_normal((25, 8))
        b = rng.standard_normal(25)
        norms = [
            np.linalg.norm(ridge_solution(A, b, alpha))
            for alpha in (0.01, 1.0, 100.0)
        ]
        assert norms[0] > norms[1] > norms[2]


class TestGeneralizedEigh:
    def test_reduces_to_standard_with_identity(self, rng):
        B = rng.standard_normal((7, 7))
        B = B + B.T
        vals_gen, vecs_gen = generalized_eigh(B, np.eye(7))
        vals_std, _ = symmetric_eigh(B)
        assert np.allclose(vals_gen, vals_std, atol=1e-9)
        assert np.allclose(B @ vecs_gen, vecs_gen * vals_gen, atol=1e-8)

    def test_generalized_equation(self, rng):
        B = rng.standard_normal((6, 6))
        B = B + B.T
        A = rng.standard_normal((6, 6))
        A = A @ A.T + 6.0 * np.eye(6)
        eigvals, eigvecs = generalized_eigh(B, A)
        assert np.allclose(B @ eigvecs, (A @ eigvecs) * eigvals, atol=1e-7)

    def test_regularization_allows_singular_a(self, rng):
        B = np.eye(5)
        A = np.zeros((5, 5))  # singular; needs the shift
        eigvals, _ = generalized_eigh(B, A, regularization=2.0)
        assert np.allclose(eigvals, 0.5)  # B v = λ (2 I) v → λ = 1/2


class TestIsOrthonormal:
    def test_accepts_identity_columns(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        assert is_orthonormal(Q)

    def test_rejects_scaled(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        assert not is_orthonormal(2.0 * Q)

    def test_empty_is_orthonormal(self):
        assert is_orthonormal(np.empty((5, 0)))


class TestRidgeCholeskyPath:
    """ridge_solution factors the shifted Gram matrix once with the
    repo's Cholesky and reuses the factor across right-hand sides."""

    def test_matches_direct_solve(self, rng):
        A = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        alpha = 0.7
        expected = np.linalg.solve(
            A.T @ A + alpha * np.eye(10), A.T @ b
        )
        assert np.allclose(ridge_solution(A, b, alpha), expected, atol=1e-10)

    def test_matrix_rhs_matches_column_loop(self, rng):
        A = rng.standard_normal((30, 10))
        B = rng.standard_normal((30, 4))
        together = ridge_solution(A, B, 0.5)
        assert together.shape == (10, 4)
        for j in range(4):
            assert np.allclose(
                together[:, j], ridge_solution(A, B[:, j], 0.5), atol=1e-12
            )

    def test_singular_gram_falls_back_to_lstsq(self, rng):
        # rank-deficient A with alpha=0: the Gram matrix is singular,
        # Cholesky must fail, and the minimum-norm solution comes back
        A = rng.standard_normal((20, 6))
        A[:, 3] = A[:, 0] + A[:, 1]  # exact linear dependence
        b = rng.standard_normal(20)
        x = ridge_solution(A, b, 0.0)
        assert np.all(np.isfinite(x))
        # optimality of the least-squares fit
        assert np.abs(A.T @ (A @ x - b)).max() < 1e-8
