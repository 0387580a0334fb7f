"""Unit tests for dense helpers (products, eig, ridge oracle, gen-eig)."""

import numpy as np
import pytest

from repro.linalg.dense import (
    GRAM_BLOCK_BYTES,
    dense_matmul,
    generalized_eigh,
    normal_gram,
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


#: Features of the blocked-Gram fixtures: 256-row blocks centered.
GRAM_N = 1024


def _block_rows(width):
    return GRAM_BLOCK_BYTES // (8 * width)


def _layout(X, layout):
    """``X`` as a C-ordered, Fortran-ordered or strided-view input."""
    if layout == "C":
        return np.ascontiguousarray(X)
    if layout == "F":
        return np.asfortranarray(X)
    padded = np.zeros((X.shape[0], 2 * X.shape[1]))
    padded[:, ::2] = X
    return padded[:, ::2]


def _assert_close_to_largest(actual, expected):
    atol = 1e-13 * np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)


class TestNormalGram:
    """The row-blocked Gram equals the one formed from explicit ``X̄``."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("rows", ["1", "B-1", "B", "B+1", "3B+7"])
    def test_centered_matches_explicit(self, rng, rows, layout):
        B = _block_rows(GRAM_N)
        m = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "3B+7": 3 * B + 7}
        X = _layout(
            rng.standard_normal((m[rows], GRAM_N)) + 3.0, layout
        )
        T = rng.standard_normal((m[rows], 4))
        mean = X.mean(axis=0)
        centered = X - mean
        gram, rhs = normal_gram(X, T, mean)
        assert gram.flags.f_contiguous
        np.testing.assert_array_equal(gram, gram.T)
        _assert_close_to_largest(gram, centered.T @ centered)
        _assert_close_to_largest(rhs, centered.T @ T)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("rows", ["1", "B-1", "B", "B+1", "3B+7"])
    def test_bordered_matches_explicit(self, rng, rows, layout):
        B = _block_rows(GRAM_N + 1)
        m = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "3B+7": 3 * B + 7}
        X = _layout(rng.standard_normal((m[rows], GRAM_N)), layout)
        T = rng.standard_normal((m[rows], 4))
        augmented = np.hstack([X, np.ones((m[rows], 1))])
        gram, rhs = normal_gram(X, T)
        assert gram.shape == (GRAM_N + 1, GRAM_N + 1)
        np.testing.assert_array_equal(gram, gram.T)
        assert gram[-1, -1] == m[rows]
        _assert_close_to_largest(gram, augmented.T @ augmented)
        _assert_close_to_largest(rhs, augmented.T @ T)

    def test_input_is_not_written(self, rng):
        X = rng.standard_normal((600, 300))
        T = rng.standard_normal((600, 3))
        before = (X.copy(), T.copy())
        normal_gram(X, T, X.mean(axis=0))
        normal_gram(X, T)
        np.testing.assert_array_equal(X, before[0])
        np.testing.assert_array_equal(T, before[1])

    def test_zero_variance_count_matches_explicit_rule(self, rng):
        # Constant columns, one of them a value whose mean is inexact,
        # plus a near-constant column that must not count.
        X = rng.standard_normal((3 * _block_rows(64) + 7, 64))
        X[:, 3] = 0.1
        X[:, 17] = -2.5
        X[:, 40] = 7.0
        X[0, 41] = X[1, 41] + 1e-12
        mean = X.mean(axis=0)
        gram, _ = normal_gram(X, np.ones((X.shape[0], 1)), mean)
        explicit = int(np.sum(~(X - mean).any(axis=0)))
        assert explicit >= 2  # 7.0 and -2.5 average exactly
        assert int(np.sum(np.diagonal(gram) == 0)) == explicit


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
