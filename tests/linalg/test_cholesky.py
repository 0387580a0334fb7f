"""Unit tests for the Cholesky factorization and triangular solves."""

import numpy as np
import pytest

from repro.linalg.cholesky import (
    NotPositiveDefiniteError,
    cholesky,
    solve_cholesky,
    solve_factored,
    solve_triangular,
)


def spd_matrix(rng, n, condition=10.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + condition * np.eye(n)


class TestCholesky:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 65, 130])
    def test_factorization_sizes(self, rng, n):
        A = spd_matrix(rng, n)
        L = cholesky(A)
        assert np.allclose(L @ L.T, A, atol=1e-8 * n)

    def test_factor_is_lower_triangular(self, rng):
        L = cholesky(spd_matrix(rng, 20))
        assert np.allclose(L, np.tril(L))

    def test_matches_numpy(self, rng):
        A = spd_matrix(rng, 30)
        assert np.allclose(cholesky(A), np.linalg.cholesky(A), atol=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 16, 200])
    def test_size_sweep_matches_numpy(self, rng, n):
        A = spd_matrix(rng, n)
        assert np.allclose(cholesky(A), np.linalg.cholesky(A), atol=1e-9)

    def test_rejects_indefinite(self, rng):
        A = spd_matrix(rng, 10)
        A -= 100.0 * np.eye(10)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_pivot(self, rng, bad):
        # LAPACK's dpotrf reports success on a NaN or infinite pivot;
        # the factor must still be refused, naming the minor it hit.
        A = spd_matrix(rng, 6)
        A[2, 2] = bad
        with pytest.raises(NotPositiveDefiniteError, match="leading minor 3 "):
            cholesky(A)

    def test_names_the_failing_minor(self, rng):
        A = spd_matrix(rng, 6)
        A[4, 4] = -100.0
        with pytest.raises(NotPositiveDefiniteError, match="leading minor 5 "):
            cholesky(A)

    def test_rejects_negative_identity(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(-np.eye(4))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            cholesky(np.ones((3, 4)))

    def test_only_lower_triangle_read(self, rng):
        A = spd_matrix(rng, 12)
        corrupted = A.copy()
        corrupted[np.triu_indices(12, 1)] = 999.0
        assert np.allclose(cholesky(corrupted), cholesky(A))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_is_not_written(self, rng, order):
        A = np.array(spd_matrix(rng, 30), order=order)
        before = A.copy(order="A")
        L = cholesky(A)
        assert not np.shares_memory(L, A)
        assert A.flags[f"{order}_CONTIGUOUS"]
        np.testing.assert_array_equal(A, before)

    def test_failed_factorization_leaves_input(self, rng):
        A = -spd_matrix(rng, 12)
        before = A.copy()
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(A)
        np.testing.assert_array_equal(A, before)

    def test_diagonal_matrix(self):
        d = np.array([4.0, 9.0, 16.0])
        assert np.allclose(cholesky(np.diag(d)), np.diag(np.sqrt(d)))


class TestTriangularSolve:
    def test_lower_vector(self, rng):
        L = np.tril(rng.standard_normal((15, 15))) + 5.0 * np.eye(15)
        b = rng.standard_normal(15)
        assert np.allclose(L @ solve_triangular(L, b, lower=True), b)

    def test_upper_vector(self, rng):
        U = np.triu(rng.standard_normal((15, 15))) + 5.0 * np.eye(15)
        b = rng.standard_normal(15)
        assert np.allclose(U @ solve_triangular(U, b, lower=False), b)

    @pytest.mark.parametrize("n", [3, 64, 100])
    def test_matrix_rhs(self, rng, n):
        L = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        B = rng.standard_normal((n, 4))
        assert np.allclose(L @ solve_triangular(L, B, lower=True), B)
        U = L.T
        assert np.allclose(U @ solve_triangular(U, B, lower=False), B)

    def test_vector_shape_preserved(self, rng):
        L = np.eye(5)
        out = solve_triangular(L, np.ones(5), lower=True)
        assert out.shape == (5,)

    def test_singular_raises(self):
        L = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            solve_triangular(L, np.ones(3), lower=True)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            solve_triangular(np.ones((3, 4)), np.ones(3))


class TestSolve:
    @pytest.mark.parametrize("n", [2, 20, 90])
    def test_solve_cholesky(self, rng, n):
        A = spd_matrix(rng, n)
        b = rng.standard_normal(n)
        assert np.allclose(solve_cholesky(A, b), np.linalg.solve(A, b))

    def test_solve_factored_reuse(self, rng):
        A = spd_matrix(rng, 25)
        L = cholesky(A)
        for _ in range(3):
            b = rng.standard_normal(25)
            assert np.allclose(solve_factored(L, b), np.linalg.solve(A, b))

    def test_solve_matrix_rhs(self, rng):
        A = spd_matrix(rng, 18)
        B = rng.standard_normal((18, 5))
        assert np.allclose(solve_cholesky(A, B), np.linalg.solve(A, B))

    def test_ill_conditioned_still_accurate(self, rng):
        # condition number ~1e6: solution should hold to ~1e-9 relative
        U, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        A = U @ np.diag(np.logspace(0, 6, 30)) @ U.T
        A = 0.5 * (A + A.T)
        x_true = rng.standard_normal(30)
        b = A @ x_true
        x = solve_cholesky(A, b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-8
