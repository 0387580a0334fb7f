"""Unit tests for the from-scratch LSQR on one right-hand side.

A 1-D ``b`` is a one-column block of :func:`repro.linalg.block_lsqr`;
these tests check that column's solutions, stopping rules, telemetry and
input errors.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import lsqr as scipy_lsqr

from repro.linalg.block_lsqr import ISTOP_REASONS, LSQRResult, block_lsqr
from repro.linalg.operators import as_operator
from repro.linalg.sparse import CSRMatrix


def solve(A, b, x0=None, **kwargs):
    """LSQR on a 1-D ``b`` (and ``x0``), as the one column's result."""
    return block_lsqr(A, b, X0=x0, **kwargs).column(0)


class TestExactSolutions:
    def test_square_nonsingular(self, rng):
        A = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
        x_true = rng.standard_normal(12)
        result = solve(A, A @ x_true, atol=1e-13, btol=1e-13, iter_lim=500)
        assert np.allclose(result.x, x_true, atol=1e-7)

    def test_overdetermined_matches_lstsq(self, rng):
        A = rng.standard_normal((40, 12))
        b = rng.standard_normal(40)
        result = solve(A, b, atol=1e-13, btol=1e-13, iter_lim=500)
        expected = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(result.x, expected, atol=1e-8)

    def test_underdetermined_minimum_norm(self, rng):
        A = rng.standard_normal((8, 25))
        b = rng.standard_normal(8)
        result = solve(A, b, atol=1e-13, btol=1e-13, iter_lim=500)
        expected = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(result.x, expected, atol=1e-8)

    def test_damped_matches_ridge(self, rng):
        A = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        alpha = 0.8
        result = solve(
            A, b, damp=np.sqrt(alpha), atol=1e-13, btol=1e-13, iter_lim=500
        )
        ridge = np.linalg.solve(A.T @ A + alpha * np.eye(10), A.T @ b)
        assert np.allclose(result.x, ridge, atol=1e-8)

    def test_matches_scipy_lsqr(self, rng):
        A = rng.standard_normal((25, 10))
        b = rng.standard_normal(25)
        ours = solve(A, b, damp=0.5, atol=1e-12, btol=1e-12, iter_lim=500)
        theirs = scipy_lsqr(A, b, damp=0.5, atol=1e-12, btol=1e-12)[0]
        assert np.allclose(ours.x, theirs, atol=1e-7)

    def test_zero_rhs_returns_zero(self, rng):
        A = rng.standard_normal((10, 4))
        result = solve(A, np.zeros(10))
        assert np.array_equal(result.x, np.zeros(4))
        assert result.itn == 0


class TestSparseAndOperators:
    def test_sparse_equals_dense(self, rng):
        dense = rng.standard_normal((30, 15))
        dense[rng.random((30, 15)) < 0.6] = 0.0
        b = rng.standard_normal(30)
        from_dense = solve(dense, b, atol=1e-13, btol=1e-13, iter_lim=500)
        from_sparse = solve(
            CSRMatrix.from_dense(dense), b, atol=1e-13, btol=1e-13,
            iter_lim=500,
        )
        assert np.allclose(from_dense.x, from_sparse.x, atol=1e-9)

    def test_operator_input(self, rng):
        A = rng.standard_normal((20, 8))
        b = rng.standard_normal(20)
        result = solve(as_operator(A), b, atol=1e-13, btol=1e-13, iter_lim=300)
        expected = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(result.x, expected, atol=1e-8)

    def test_product_count_is_two_per_iteration(self, rng):
        A = as_operator(rng.standard_normal((20, 8)))
        result = solve(A, rng.standard_normal(20), iter_lim=7, atol=0, btol=0)
        # one product + one adjoint per iteration, plus one adjoint setup
        assert A.n_matmat == result.itn
        assert A.n_rmatmat == result.itn + 1


class TestStoppingAndTelemetry:
    def test_iteration_limit_respected(self, rng):
        A = rng.standard_normal((50, 30))
        result = solve(A, rng.standard_normal(50), iter_lim=5, atol=0, btol=0)
        assert result.itn == 5
        assert result.istop == 7

    def test_conlim_stops_on_the_condition_estimate(self, rng):
        A = rng.standard_normal((40, 12)) * np.logspace(0, 4, 12)
        b = rng.standard_normal(40)
        kwargs = dict(atol=0.0, btol=0.0, conlim=10.0, iter_lim=100)
        result = solve(A, b, **kwargs)
        assert result.istop == 3
        assert result.acond >= 10.0
        assert result.stop_reason == ISTOP_REASONS[3]
        # scipy's LSQR stops on the same test at the same iteration
        ref = scipy_lsqr(A, b, **kwargs)
        assert (ref[1], ref[2]) == (result.istop, result.itn)

    def test_converged_istop(self, rng):
        A = rng.standard_normal((20, 5))
        x_true = rng.standard_normal(5)
        result = solve(A, A @ x_true, atol=1e-10, btol=1e-10, iter_lim=200)
        assert result.istop in (1, 2)

    def test_residual_history(self, rng):
        A = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        result = solve(A, b, iter_lim=15, atol=0, btol=0, record_history=True)
        assert len(result.residual_history) == result.itn
        # residuals are non-increasing (LSQR is monotone in r2norm)
        history = np.asarray(result.residual_history)
        assert np.all(np.diff(history) <= 1e-10)

    def test_history_off_by_default(self, rng):
        A = rng.standard_normal((10, 4))
        result = solve(A, rng.standard_normal(10), iter_lim=5)
        assert result.residual_history == []

    def test_result_fields_finite(self, rng):
        A = rng.standard_normal((15, 6))
        result = solve(A, rng.standard_normal(15), iter_lim=50)
        assert isinstance(result, LSQRResult)
        for name in ("r1norm", "r2norm", "anorm", "acond", "arnorm", "xnorm"):
            assert np.isfinite(getattr(result, name)), name

    def test_warm_start_converges_faster(self, rng):
        A = rng.standard_normal((60, 20))
        b = rng.standard_normal(60)
        cold = solve(A, b, atol=1e-10, btol=1e-10, iter_lim=500)
        warm = solve(A, b, x0=cold.x, atol=1e-10, btol=1e-10, iter_lim=500)
        assert warm.itn <= cold.itn
        assert np.allclose(warm.x, cold.x, atol=1e-6)


class TestValidation:
    def test_wrong_b_length(self, rng):
        with pytest.raises(ValueError):
            solve(rng.standard_normal((5, 3)), np.ones(6))

    def test_negative_damp(self, rng):
        with pytest.raises(ValueError):
            solve(rng.standard_normal((5, 3)), np.ones(5), damp=-1.0)

    def test_wrong_x0_length(self, rng):
        with pytest.raises(ValueError):
            solve(rng.standard_normal((5, 3)), np.ones(5), x0=np.ones(4))
