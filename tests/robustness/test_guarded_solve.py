"""The guarded solver chain: Cholesky → jittered retries → LSQR rescue."""

import tracemalloc

import numpy as np
import pytest

from repro.linalg.cholesky import NotPositiveDefiniteError, cholesky
from repro.robustness import (
    FitReport,
    GuardedSolveResult,
    SolverFailure,
    estimate_condition,
    guarded_solve,
)

pytestmark = pytest.mark.robustness


def _spd(rng, n, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, cond, n)
    return Q @ np.diag(eigs) @ Q.T


def _singular_gram(rng, n, rank):
    """Exactly rank-deficient PSD matrix (Gram of `rank` columns)."""
    B = rng.standard_normal((n, rank))
    return B @ B.T


class TestCleanPath:
    def test_spd_solve_matches_numpy(self, rng):
        A = _spd(rng, 12)
        b = rng.standard_normal(12)
        result = guarded_solve(A, b)
        assert result.solver == "cholesky"
        assert result.fallbacks == []
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), rtol=1e-8)

    def test_alpha_added_on_diagonal(self, rng):
        A = _spd(rng, 8)
        b = rng.standard_normal(8)
        result = guarded_solve(A, b, alpha=2.5)
        expected = np.linalg.solve(A + 2.5 * np.eye(8), b)
        np.testing.assert_allclose(result.x, expected, rtol=1e-8)
        assert result.effective_alpha == 2.5

    def test_matrix_rhs(self, rng):
        A = _spd(rng, 10)
        B = rng.standard_normal((10, 3))
        result = guarded_solve(A, B, alpha=0.1)
        assert result.x.shape == (10, 3)

    def test_condition_estimate_reasonable(self, rng):
        A = _spd(rng, 20, cond=100.0)
        result = guarded_solve(A, rng.standard_normal(20))
        true_cond = np.linalg.cond(A)
        assert 0.1 * true_cond <= result.condition_estimate <= 10 * true_cond


class TestFallbackChain:
    def test_singular_gram_triggers_jitter(self, rng):
        G = _singular_gram(rng, 10, rank=4)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(G)  # the raw factorization really does break
        result = guarded_solve(G, rng.standard_normal(10), alpha=0.0)
        assert result.solver in ("cholesky+jitter", "lsqr-rescue")
        assert result.fallbacks  # the breakdown was recorded
        assert "cholesky failed" in result.fallbacks[0]
        assert np.all(np.isfinite(result.x))

    def test_jitter_solution_solves_consistent_system(self, rng):
        """The jittered solve nails the range space (the part that
        affects predictions); any null-space component is roundoff noise
        the chain does not promise to remove — only the LSQR rescue
        returns the min-norm solution."""
        G = _singular_gram(rng, 8, rank=5)
        b = G @ rng.standard_normal(8)  # consistent system
        result = guarded_solve(G, b, alpha=0.0)
        residual = np.linalg.norm(G @ result.x - b) / np.linalg.norm(b)
        assert residual < 1e-8
        expected, *_ = np.linalg.lstsq(G, b, rcond=None)
        U, s, Vt = np.linalg.svd(G)
        range_basis = Vt[:5]
        np.testing.assert_allclose(
            range_basis @ result.x, range_basis @ expected, atol=1e-8
        )

    def test_effective_alpha_escalates_from_base(self, rng):
        G = _singular_gram(rng, 10, rank=3)
        result = guarded_solve(G, rng.standard_normal(10), alpha=0.0)
        if result.solver == "cholesky+jitter":
            assert result.effective_alpha > 0.0

    def test_merges_into_fit_report(self, rng):
        G = _singular_gram(rng, 10, rank=4)
        report = FitReport()
        guarded_solve(G, rng.standard_normal(10), alpha=0.0, report=report)
        assert report.solver in ("cholesky+jitter", "lsqr-rescue")
        assert report.fallbacks
        assert report.effective_alpha is not None
        assert report.condition_estimate is not None
        assert report.degraded

    def test_lsqr_rescue_when_jitter_disabled(self, rng):
        G = _singular_gram(rng, 8, rank=4)
        b = G @ rng.standard_normal(8)
        result = guarded_solve(G, b, alpha=0.0, max_jitter_retries=0)
        assert result.solver == "lsqr-rescue"
        assert result.lsqr_istop is not None
        assert len(result.lsqr_istop) == 1
        assert result.lsqr_iterations is not None
        expected, *_ = np.linalg.lstsq(G, b, rcond=None)
        np.testing.assert_allclose(result.x, expected, atol=1e-5)

    def test_rescue_records_per_column_diagnostics(self, rng):
        G = _singular_gram(rng, 8, rank=4)
        B = G @ rng.standard_normal((8, 3))
        result = guarded_solve(G, B, alpha=0.0, max_jitter_retries=0)
        assert len(result.lsqr_istop) == 3
        assert len(result.lsqr_residuals) == 3

    def test_non_finite_input_raises_solver_failure(self, rng):
        G = np.full((4, 4), np.nan)
        with pytest.raises(SolverFailure) as excinfo:
            guarded_solve(G, np.ones(4))
        assert excinfo.value.attempts  # the full attempt log is attached

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pivot_exhausts_the_chain(self, rng, bad):
        # One poisoned diagonal entry: every Cholesky rung must refuse
        # the same minor, then the rescue fails on the poisoned system.
        G = _spd(rng, 6)
        G[2, 2] = bad
        with pytest.raises(SolverFailure) as excinfo:
            guarded_solve(G, np.ones(6), alpha=0.1)
        attempts = excinfo.value.attempts
        assert len(attempts) == 8
        assert all("leading minor 3 " in step for step in attempts[:7])
        assert attempts[0].startswith("cholesky failed")
        assert attempts[-1].startswith("lsqr rescue")


class TestOneCopy:
    """``gram`` is only read, and each attempt holds one copy of it."""

    @pytest.mark.parametrize(
        "case", ["cholesky", "jitter-retry", "lsqr-rescue", "rescue-alpha"]
    )
    def test_gram_is_left_byte_identical(self, rng, case):
        if case == "cholesky":
            G, alpha, retries = _spd(rng, 12), 0.5, 6
        elif case == "rescue-alpha":
            # indefinite: the rescue shifts its own copy by alpha
            G, alpha, retries = _spd(rng, 12) - 5.0 * np.eye(12), 1e-3, 0
        else:
            G, alpha = _singular_gram(rng, 12, rank=4), 0.0
            retries = 6 if case == "jitter-retry" else 0
        before = G.tobytes()
        result = guarded_solve(
            G, rng.standard_normal((12, 2)), alpha=alpha,
            max_jitter_retries=retries,
        )
        expected = {
            "cholesky": "cholesky",
            "jitter-retry": "cholesky+jitter",
            "lsqr-rescue": "lsqr-rescue",
            "rescue-alpha": "lsqr-rescue",
        }[case]
        assert result.solver == expected
        assert G.tobytes() == before

    def test_condition_estimate_of_the_shifted_system(self, rng):
        # Estimated from ``gram`` and the shift, never a shifted copy.
        A = _spd(rng, 20, cond=100.0)
        result = guarded_solve(A, rng.standard_normal(20), alpha=3.0)
        shifted = A + 3.0 * np.eye(20)
        assert result.condition_estimate == pytest.approx(
            estimate_condition(shifted, cholesky(shifted)), rel=1e-10
        )

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_peak_memory_is_one_copy(self, rng, order):
        B = rng.standard_normal((400, 400))
        G = np.array(B @ B.T + 400.0 * np.eye(400), order=order)
        b = rng.standard_normal((400, 3))
        guarded_solve(G, b, alpha=1.0)  # scipy's lazy imports first
        tracemalloc.start()
        try:
            result = guarded_solve(G, b, alpha=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.solver == "cholesky"
        assert peak <= 1.25 * G.nbytes


class TestConditionEstimate:
    def test_identity_is_one(self):
        eye = np.eye(6)
        L = cholesky(eye)
        assert estimate_condition(eye, L) == pytest.approx(1.0, rel=1e-6)

    def test_without_factor_is_inf(self, rng):
        assert estimate_condition(_spd(rng, 5)) == float("inf")

    def test_empty_matrix(self):
        assert estimate_condition(np.zeros((0, 0))) == 1.0
