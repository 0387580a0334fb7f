"""Fault-injected mat-vecs: LSQR must flag failure, never return garbage."""

import numpy as np
import pytest

from repro.core import srda as srda_module
from repro.core.solver_config import SolverConfig
from repro.core.srda import SRDA
from repro.linalg.block_lsqr import FAILURE_ISTOPS, ISTOP_REASONS, block_lsqr
from repro.linalg.operators import (
    DenseOperator,
    FaultyOperator,
    InjectedFaultError,
)
from repro.robustness import RobustnessWarning

pytestmark = pytest.mark.robustness


@pytest.fixture
def system(rng):
    A = rng.standard_normal((40, 12))
    x_true = rng.standard_normal(12)
    return A, A @ x_true


class TestFaultyOperator:
    def test_clean_passthrough(self, rng, system):
        A, b = system
        op = FaultyOperator(DenseOperator(A))  # no schedule → no faults
        np.testing.assert_array_equal(op.matvec(np.ones(12)), A @ np.ones(12))
        assert op.n_faults_injected == 0

    def test_nan_injection_on_schedule(self, rng, system):
        A, _ = system
        op = FaultyOperator(DenseOperator(A), fail_at={1})
        first = op.matvec(np.ones(12))
        second = op.matvec(np.ones(12))
        assert np.all(np.isfinite(first))
        assert np.isnan(second[0])
        assert op.n_faults_injected == 1

    def test_counter_spans_both_directions(self, rng, system):
        A, _ = system
        op = FaultyOperator(DenseOperator(A), fail_at={1})
        op.matvec(np.ones(12))           # product 0: clean
        out = op.rmatvec(np.ones(40))    # product 1: poisoned
        assert np.isnan(out[0])

    def test_raise_mode(self, rng, system):
        A, _ = system
        op = FaultyOperator(DenseOperator(A), fail_at={0}, mode="raise")
        with pytest.raises(InjectedFaultError, match="product #0"):
            op.matvec(np.ones(12))

    def test_fail_every(self, rng, system):
        A, _ = system
        op = FaultyOperator(DenseOperator(A), fail_every=2)
        op.matvec(np.ones(12))
        op.matvec(np.ones(12))
        op.matvec(np.ones(12))
        op.matvec(np.ones(12))
        assert op.n_faults_injected == 2

    def test_rejects_unknown_mode(self, rng, system):
        A, _ = system
        with pytest.raises(ValueError, match="mode"):
            FaultyOperator(DenseOperator(A), mode="drop")


class TestLSQRUnderFaults:
    """One right-hand side (a 1-D ``b``): a one-column block solve."""

    def test_nan_matvec_sets_istop_8(self, system):
        A, b = system
        op = FaultyOperator(DenseOperator(A), fail_at={4}, mode="nan")
        result = block_lsqr(op, b, iter_lim=30).column(0)
        assert result.istop == 8
        assert result.failed
        assert not result.converged
        assert "non-finite" in result.stop_reason
        # the solution is the last finite iterate, not NaN soup
        assert np.all(np.isfinite(result.x))

    def test_inf_rmatvec_sets_istop_8(self, system):
        A, b = system
        op = FaultyOperator(DenseOperator(A), fail_at={5}, mode="inf")
        result = block_lsqr(op, b, iter_lim=30).column(0)
        assert result.istop == 8

    def test_raise_mode_propagates(self, system):
        A, b = system
        op = FaultyOperator(DenseOperator(A), fail_at={4}, mode="raise")
        with pytest.raises(InjectedFaultError):
            block_lsqr(op, b, iter_lim=30)

    def test_clean_run_still_converges(self, system):
        A, b = system
        op = FaultyOperator(DenseOperator(A))
        result = block_lsqr(op, b, iter_lim=100).column(0)
        assert result.converged
        assert result.istop in (1, 2, 4, 5)

    def test_failure_codes_have_reasons(self):
        for code in FAILURE_ISTOPS:
            assert code in ISTOP_REASONS


class TestSRDAUnderFaults:
    def test_lsqr_fault_surfaces_on_report(self, rng, monkeypatch):
        X = rng.standard_normal((30, 10))
        y = np.arange(30) % 3
        model = SRDA(alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15)
        poisoned_solves = []

        def poisoned(op, targets, **kwargs):
            poisoned_solves.append(op)
            return block_lsqr(
                FaultyOperator(op, fail_at={3}, mode="nan"), targets, **kwargs
            )

        monkeypatch.setattr(srda_module, "block_lsqr", poisoned)
        with pytest.warns(RobustnessWarning, match="istop=8"):
            model.fit(X, y)
        assert len(poisoned_solves) == 1
        assert not model.fit_report_.converged
        assert 8 in model.fit_report_.lsqr_istop
        assert model.fit_report_.warnings
