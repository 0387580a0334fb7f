"""Unit tests for empirical cost counting and scaling estimation."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.complexity.counter import (
    FlamCountingOperator,
    loglog_slope,
    operator_nnz,
    predicted_lsqr_flam,
)
from repro.core.srda import SRDA
from repro.linalg.block_lsqr import block_lsqr
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    CSROperator,
    as_operator,
)
from repro.linalg.sparse import CSRMatrix


class TestFlamCounting:
    def test_dense_charge_per_product(self, rng):
        A = rng.standard_normal((8, 5))
        op = FlamCountingOperator(as_operator(A))
        op.matvec(np.ones(5))
        assert op.flam == 40
        op.rmatvec(np.ones(8))
        assert op.flam == 80

    def test_sparse_charge_is_nnz(self, rng):
        dense = rng.standard_normal((10, 6))
        dense[dense < 0.8] = 0
        csr = CSRMatrix.from_dense(dense)
        op = FlamCountingOperator(as_operator(csr))
        op.matvec(np.ones(6))
        assert op.flam == csr.nnz

    def test_structural_wrappers_see_through_to_the_data(self, rng):
        dense = rng.standard_normal((10, 6))
        dense[dense < 0.8] = 0
        csr = CSRMatrix.from_dense(dense)
        base = as_operator(csr)
        assert operator_nnz(AppendOnesOperator(base)) == csr.nnz + 10
        assert operator_nnz(CenteringOperator(base)) == csr.nnz
        assert operator_nnz(AppendOnesOperator(as_operator(dense))) == 70
        op = FlamCountingOperator(AppendOnesOperator(base))
        op.matmat(np.ones((7, 3)))
        assert op.flam == 3 * (csr.nnz + 10)

    def test_sparse_fit_charges_kernel_flam_plus_ones_column(
        self, sparse_classification, monkeypatch
    ):
        """srda.flam on a sparse LSQR fit is the flam of the CSR products
        the solve ran plus the m entries of the appended ones column."""
        X, _, y = sparse_classification
        columns = []
        for name in ("_matmat", "_rmatmat"):
            original = getattr(CSROperator, name)

            def counted(self, x, _original=original):
                columns.append(x.shape[1])
                return _original(self, x)

            monkeypatch.setattr(CSROperator, name, counted)
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), trace=True
        ).fit(X, y)
        assert not model.centered_
        flam = model.tracer_.metrics.get_counter("srda.flam").value
        kernel_flam = X.nnz * sum(columns)
        ones_column = X.shape[0] * sum(columns)
        assert sum(columns) > 0
        assert flam == kernel_flam + ones_column

    def test_reset(self, rng):
        op = FlamCountingOperator(as_operator(rng.standard_normal((4, 3))))
        op.matvec(np.ones(3))
        op.reset()
        assert op.flam == 0 and op.n_matvec == 0

    def test_lsqr_cost_matches_model(self, rng):
        """The data-touching cost of a real LSQR run must match the 2·nnz
        per-iteration term of the model exactly."""
        A = rng.standard_normal((60, 25))
        op = FlamCountingOperator(as_operator(A))
        result = block_lsqr(
            op, rng.standard_normal(60), iter_lim=12, atol=0, btol=0
        ).column(0)
        nnz = 60 * 25
        # setup does one rmatvec; each iteration one matvec + one rmatvec
        expected = (2 * result.itn + 1) * nnz
        assert op.flam == expected
        # and the model's dominant term agrees to within the setup product
        model = predicted_lsqr_flam(60, 25, result.itn)
        data_term = 2 * result.itn * nnz
        assert abs(model - data_term) == result.itn * (3 * 60 + 5 * 25)
        # the closed form per iteration: 2·nnz + 3m + 5n, with nnz = m·n
        # for dense data
        assert predicted_lsqr_flam(10, 4, 1) == 2 * 40 + 30 + 20
        assert predicted_lsqr_flam(10, 4, 1, nnz=12) == 24 + 30 + 20


class TestLogLogSlope:
    def test_linear_data(self):
        sizes = np.array([100, 200, 400, 800])
        assert loglog_slope(sizes, 3.0 * sizes) == pytest.approx(1.0)

    def test_cubic_data(self):
        sizes = np.array([10.0, 20, 40, 80])
        assert loglog_slope(sizes, sizes**3) == pytest.approx(3.0)

    def test_noisy_quadratic(self, rng):
        sizes = np.array([50.0, 100, 200, 400, 800])
        times = sizes**2 * np.exp(0.02 * rng.standard_normal(5))
        assert loglog_slope(sizes, times) == pytest.approx(2.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            loglog_slope([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            loglog_slope([1.0, 2.0], [1.0])
