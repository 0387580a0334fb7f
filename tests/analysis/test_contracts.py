"""Property tests: every shipped operator satisfies the numeric contracts.

Hypothesis draws shapes, dtypes, and seeds; :func:`verify_operator`
checks the adjoint identity, block/column agreement, and shape/dtype
conformance on random probes.  A deliberately broken adjoint must fail
with :class:`~repro.exceptions.ContractViolationError`.
"""

import numpy as np
import pytest

from repro.analysis import verify_operator
from repro.exceptions import ContractViolationError, ReproError
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    CSROperator,
    DenseOperator,
    FaultyOperator,
    IdentityOperator,
    StackedOperator,
    TransposedOperator,
)
from repro.linalg.sparse import CSRMatrix

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = dict(max_examples=25, deadline=None)

dims = st.integers(min_value=1, max_value=12)
dtypes = st.sampled_from([np.float32, np.float64])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def make_dense(m, n, dtype, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)).astype(dtype)


def make_csr(m, n, dtype, seed):
    dense = make_dense(m, n, dtype, seed)
    dense[np.abs(dense) < 0.4] = 0.0
    return CSRMatrix.from_dense(dense)


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_dense_operator_contract(m, n, dtype, seed):
    report = verify_operator(DenseOperator(make_dense(m, n, dtype, seed)))
    assert report.ok
    assert report.dtype == str(np.dtype(dtype))


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_csr_operator_contract(m, n, dtype, seed):
    report = verify_operator(CSROperator(make_csr(m, n, dtype, seed)))
    assert report.ok
    assert report.dtype == str(np.dtype(dtype))


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_centering_operator_contract(m, n, dtype, seed):
    base = DenseOperator(make_dense(m, n, dtype, seed))
    report = verify_operator(CenteringOperator(base))
    assert report.ok
    assert report.dtype == str(np.dtype(dtype))


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_centering_csr_operator_contract(m, n, dtype, seed):
    base = CSROperator(make_csr(m, n, dtype, seed))
    report = verify_operator(CenteringOperator(base))
    assert report.ok


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_append_ones_operator_contract(m, n, dtype, seed):
    base = DenseOperator(make_dense(m, n, dtype, seed))
    report = verify_operator(AppendOnesOperator(base))
    assert report.ok
    assert report.shape == (m, n + 1)


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_transposed_operator_contract(m, n, dtype, seed):
    report = verify_operator(
        TransposedOperator(DenseOperator(make_dense(m, n, dtype, seed)))
    )
    assert report.ok


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_stacked_operator_contract(m, n, dtype, seed):
    top = DenseOperator(make_dense(m, n, dtype, seed))
    bottom = IdentityOperator(n, scale=0.75, dtype=dtype)
    report = verify_operator(StackedOperator(top, bottom))
    assert report.ok
    assert report.dtype == str(np.dtype(dtype))


@settings(**SETTINGS)
@given(n=dims, dtype=dtypes)
def test_identity_operator_contract(n, dtype):
    assert verify_operator(IdentityOperator(n, scale=2.0, dtype=dtype)).ok


@settings(**SETTINGS)
@given(m=dims, n=dims, dtype=dtypes, seed=seeds)
def test_faulty_operator_without_faults_contract(m, n, dtype, seed):
    base = DenseOperator(make_dense(m, n, dtype, seed))
    assert verify_operator(FaultyOperator(base)).ok


class BrokenAdjointOperator(DenseOperator):  # repro: noqa-RPR005 — deliberately half-broken fixture
    """The adjoint returns the transpose product plus a systematic offset."""

    def _rmatmat(self, U):
        return super()._rmatmat(U) + 1.0


class WrongShapeOperator(DenseOperator):  # repro: noqa-RPR005 — deliberately half-broken fixture
    def _matmat(self, B):
        return np.append(super()._matmat(B), np.zeros((1, B.shape[1])), axis=0)


class UpcastingOperator(DenseOperator):  # repro: noqa-RPR005 — deliberately half-broken fixture
    def _matmat(self, B):
        return super()._matmat(B).astype(np.float64)


def test_broken_adjoint_raises():
    X = make_dense(8, 5, np.float64, 3)
    with pytest.raises(ContractViolationError) as excinfo:
        verify_operator(BrokenAdjointOperator(X))
    assert any("adjoint-identity" in f for f in excinfo.value.failures)


def test_contract_violation_is_a_repro_error():
    X = make_dense(6, 4, np.float64, 4)
    with pytest.raises(ReproError):
        verify_operator(BrokenAdjointOperator(X))


def test_broken_adjoint_report_without_raise():
    X = make_dense(8, 5, np.float64, 3)
    report = verify_operator(BrokenAdjointOperator(X), raise_on_failure=False)
    assert not report.ok
    assert report.failures


def test_wrong_shape_detected():
    X = make_dense(7, 4, np.float64, 5)
    report = verify_operator(WrongShapeOperator(X), raise_on_failure=False)
    assert any("matvec-shape" in f for f in report.failures)


def test_silent_upcast_detected():
    X = make_dense(7, 4, np.float32, 6)
    report = verify_operator(UpcastingOperator(X), raise_on_failure=False)
    assert any("matvec-dtype" in f for f in report.failures)


def test_poisoned_output_detected():
    base = DenseOperator(make_dense(6, 4, np.float64, 7))
    poisoned = FaultyOperator(base, fail_every=1, mode="nan")
    report = verify_operator(poisoned, raise_on_failure=False)
    assert any("finite" in f for f in report.failures)


def test_counters_restored_after_verification():
    op = DenseOperator(make_dense(6, 4, np.float64, 8))
    op.matvec(np.ones(4))
    verify_operator(op)
    assert (op.n_matvec, op.n_rmatvec, op.n_matmat, op.n_rmatmat) == (
        1,
        0,
        0,
        0,
    )


def test_verifier_is_deterministic():
    X = make_dense(9, 5, np.float64, 9)
    first = verify_operator(DenseOperator(X))
    second = verify_operator(DenseOperator(X))
    assert [str(c) for c in first.checks] == [str(c) for c in second.checks]


def test_accepts_raw_arrays_via_as_operator():
    X = make_dense(5, 3, np.float64, 10)
    assert verify_operator(X).ok
