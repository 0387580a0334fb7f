"""Block LSQR — equivalence with a sequential reference, column isolation,
and the bidiagonalize-once alpha-sweep engine.

The contract under test: running all right-hand sides through one
blocked Golub–Kahan iteration must be *semantically indistinguishable*
from solving each column on its own with an independent LSQR, scipy's
(:func:`tests.lsqr_reference.scipy_lsqr`).  With a fixed iteration
count (``tol=0``, the paper's protocol) the two paths agree to machine
precision, including per-column ``istop``/``itn``.  With
tolerance-based stopping both paths converge to the same solution, but
at the convergence plateau the diagnostics live in a cancellation-noise
regime, so those cases assert looser bounds on ``x`` only.
"""

import os
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from repro.linalg.block_lsqr import (
    BlockLSQRResult,
    SharedBidiagonalization,
    block_lsqr,
)
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    FaultyOperator,
    as_operator,
)
from repro.linalg import kernels
from repro.linalg.kernels import (
    KERNEL_BACKEND_ENV,
    compiled_available,
    use_backend,
)
from repro.linalg.sparse import CSRMatrix
from tests.lsqr_reference import scipy_lsqr

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built",
)


def sequential_reference(op, B, **kwargs):
    """Per-column scipy LSQR runs over the same systems."""
    x0 = kwargs.pop("X0", None)
    return [
        scipy_lsqr(
            op,
            B[:, j],
            x0=None if x0 is None else x0[:, j],
            **kwargs,
        )
        for j in range(B.shape[1])
    ]


def assert_strict_parity(blocked, columns, xtol=1e-10):
    """Fixed-iteration runs: exact istop/itn, x to near machine precision."""
    for j, ref in enumerate(columns):
        assert int(blocked.istop[j]) == ref.istop, (j, blocked.istop[j])
        assert int(blocked.itn[j]) == ref.itn, (j, blocked.itn[j])
        scale = max(1.0, float(np.max(np.abs(ref.x))))
        assert np.max(np.abs(blocked.X[:, j] - ref.x)) / scale < xtol, j
        assert blocked.r1norm[j] == pytest.approx(ref.r1norm, rel=1e-6, abs=1e-9)
        assert blocked.r2norm[j] == pytest.approx(ref.r2norm, rel=1e-6, abs=1e-9)


def sparse_problem(rng, m=60, n=45, density=0.25):
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) > density] = 0.0
    return CSRMatrix.from_dense(dense), dense


class TestBlockedVsSequential:
    def test_dense_fixed_iterations(self, rng):
        A = rng.standard_normal((40, 25))
        B = rng.standard_normal((40, 4))
        blocked = block_lsqr(A, B, damp=0.3, atol=0.0, btol=0.0, iter_lim=12)
        columns = sequential_reference(
            A, B, damp=0.3, atol=0.0, btol=0.0, iter_lim=12
        )
        assert_strict_parity(blocked, columns)

    def test_dense_tolerance_stopping(self, rng):
        A = rng.standard_normal((50, 20))
        B = rng.standard_normal((50, 5))
        blocked = block_lsqr(A, B, atol=1e-8, btol=1e-8, iter_lim=200)
        columns = sequential_reference(
            A, B, atol=1e-8, btol=1e-8, iter_lim=200
        )
        # Both paths are within 1e-8 of the true solution; their mutual
        # difference can be ~2e-8 and stopping tests may fire an
        # iteration apart at the plateau.
        for j, ref in enumerate(columns):
            scale = max(1.0, float(np.max(np.abs(ref.x))))
            assert np.max(np.abs(blocked.X[:, j] - ref.x)) / scale < 5e-8
            assert int(blocked.istop[j]) in (1, 2, ref.istop)

    def test_sparse_fixed_iterations(self, rng):
        matrix, _ = sparse_problem(rng)
        B = rng.standard_normal((matrix.shape[0], 4))
        blocked = block_lsqr(
            matrix, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=15
        )
        columns = sequential_reference(
            matrix, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=15
        )
        assert_strict_parity(blocked, columns)

    def test_centering_operator(self, rng):
        matrix, _ = sparse_problem(rng)
        op = CenteringOperator(as_operator(matrix))
        B = rng.standard_normal((matrix.shape[0], 3))
        blocked = block_lsqr(op, B, damp=0.5, atol=0.0, btol=0.0, iter_lim=15)
        columns = sequential_reference(
            op, B, damp=0.5, atol=0.0, btol=0.0, iter_lim=15
        )
        assert_strict_parity(blocked, columns)

    def test_append_ones_operator(self, rng):
        """Against scipy at 8 iterations: by 15, scipy's own LSQR on this
        system moves by ~1e-10 under a 1-ulp change of the data, so a
        1e-10 comparison there tests the conditioning, not the solver.
        At 15 iterations the block solve is held bit for bit against
        its own one-column runs instead."""
        matrix, _ = sparse_problem(rng)
        op = AppendOnesOperator(as_operator(matrix))
        B = rng.standard_normal((matrix.shape[0], 3))
        blocked = block_lsqr(op, B, damp=0.5, atol=0.0, btol=0.0, iter_lim=8)
        columns = sequential_reference(
            op, B, damp=0.5, atol=0.0, btol=0.0, iter_lim=8
        )
        assert_strict_parity(blocked, columns)

        blocked = block_lsqr(op, B, damp=0.5, atol=0.0, btol=0.0, iter_lim=15)
        for j in range(B.shape[1]):
            single = block_lsqr(
                op, B[:, j], damp=0.5, atol=0.0, btol=0.0, iter_lim=15
            )
            assert blocked.X[:, j].tobytes() == single.X[:, 0].tobytes(), j
            assert int(blocked.itn[j]) == int(single.itn[0]) == 15

    def test_damped_matches_ridge(self, rng):
        A = rng.standard_normal((60, 15))
        B = rng.standard_normal((60, 3))
        alpha = 0.8
        blocked = block_lsqr(
            A, B, damp=np.sqrt(alpha), atol=1e-13, btol=1e-13, iter_lim=500
        )
        ridge = np.linalg.solve(A.T @ A + alpha * np.eye(15), A.T @ B)
        assert np.allclose(blocked.X, ridge, atol=1e-8)

    def test_single_column_matches_lsqr(self, rng):
        """A 1-D right-hand side is a 1-column block: scipy's LSQR."""
        A = rng.standard_normal((30, 12))
        b = rng.standard_normal(30)
        blocked = block_lsqr(A, b, damp=0.2, atol=0.0, btol=0.0, iter_lim=10)
        ref = scipy_lsqr(A, b, damp=0.2, atol=0.0, btol=0.0, iter_lim=10)
        assert blocked.X.shape == (12, 1)
        assert_strict_parity(blocked, [ref], xtol=1e-12)


class TestWarmStartsAndEdges:
    def test_warm_start_damped(self, rng):
        A = rng.standard_normal((40, 18))
        B = rng.standard_normal((40, 3))
        X0 = np.linalg.lstsq(A, B, rcond=None)[0] + 0.01 * rng.standard_normal(
            (18, 3)
        )
        kwargs = dict(damp=0.4, atol=0.0, btol=0.0, iter_lim=10)
        blocked = block_lsqr(A, B, X0=X0, **kwargs)
        columns = [
            scipy_lsqr(A, B[:, j], x0=X0[:, j], **kwargs) for j in range(3)
        ]
        assert_strict_parity(blocked, columns, xtol=1e-10)

    def test_warm_start_undamped(self, rng):
        A = rng.standard_normal((40, 18))
        B = rng.standard_normal((40, 3))
        X0 = 0.1 * rng.standard_normal((18, 3))
        kwargs = dict(damp=0.0, atol=0.0, btol=0.0, iter_lim=8)
        blocked = block_lsqr(A, B, X0=X0, **kwargs)
        columns = [
            scipy_lsqr(A, B[:, j], x0=X0[:, j], **kwargs) for j in range(3)
        ]
        assert_strict_parity(blocked, columns, xtol=1e-10)

    def test_zero_column_freezes_immediately(self, rng):
        A = rng.standard_normal((30, 10))
        B = rng.standard_normal((30, 3))
        B[:, 1] = 0.0
        blocked = block_lsqr(A, B, atol=1e-10, btol=1e-10, iter_lim=50)
        assert int(blocked.istop[1]) == 0
        assert int(blocked.itn[1]) == 0
        assert np.array_equal(blocked.X[:, 1], np.zeros(10))
        # siblings still converge
        assert int(blocked.istop[0]) in (1, 2)
        assert int(blocked.istop[2]) in (1, 2)

    def test_iter_lim_zero(self, rng):
        A = rng.standard_normal((20, 8))
        B = rng.standard_normal((20, 2))
        blocked = block_lsqr(A, B, iter_lim=0)
        refs = sequential_reference(A, B, iter_lim=0)
        for j, ref in enumerate(refs):
            assert int(blocked.itn[j]) == ref.itn
            assert np.array_equal(blocked.X[:, j], ref.x)

    def test_record_history(self, rng):
        A = rng.standard_normal((30, 12))
        B = rng.standard_normal((30, 2))
        blocked = block_lsqr(
            A, B, atol=0.0, btol=0.0, iter_lim=6, record_history=True
        )
        for j in range(2):
            # entry i - 1 of a history is the r2norm an i-iteration
            # solve reports
            ref = [
                scipy_lsqr(A, B[:, j], atol=0.0, btol=0.0, iter_lim=i).r2norm
                for i in range(1, 7)
            ]
            assert np.allclose(blocked.residual_history[j], ref, rtol=1e-9)

    def test_result_adapter(self, rng):
        A = rng.standard_normal((25, 10))
        B = rng.standard_normal((25, 3))
        blocked = block_lsqr(A, B, atol=0.0, btol=0.0, iter_lim=5)
        assert isinstance(blocked, BlockLSQRResult)
        assert blocked.n_columns == 3
        assert not blocked.any_failed
        col = blocked.column(1)
        assert col.istop == int(blocked.istop[1])
        assert np.array_equal(col.x, blocked.X[:, 1])

    def test_float32_block(self, rng):
        matrix, dense = sparse_problem(rng)
        f32 = CSRMatrix.from_dense(dense.astype(np.float32))
        B = rng.standard_normal((matrix.shape[0], 3)).astype(np.float32)
        blocked = block_lsqr(f32, B, damp=0.5, atol=0.0, btol=0.0, iter_lim=15)
        assert blocked.X.dtype == np.float32
        ref = block_lsqr(
            matrix, B.astype(np.float64), damp=0.5, atol=0.0, btol=0.0,
            iter_lim=15,
        )
        assert np.max(np.abs(blocked.X - ref.X)) < 1e-4

    def test_input_validation(self, rng):
        A = rng.standard_normal((10, 5))
        with pytest.raises(ValueError):
            block_lsqr(A, np.zeros((9, 2)))
        with pytest.raises(ValueError):
            block_lsqr(A, np.zeros((10, 2)), damp=-1.0)
        with pytest.raises(ValueError):
            block_lsqr(A, np.zeros((10, 2)), X0=np.zeros((4, 2)))


class TestFaultIsolation:
    def test_faulty_column_isolated(self, rng):
        """A NaN injected into one column's product poisons only it."""
        A = rng.standard_normal((30, 12))
        B = rng.standard_normal((30, 4))
        k = B.shape[1]
        # Block product order: init rmatvec (0..k-1), then per
        # iteration matvec (k per iter) and rmatvec (k per iter) — the
        # faulty operator sweeps its block products one column at a
        # time, so product 3k+2 lands on column 2 of the second
        # iteration's forward product.
        op = FaultyOperator(as_operator(A), fail_at={3 * k + 2}, mode="nan")
        blocked = block_lsqr(op, B, atol=0.0, btol=0.0, iter_lim=10)
        assert int(blocked.istop[2]) == 8
        assert blocked.any_failed
        assert list(np.flatnonzero(blocked.failed)) == [2]
        assert np.all(np.isfinite(blocked.X))
        # siblings bitwise-match clean sequential runs
        for j in (0, 1, 3):
            ref = scipy_lsqr(A, B[:, j], atol=0.0, btol=0.0, iter_lim=10)
            assert int(blocked.istop[j]) == ref.istop
            assert int(blocked.itn[j]) == ref.itn
            assert np.allclose(blocked.X[:, j], ref.x, atol=1e-12)

    def test_inf_fault_matches_sequential_istop(self, rng):
        A = rng.standard_normal((25, 10))
        b = rng.standard_normal((25, 1))
        op = FaultyOperator(as_operator(A), fail_at={1}, mode="inf")
        blocked = block_lsqr(op, b, atol=0.0, btol=0.0, iter_lim=10)
        op2 = FaultyOperator(as_operator(A), fail_at={1}, mode="inf")
        ref = block_lsqr(
            op2, b[:, 0], atol=0.0, btol=0.0, iter_lim=10
        ).column(0)
        # product 1 is the first iteration's forward product, so the
        # 1-D solve and the one-column block both stop there
        assert int(blocked.istop[0]) == ref.istop == 8
        assert int(blocked.itn[0]) == ref.itn == 1


#: Replay-parity fixtures, each with a check that the direct solve
#: really exercises what the fixture is named after.
REPLAY_CASES = {
    "dense": lambda result: (result.istop == 7).all(),
    "csr": lambda result: (result.istop == 7).all(),
    "float32": lambda result: result.X.dtype == np.float32,
    "zero_column": lambda result: result.itn[1] == 0,
    "faulty": lambda result: result.istop[2] == 8 and result.itn[2] == 2,
    "tolerance": lambda result: set(result.istop) <= {1, 2},
    "iter_lim_zero": lambda result: (result.itn == 0).all(),
    "no_columns": lambda result: (
        result.X.shape[1] == 0 and result.X.dtype == np.float32
    ),
}


def replay_case(name, rng):
    """``(make_operator, B, iter_lim, tolerances)`` for one fixture.

    ``make_operator`` builds the operator once per path, so a fault
    schedule counts each path's products from zero.
    """
    matrix, dense = sparse_problem(rng)
    operator = dense if name == "dense" else matrix
    B = rng.standard_normal((matrix.shape[0], 4))
    iter_lim, tols = 15, dict(atol=0.0, btol=0.0)
    if name in ("float32", "no_columns"):
        operator = CSRMatrix.from_dense(dense.astype(np.float32))
        B = B.astype(np.float32)
    if name == "no_columns":
        B = B[:, :0]
    elif name == "zero_column":
        B[:, 1] = 0.0
    elif name == "tolerance":
        iter_lim, tols = 100, dict(atol=1e-8, btol=1e-8)
    elif name == "iter_lim_zero":
        iter_lim = 0

    def make_operator():
        if name != "faulty":
            return operator
        # Product 3k+2 is column 2's forward product in iteration 2.
        return FaultyOperator(
            as_operator(operator), fail_at={3 * B.shape[1] + 2}, mode="nan"
        )

    return make_operator, B, iter_lim, tols


def assert_identical(left, right):
    """Same dtype, shape and bits (NaN lanes compare equal)."""
    left, right = np.asarray(left), np.asarray(right)
    assert left.dtype == right.dtype
    assert left.shape == right.shape
    assert np.array_equal(left, right, equal_nan=True)


class TestSharedBidiagonalization:
    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_replay_matches_block_lsqr(self, rng, case):
        make, B, iter_lim, tols = replay_case(case, rng)
        shared = SharedBidiagonalization(make(), B, iter_lim=iter_lim)
        for alpha in (0.0, 0.05, 1.0, 25.0):
            damp = float(np.sqrt(alpha))
            replay_events, direct_events = [], []
            replay = shared.solve(
                damp=damp,
                record_history=True,
                on_iteration=replay_events.append,
                **tols,
            )
            direct = block_lsqr(
                make(),
                B,
                damp=damp,
                iter_lim=iter_lim,
                record_history=True,
                on_iteration=direct_events.append,
                **tols,
            )
            assert REPLAY_CASES[case](direct)
            for spec in fields(BlockLSQRResult):
                if spec.name == "residual_history":
                    continue
                assert_identical(
                    getattr(replay, spec.name), getattr(direct, spec.name)
                )
            assert len(replay.residual_history) == B.shape[1]
            for ours, theirs in zip(
                replay.residual_history, direct.residual_history
            ):
                assert_identical(ours, theirs)
            assert [(e.itn, e.active, e.istop) for e in replay_events] == [
                (e.itn, e.active, e.istop) for e in direct_events
            ]

    def test_one_bidiagonalization_per_grid(self, rng):
        """The whole alpha grid costs one pass over the data.

        Recording performs ``iter_lim`` forward and ``iter_lim + 1``
        adjoint block products; every subsequent ``solve`` replays the
        scalar recurrences at ZERO additional operator products.
        """
        matrix, _ = sparse_problem(rng)
        op = as_operator(matrix)
        B = rng.standard_normal((matrix.shape[0], 3))
        depth = 10
        shared = SharedBidiagonalization(op, B, iter_lim=depth)
        recorded = op.n_matmat + op.n_rmatmat
        assert recorded == 2 * depth + 1
        for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
            shared.solve(damp=float(np.sqrt(alpha)), atol=0.0, btol=0.0)
        assert op.n_matmat + op.n_rmatmat == recorded

    def test_solve_deeper_than_recording_raises(self, rng):
        A = rng.standard_normal((20, 10))
        B = rng.standard_normal((20, 2))
        shared = SharedBidiagonalization(A, B, iter_lim=5)
        with pytest.raises(ValueError):
            shared.solve(iter_lim=6)

    def test_tolerance_stopping_in_replay(self, rng):
        A = rng.standard_normal((40, 15))
        B = rng.standard_normal((40, 3))
        shared = SharedBidiagonalization(A, B, iter_lim=100)
        replay = shared.solve(damp=0.5, atol=1e-8, btol=1e-8)
        direct = block_lsqr(
            A, B, damp=0.5, atol=1e-8, btol=1e-8, iter_lim=100
        )
        assert np.array_equal(replay.istop, direct.istop)
        assert np.array_equal(replay.itn, direct.itn)
        assert np.array_equal(replay.X, direct.X)


def uniform_csr(m, n, per_row, seed=0):
    """``m × n`` CSR with ``per_row`` stored entries in every row."""
    rng = np.random.default_rng(seed)
    indices = np.sort(
        np.stack([rng.choice(n, per_row, replace=False) for _ in range(m)]),
        axis=1,
    )
    indptr = np.arange(0, m * per_row + 1, per_row, dtype=np.int64)
    return CSRMatrix(rng.random(m * per_row), indices.ravel(), indptr, (m, n))


def traced_peak(fn):
    """Peak bytes ``tracemalloc`` sees allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The solve holds its four ``(n, k)`` blocks (``V``, the next
    ``V``, ``W``, ``X``) plus operand-sized and panel-sized buffers:
    no layout copies, no full-size temporaries, no second ``X``."""

    @needs_compiled
    def test_sparse_append_ones_peak(self):
        matrix = uniform_csr(3000, 8000, 40)
        matrix.T  # the transpose is the data's, cached before the solve
        op = AppendOnesOperator(as_operator(matrix))
        B = np.random.default_rng(1).standard_normal((3000, 19))
        with use_backend("compiled"):
            peak = traced_peak(
                lambda: block_lsqr(
                    op, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=10
                )
            )
        block = (8000 + 1) * 19 * 8
        assert peak <= 5.5 * block, peak / block

    def test_dense_centering_peak(self):
        rng = np.random.default_rng(2)
        op = CenteringOperator(as_operator(rng.standard_normal((2400, 1024))))
        B = rng.standard_normal((2400, 67))
        peak = traced_peak(
            lambda: block_lsqr(op, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=10)
        )
        # what the solve peaked at before blocks were updated in place
        assert peak <= 7.09 * 2**20, peak / 2**20

    def test_fixed_iterations_return_the_iterate_block(self, rng):
        """Every column freezes at iter_lim together: ``X`` is the
        solver's own block, laid out as the operator's products are."""
        matrix, dense = sparse_problem(rng)
        B = rng.standard_normal((matrix.shape[0], 3))
        sparse_run = block_lsqr(matrix, B, atol=0.0, btol=0.0, iter_lim=8)
        dense_run = block_lsqr(dense, B, atol=0.0, btol=0.0, iter_lim=8)
        assert sparse_run.X.flags.c_contiguous
        assert dense_run.X.flags.f_contiguous
        assert np.allclose(sparse_run.X, dense_run.X, atol=1e-10)


class EnvironCounter(dict):
    """A copy of the environment that records every key read through
    ``get``."""

    def __init__(self, environ):
        super().__init__(environ)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


class TestBackendResolution:
    """A solve resolves the kernel backend once, not once per kernel
    call; each call still routes its own dtype and layout."""

    @pytest.fixture
    def environ(self, monkeypatch):
        counter = EnvironCounter(os.environ)
        monkeypatch.setattr(kernels, "os", SimpleNamespace(environ=counter))
        return counter

    def test_block_lsqr_reads_the_environment_once(self, rng, environ):
        matrix, _ = sparse_problem(rng)
        B = rng.standard_normal((matrix.shape[0], 3))
        block_lsqr(
            AppendOnesOperator(as_operator(matrix)), B, damp=1.0, atol=0.0,
            btol=0.0, iter_lim=8,
        )
        assert environ.reads.count(KERNEL_BACKEND_ENV) == 1

    def test_shared_bidiagonalization_reads_it_once_per_call(
        self, rng, environ
    ):
        matrix, _ = sparse_problem(rng)
        B = rng.standard_normal((matrix.shape[0], 3))
        shared = SharedBidiagonalization(matrix, B, iter_lim=6)
        shared.solve(damp=0.5)
        shared.solve(damp=2.0)
        assert environ.reads.count(KERNEL_BACKEND_ENV) == 3

    def test_an_enclosing_selection_still_wins(self, rng, environ):
        matrix, _ = sparse_problem(rng)
        B = rng.standard_normal((matrix.shape[0], 3))
        with use_backend("reference"):
            pinned = block_lsqr(matrix, B, atol=0.0, btol=0.0, iter_lim=5)
        assert environ.reads.count(KERNEL_BACKEND_ENV) == 0
        with use_backend("reference"):
            want = block_lsqr(matrix, B, atol=0.0, btol=0.0, iter_lim=5)
        assert pinned.X.tobytes() == want.X.tobytes()
