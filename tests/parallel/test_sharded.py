"""Unit tests for ShardedOperator: layout, parity, faults, lifecycle."""

import numpy as np
import pytest

from repro.analysis.contracts import verify_operator
from repro.linalg.block_lsqr import block_lsqr
from repro.linalg.operators import (
    DenseOperator,
    FaultyOperator,
    InjectedFaultError,
    as_operator,
)
from repro.linalg import kernels
from repro.linalg.sparse import CSRMatrix
from repro.parallel import (
    ShardedOperator,
    ThreadBackend,
    csr_row_slice,
    default_shard_count,
    nnz_shard_bounds,
    shard_bounds,
)

pytestmark = pytest.mark.parallel


def random_csr(rng, m=60, n=17, density=0.3):
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) > density] = 0.0
    return CSRMatrix.from_dense(dense), dense


KERNEL_BACKENDS = [
    "reference",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not kernels.compiled_available(),
            reason="compiled kernel extension not built",
        ),
    ),
]

#: (matrix dtype, operand dtype): both native pairings and both mixed.
DTYPE_PAIRS = [
    (np.float64, np.float64),
    (np.float32, np.float32),
    (np.float32, np.float64),
    (np.float64, np.float32),
]

PRODUCTS = ("matvec", "rmatvec", "matmat", "rmatmat")


def with_dtype(matrix, dtype):
    return CSRMatrix(
        matrix.data.astype(dtype), matrix.indices, matrix.indptr, matrix.shape
    )


def product_operands(rng, shape, dtype, k=4):
    """``(v, u, B, U)`` conforming to ``shape`` for the four products."""
    m, n = shape
    return tuple(
        rng.standard_normal(size).astype(dtype)
        for size in (n, m, (n, k), (m, k))
    )


def all_products(op, operands):
    return tuple(
        getattr(op, kernel)(operand)
        for kernel, operand in zip(PRODUCTS, operands)
    )


class TestLayout:
    def test_bounds_tile_the_rows(self):
        bounds = shard_bounds(100, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_bounds_clamped_to_rows(self):
        assert len(shard_bounds(3, 8)) == 3

    def test_bounds_reject_nonpositive(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_bounds(10, 0)

    def test_default_count_is_pure_in_m(self):
        assert default_shard_count(10) == 1
        assert default_shard_count(512) >= 2
        assert default_shard_count(10**7) <= 8
        # Same m, same layout — regardless of how often it is asked.
        assert default_shard_count(4096) == default_shard_count(4096)

    def test_csr_row_slice_matches_dense_slice(self, rng):
        matrix, dense = random_csr(rng)
        block = csr_row_slice(matrix, 13, 41)
        np.testing.assert_array_equal(block.to_dense(), dense[13:41])

    def test_csr_row_slice_rejects_bad_range(self, rng):
        matrix, _ = random_csr(rng)
        with pytest.raises(ValueError, match="row range"):
            csr_row_slice(matrix, 10, 5)


class TestCSRParity:
    """CSR products must be bitwise identical to the unsharded kernels."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
    def test_bitwise_products(self, rng, n_shards):
        matrix, _ = random_csr(rng)
        v = rng.standard_normal(matrix.shape[1])
        u = rng.standard_normal(matrix.shape[0])
        B = rng.standard_normal((matrix.shape[1], 4))
        U = rng.standard_normal((matrix.shape[0], 4))
        direct = as_operator(matrix)
        with ShardedOperator(matrix, n_shards=n_shards) as op:
            assert np.array_equal(op.matvec(v), direct.matvec(v))
            assert np.array_equal(op.rmatvec(u), direct.rmatvec(u))
            assert np.array_equal(op.matmat(B), direct.matmat(B))
            assert op.rmatmat(U).tobytes() == direct.rmatmat(U).tobytes()

    def test_thread_backend_bitwise_equals_serial(self, rng):
        matrix, _ = random_csr(rng)
        U = rng.standard_normal((matrix.shape[0], 3))
        u = rng.standard_normal(matrix.shape[0])
        with ShardedOperator(matrix, n_shards=4, backend="serial") as a:
            with ShardedOperator(
                matrix, n_shards=4, backend="thread", n_jobs=4
            ) as b:
                assert np.array_equal(a.rmatvec(u), b.rmatvec(u))
                assert np.array_equal(a.rmatmat(U), b.rmatmat(U))

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
    @pytest.mark.parametrize(
        "dtypes", DTYPE_PAIRS, ids=["f64", "f32", "f32xf64", "f64xf32"]
    )
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    @pytest.mark.parametrize("fixture", ["random", "skewed"])
    def test_every_product_bitwise_equals_direct(
        self, rng, fixture, n_shards, dtypes, kernel_backend, backend
    ):
        """All four products equal the unsharded operator byte for byte,
        whatever the layout, dtypes, kernel backend (the use_backend
        ContextVar propagates into thread workers) or shard backend."""
        matrix_dtype, operand_dtype = dtypes
        base = random_csr(rng)[0] if fixture == "random" else skewed_csr(rng)
        matrix = with_dtype(base, matrix_dtype)
        operands = product_operands(rng, matrix.shape, operand_dtype)
        with kernels.use_backend(kernel_backend):
            want = all_products(as_operator(matrix), operands)
            with ShardedOperator(
                matrix, n_shards=n_shards, backend=backend, n_jobs=2
            ) as op:
                got = all_products(op, operands)
        for kernel, g, w in zip(PRODUCTS, got, want):
            assert g.dtype == w.dtype, kernel
            assert g.tobytes() == w.tobytes(), kernel


class TestDenseParity:
    @pytest.mark.parametrize("n_shards", [2, 4, 7])
    def test_products_close_to_direct(self, rng, n_shards):
        A = rng.standard_normal((50, 9))
        operands = product_operands(rng, A.shape, np.float64)
        with ShardedOperator(A, n_shards=n_shards) as op:
            got = all_products(op, operands)
        # Dense kernels go through BLAS, whose reduction order can
        # depend on the block's shape: tight tolerance, not bitwise
        # (unlike the handwritten CSR kernels).
        for g, w in zip(got, all_products(as_operator(A), operands)):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14)

    def test_backends_agree_bitwise_at_fixed_layout(self, rng):
        A = rng.standard_normal((50, 9))
        operands = product_operands(rng, A.shape, np.float64)
        with ShardedOperator(A, n_shards=7, backend="serial") as a:
            with ShardedOperator(A, n_shards=7, backend="thread", n_jobs=4) as b:
                pairs = zip(all_products(a, operands), all_products(b, operands))
                for x, y in pairs:
                    assert x.tobytes() == y.tobytes()


class TestWorkerCountInvariance:
    """At a fixed shard layout the thread pool's size changes where the
    shards run, never the bytes of any product."""

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_products_equal_serial_at_any_worker_count(
        self, rng, kind, n_workers
    ):
        matrix, dense = random_csr(rng, m=90, n=13)
        X = matrix if kind == "csr" else dense
        operands = product_operands(rng, dense.shape, np.float64)
        with ShardedOperator(X, n_shards=6, backend="serial") as serial:
            want = all_products(serial, operands)
        with ThreadBackend(n_workers=n_workers) as pool:
            with ShardedOperator(X, n_shards=6, backend=pool) as threaded:
                got = all_products(threaded, operands)
        for kernel, g, w in zip(PRODUCTS, got, want):
            assert g.tobytes() == w.tobytes(), kernel


class TestContract:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_verify_operator_csr(self, rng, backend):
        matrix, _ = random_csr(rng)
        with ShardedOperator(
            matrix, n_shards=3, backend=backend, n_jobs=2
        ) as op:
            report = verify_operator(op, rng=0)
        assert report.ok

    def test_verify_operator_dense(self, rng):
        A = rng.standard_normal((40, 11))
        with ShardedOperator(A, n_shards=4) as op:
            report = verify_operator(op, rng=0)
        assert report.ok

    def test_removed_process_backend_rejected(self, rng):
        matrix, _ = random_csr(rng)
        with pytest.raises(ValueError, match="process backend was removed"):
            ShardedOperator(matrix, n_shards=2, backend="process", n_jobs=2)


class TestOpsMode:
    def test_row_blocks_stack(self, rng):
        A = rng.standard_normal((30, 6))
        ops = [DenseOperator(A[:12]), DenseOperator(A[12:])]
        with ShardedOperator(ops) as op:
            assert op.shape == (30, 6)
            assert op.shard_layout == [(0, 12), (12, 30)]
            v = rng.standard_normal(6)
            np.testing.assert_allclose(op.matvec(v), A @ v, rtol=1e-13)

    def test_mismatched_columns_rejected(self, rng):
        ops = [
            DenseOperator(rng.standard_normal((5, 4))),
            DenseOperator(rng.standard_normal((5, 3))),
        ]
        with pytest.raises(ValueError, match="column count"):
            ShardedOperator(ops)

    def test_nan_fault_in_one_shard_sets_failure_istop(self, rng):
        A = rng.standard_normal((40, 8))
        faulty = FaultyOperator(
            DenseOperator(A[20:]), fail_every=1, mode="nan"
        )
        ops = [DenseOperator(A[:20]), faulty]
        B = rng.standard_normal((40, 2))
        with ShardedOperator(ops, backend="thread", n_jobs=2) as op:
            result = block_lsqr(op, B, iter_lim=10)
        assert result.any_failed
        assert set(result.istop[result.failed]) <= {8, 9}
        assert faulty.n_faults_injected > 0

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_nan_fault_stops_the_same_columns_on_every_backend(
        self, rng, backend
    ):
        A = rng.standard_normal((40, 8))
        B = rng.standard_normal((40, 3))

        def solve(shard_backend):
            ops = [
                DenseOperator(A[:20]),
                FaultyOperator(DenseOperator(A[20:]), fail_at={3}, mode="nan"),
            ]
            with ShardedOperator(ops, backend=shard_backend, n_jobs=2) as op:
                return block_lsqr(op, B, iter_lim=10)

        serial, other = solve("serial"), solve(backend)
        assert other.any_failed
        assert np.array_equal(other.istop, serial.istop)
        assert np.array_equal(other.itn, serial.itn)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_raise_fault_surfaces_on_every_backend(self, rng, backend):
        A = rng.standard_normal((40, 8))
        ops = [
            FaultyOperator(DenseOperator(A[:20]), fail_at={2}, mode="raise"),
            DenseOperator(A[20:]),
        ]
        B = rng.standard_normal((40, 2))
        with ShardedOperator(ops, backend=backend, n_jobs=2) as op:
            with pytest.raises(InjectedFaultError):
                block_lsqr(op, B, iter_lim=10)

    def test_raise_fault_propagates_without_hanging(self, rng):
        A = rng.standard_normal((40, 8))
        ops = [
            DenseOperator(A[:20]),
            FaultyOperator(DenseOperator(A[20:]), fail_at={0}, mode="raise"),
        ]
        B = rng.standard_normal((40, 2))
        with ShardedOperator(ops, backend="thread", n_jobs=2) as op:
            with pytest.raises(InjectedFaultError):
                block_lsqr(op, B, iter_lim=10)
            # The pool survived the fault: the healthy shards still run.
            v = rng.standard_normal(8)
            assert np.isfinite(op.matvec(v)[:20]).all()


class TestLifecycle:
    def test_single_shard_is_passthrough(self, rng):
        matrix, _ = random_csr(rng, m=20)
        op = ShardedOperator(matrix, n_shards=1)
        assert op.n_shards == 1
        v = rng.standard_normal(matrix.shape[1])
        assert np.array_equal(
            op.matvec(v), as_operator(matrix).matvec(v)
        )
        op.close()

    def test_close_is_idempotent(self, rng):
        matrix, _ = random_csr(rng, m=20)
        op = ShardedOperator(matrix, n_shards=2)
        op.close()
        op.close()

    def test_caller_supplied_backend_not_closed(self, rng):
        matrix, _ = random_csr(rng, m=20)
        backend = ThreadBackend(n_workers=2)
        op = ShardedOperator(matrix, n_shards=2, backend=backend)
        op.close()
        # Still usable: close() must not have shut the caller's pool.
        assert backend.map(lambda i: i + 1, [1, 2]) == [2, 3]
        backend.close()

    def test_owned_backend_closed_with_operator(self, rng):
        matrix, _ = random_csr(rng, m=20)
        op = ShardedOperator(matrix, n_shards=2, backend="thread", n_jobs=2)
        backend = op.backend
        op.close()
        assert backend._executor is None

    def test_structural_operator_rejected(self, rng):
        from repro.linalg.operators import TransposedOperator

        transposed = TransposedOperator(
            DenseOperator(rng.standard_normal((3, 6)))
        )
        with pytest.raises(TypeError, match="ShardedOperator"):
            ShardedOperator(transposed)


def skewed_csr(rng, m=2400, n=60, heavy_nnz=40, light_nnz=2):
    """CSR whose first 10% of rows carry ~90% of the non-zeros.

    Row nnz is small next to any realistic per-shard nnz target, so a
    balanced contiguous partition with max/min ratio <= 1.1 exists.
    """
    ks = np.where(np.arange(m) < m // 10, heavy_nnz, light_nnz)
    indptr = np.zeros(m + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(ks)
    indices = np.concatenate(
        [rng.choice(n, size=int(k), replace=False) for k in ks]
    ).astype(np.int64)
    data = rng.standard_normal(int(indptr[-1]))
    return CSRMatrix(data, indices, indptr, (m, n))


class TestNnzShardBounds:
    def test_bounds_tile_rows_and_are_strictly_increasing(self, rng):
        matrix = skewed_csr(rng)
        for n_shards in (2, 3, 5, 8):
            bounds = nnz_shard_bounds(matrix.indptr, n_shards)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == matrix.shape[0]
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            assert all(stop > start for start, stop in bounds)

    def test_skewed_fixture_balances_within_ten_percent(self, rng):
        matrix = skewed_csr(rng)
        for n_shards in (2, 3, 4, 8):
            bounds = nnz_shard_bounds(matrix.indptr, n_shards)
            nnzs = [
                int(matrix.indptr[stop] - matrix.indptr[start])
                for start, stop in bounds
            ]
            assert max(nnzs) / min(nnzs) <= 1.1

    def test_row_splits_would_not_balance_this_fixture(self, rng):
        # The motivating contrast: equal-row splits put every heavy row
        # in the first shard.
        matrix = skewed_csr(rng)
        bounds = shard_bounds(matrix.shape[0], 4)
        nnzs = [
            int(matrix.indptr[stop] - matrix.indptr[start])
            for start, stop in bounds
        ]
        assert max(nnzs) / min(nnzs) > 3

    def test_uniform_nnz_reduces_to_row_splits(self):
        indptr = np.arange(0, 505, 5, dtype=np.int64)  # 100 rows x 5 nnz
        assert nnz_shard_bounds(indptr, 4) == shard_bounds(100, 4)

    def test_single_shard_and_empty_fall_back(self):
        indptr = np.array([0, 3, 3, 9], dtype=np.int64)
        assert nnz_shard_bounds(indptr, 1) == shard_bounds(3, 1)
        empty = np.zeros(4, dtype=np.int64)
        assert nnz_shard_bounds(empty, 2) == shard_bounds(3, 2)

    def test_more_shards_than_rows_clamps(self):
        indptr = np.array([0, 5, 6, 7], dtype=np.int64)
        bounds = nnz_shard_bounds(indptr, 8)
        assert len(bounds) == 3
        assert bounds[0][0] == 0 and bounds[-1][1] == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="n_shards"):
            nnz_shard_bounds(np.array([0, 1], dtype=np.int64), 0)


class TestNnzLayoutParity:
    """The nnz-weighted layout keeps the determinism contract intact."""

    def test_sharded_csr_uses_nnz_weighted_layout(self, rng):
        matrix = skewed_csr(rng)
        with ShardedOperator(matrix, n_shards=4, backend="serial") as op:
            assert op.shard_layout == [
                tuple(b) for b in nnz_shard_bounds(matrix.indptr, 4)
            ]

    def test_products_bitwise_match_unsharded_kernels(self, rng):
        # Every block writes whole output rows, each reduced in its
        # storage order, so rebalancing the boundaries cannot change a
        # single bit of any product.
        matrix = skewed_csr(rng)
        v = rng.standard_normal(matrix.shape[1])
        u = rng.standard_normal(matrix.shape[0])
        B = rng.standard_normal((matrix.shape[1], 3))
        for n_shards in (2, 4, 8):
            with ShardedOperator(
                matrix, n_shards=n_shards, backend="serial"
            ) as op:
                assert np.array_equal(op.matvec(v), matrix.matvec(v))
                assert np.array_equal(op.rmatvec(u), matrix.rmatvec(u))
                assert np.array_equal(op.matmat(B), matrix.matmat(B))

    def test_rmatmat_bitwise_equals_direct_for_any_layout(self, rng):
        matrix = skewed_csr(rng)
        U = rng.standard_normal((matrix.shape[0], 4))
        direct = matrix.rmatmat(U)
        for n_shards in (1, 2, 3, 8):
            with ShardedOperator(
                matrix, n_shards=n_shards, backend="serial"
            ) as op:
                assert op.rmatmat(U).tobytes() == direct.tobytes()

    def test_layout_is_backend_independent(self, rng):
        matrix = skewed_csr(rng, m=600)
        with ShardedOperator(matrix, n_shards=3, backend="serial") as a:
            layout_serial = a.shard_layout
        with ShardedOperator(
            matrix, n_shards=3, backend="thread", n_jobs=2
        ) as b:
            assert b.shard_layout == layout_serial


class TestProductBuffers:
    def test_every_product_returns_a_fresh_array(self, rng):
        matrix = skewed_csr(rng, m=600)
        operands = product_operands(rng, matrix.shape, np.float64, k=3)
        with ShardedOperator(matrix, n_shards=3, backend="serial") as op:
            first = all_products(op, operands)
            second = all_products(op, operands)
        for a, b in zip(first, second):
            assert a is not b
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, b)

    def test_one_transpose_per_operator(self, rng, monkeypatch):
        # Adjoint blocks are row slices of the matrix's own cached
        # transpose, shared with the direct path: one build, not one
        # per shard.
        calls = []
        transpose = kernels.csr_transpose

        def counting(matrix):
            calls.append(matrix.shape)
            return transpose(matrix)

        monkeypatch.setattr(kernels, "csr_transpose", counting)
        matrix = skewed_csr(rng, m=600)
        U = rng.standard_normal((matrix.shape[0], 3))
        with ShardedOperator(matrix, n_shards=8, backend="serial") as op:
            op.rmatvec(U[:, 0])
            op.rmatmat(U)
        as_operator(matrix).rmatmat(U)
        assert calls == [matrix.shape]

    def test_repeated_adjoints_are_bitwise_stable(self, rng):
        matrix = skewed_csr(rng, m=600)
        u = rng.standard_normal(matrix.shape[0])
        U = rng.standard_normal((matrix.shape[0], 3))
        with ShardedOperator(matrix, n_shards=3, backend="serial") as op:
            r1 = np.array(op.rmatvec(u))
            R1 = np.array(op.rmatmat(U))
            # Interleave other products in between.
            op.rmatvec(rng.standard_normal(matrix.shape[0]))
            op.rmatmat(rng.standard_normal((matrix.shape[0], 3)))
            assert np.array_equal(op.rmatvec(u), r1)
            assert np.array_equal(op.rmatmat(U), R1)
