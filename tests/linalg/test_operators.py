"""Unit tests for matrix-free operators (the paper's memory tricks)."""

import threading
import tracemalloc

import numpy as np
import pytest
from scipy import sparse as sp

from repro.linalg import kernels
from repro.linalg.kernels import compiled_available, use_backend
from repro.linalg.operators import (
    AppendOnesOperator,
    CSROperator,
    CenteringOperator,
    DenseOperator,
    IdentityOperator,
    StackedOperator,
    TransposedOperator,
    as_operator,
    borrowed_destination,
    lend_destination,
)
from repro.linalg.sparse import CSRMatrix
from repro.parallel import ShardedOperator

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built",
)


@pytest.fixture
def dense(rng):
    return rng.standard_normal((8, 5))


class TestDenseOperator:
    def test_products_match(self, rng, dense):
        op = DenseOperator(dense)
        v = rng.standard_normal(5)
        u = rng.standard_normal(8)
        assert np.allclose(op.matvec(v), dense @ v)
        assert np.allclose(op.rmatvec(u), dense.T @ u)

    def test_matmat_and_rmatmat(self, rng, dense):
        op = DenseOperator(dense)
        B = rng.standard_normal((5, 3))
        C = rng.standard_normal((8, 2))
        assert np.allclose(op.matmat(B), dense @ B)
        assert np.allclose(op.rmatmat(C), dense.T @ C)

    def test_to_dense(self, dense):
        assert np.allclose(DenseOperator(dense).to_dense(), dense)

    def test_shape_validation(self, dense):
        op = DenseOperator(dense)
        with pytest.raises(ValueError):
            op.matvec(np.ones(6))
        with pytest.raises(ValueError):
            op.rmatvec(np.ones(9))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            DenseOperator(np.ones(4))

    def test_product_counting(self, rng, dense):
        op = DenseOperator(dense)
        op.matvec(np.ones(5))
        op.matvec(np.ones(5))
        op.rmatvec(np.ones(8))
        assert (op.n_matvec, op.n_rmatvec) == (2, 1)
        op.reset_counts()
        assert (op.n_matvec, op.n_rmatvec) == (0, 0)


class TestCSROperator:
    def test_wraps_our_csr(self, rng, dense):
        op = CSROperator(CSRMatrix.from_dense(dense))
        assert np.allclose(op.to_dense(), dense)

    def test_wraps_scipy(self, dense):
        op = CSROperator(sp.csr_matrix(dense))
        assert np.allclose(op.to_dense(), dense)

    def test_rejects_dense(self, dense):
        with pytest.raises(TypeError):
            CSROperator(dense)


class TestTranspose:
    def test_transpose_products(self, rng, dense):
        op = DenseOperator(dense).T
        assert isinstance(op, TransposedOperator)
        assert op.shape == (5, 8)
        u = rng.standard_normal(8)
        v = rng.standard_normal(5)
        assert np.allclose(op.matvec(u), dense.T @ u)
        assert np.allclose(op.rmatvec(v), dense @ v)

    def test_double_transpose(self, dense):
        op = DenseOperator(dense).T.T
        assert np.allclose(op.to_dense(), dense)


class TestCenteringOperator:
    def test_equals_explicit_centering(self, dense):
        op = CenteringOperator(DenseOperator(dense))
        assert np.allclose(op.to_dense(), dense - dense.mean(axis=0))

    def test_rmatvec(self, rng, dense):
        op = CenteringOperator(DenseOperator(dense))
        u = rng.standard_normal(8)
        centered = dense - dense.mean(axis=0)
        assert np.allclose(op.rmatvec(u), centered.T @ u)

    def test_explicit_means(self, rng, dense):
        means = dense.mean(axis=0)
        op = CenteringOperator(DenseOperator(dense), column_means=means)
        v = rng.standard_normal(5)
        assert np.allclose(op.matvec(v), (dense - means) @ v)

    def test_wrong_means_length(self, dense):
        with pytest.raises(ValueError):
            CenteringOperator(DenseOperator(dense), column_means=np.ones(3))

    def test_sparse_base_never_densified(self, rng, dense):
        csr = CSRMatrix.from_dense(dense)
        op = CenteringOperator(CSROperator(csr))
        v = rng.standard_normal(5)
        expected = (dense - dense.mean(axis=0)) @ v
        assert np.allclose(op.matvec(v), expected)

    def test_centered_output_sums_to_zero(self, rng, dense):
        op = CenteringOperator(DenseOperator(dense))
        v = rng.standard_normal(5)
        assert abs(op.matvec(v).sum()) < 1e-10


class TestAppendOnes:
    def test_equals_explicit_augmentation(self, dense):
        op = AppendOnesOperator(DenseOperator(dense))
        expected = np.hstack([dense, np.ones((8, 1))])
        assert np.allclose(op.to_dense(), expected)

    def test_rmatvec_last_coordinate_is_sum(self, rng, dense):
        op = AppendOnesOperator(DenseOperator(dense))
        u = rng.standard_normal(8)
        out = op.rmatvec(u)
        assert out.shape == (6,)
        assert out[-1] == pytest.approx(u.sum())
        assert np.allclose(out[:-1], dense.T @ u)

    def test_shape(self, dense):
        assert AppendOnesOperator(DenseOperator(dense)).shape == (8, 6)

    @pytest.mark.parametrize("base", ["csr", "sharded", "dense"])
    def test_block_adjoint_is_data_adjoint_plus_sums(self, rng, base):
        data = rng.standard_normal((700, 40))
        data[rng.random(data.shape) < 0.7] = 0.0
        csr = CSRMatrix.from_dense(data)
        U = rng.standard_normal((700, 5))
        if base == "sharded":
            with ShardedOperator(csr, n_shards=3, backend="thread") as op:
                got = AppendOnesOperator(op).rmatmat(U)
        else:
            op = DenseOperator(data) if base == "dense" else CSROperator(csr)
            got = AppendOnesOperator(op).rmatmat(U)
        assert got.shape == (41, 5)
        assert np.allclose(got[:40], data.T @ U)
        assert np.allclose(got[40], U.sum(axis=0))
        if base != "dense":
            direct = AppendOnesOperator(CSROperator(csr)).rmatmat(U)
            assert got.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("n_shards", [0, 1, 3])
    def test_base_writes_into_the_adjoint_block(
        self, rng, n_shards, monkeypatch
    ):
        """Every CSR kernel call of the base (direct, or sharded over one
        or three shards) writes into rows of the block the append-ones
        adjoint returns."""
        data = rng.standard_normal((700, 40))
        data[rng.random(data.shape) < 0.7] = 0.0
        csr = CSRMatrix.from_dense(data)
        destinations = []
        for name in ("csr_matmat", "csr_rmatmat"):
            original = getattr(kernels, name)

            def recording(matrix, operand, out=None, _original=original):
                destinations.append(out)
                return _original(matrix, operand, out=out)

            monkeypatch.setattr(kernels, name, recording)
        U = rng.standard_normal((700, 5))
        with ShardedOperator(
            csr, n_shards=max(n_shards, 1), backend="serial"
        ) as shards:
            op = AppendOnesOperator(shards if n_shards else CSROperator(csr))
            result = op.rmatmat(U)
        assert len(destinations) >= max(n_shards, 1)
        for out in destinations:
            assert out is not None and np.shares_memory(out, result)

    @needs_compiled
    @pytest.mark.parametrize("sharded", [False, True])
    def test_block_adjoint_allocates_one_block(self, rng, sharded):
        """No second ``(n, k)`` block to stack (the compiled kernels
        allocate nothing beyond their output)."""
        data = rng.standard_normal((400, 6000))
        data[rng.random(data.shape) < 0.99] = 0.0
        csr = CSRMatrix.from_dense(data)
        csr.T
        U = rng.standard_normal((400, 8))
        with use_backend("compiled"), ShardedOperator(
            csr, n_shards=2, backend="serial"
        ) as shards:
            op = AppendOnesOperator(shards if sharded else CSROperator(csr))
            tracemalloc.start()
            try:
                op.rmatmat(U)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = 6001 * 8 * 8
        assert peak < 1.25 * block, peak / block


class TestLentDestination:
    def test_claimed_once_by_the_named_operator(self):
        op, other = IdentityOperator(3), IdentityOperator(3)
        out = np.empty((3, 2))
        with lend_destination(op, out):
            assert borrowed_destination(other, (3, 2), out.dtype) is None
            assert borrowed_destination(op, (3, 1), out.dtype) is None
            assert borrowed_destination(op, (3, 2), np.float32) is None
            assert borrowed_destination(op, (3, 2), out.dtype) is out
            assert borrowed_destination(op, (3, 2), out.dtype) is None
        assert borrowed_destination(op, (3, 2), out.dtype) is None

    def test_loans_stay_on_their_thread(self):
        op = IdentityOperator(3)
        out = np.empty((3, 2))
        seen = []
        with lend_destination(op, out):
            worker = threading.Thread(
                target=lambda: seen.append(
                    borrowed_destination(op, (3, 2), out.dtype)
                )
            )
            worker.start()
            worker.join()
            assert borrowed_destination(op, (3, 2), out.dtype) is out
        assert seen == [None]


class TestComposites:
    def test_identity(self, rng):
        op = IdentityOperator(4, scale=3.0)
        v = rng.standard_normal(4)
        assert np.allclose(op.matvec(v), 3.0 * v)
        assert np.allclose(op.rmatvec(v), 3.0 * v)

    def test_stacked_is_damped_system(self, rng, dense):
        alpha = 0.3
        damped = StackedOperator(
            DenseOperator(dense), IdentityOperator(5, scale=np.sqrt(alpha))
        )
        expected = np.vstack([dense, np.sqrt(alpha) * np.eye(5)])
        assert np.allclose(damped.to_dense(), expected)
        u = rng.standard_normal(13)
        assert np.allclose(damped.rmatvec(u), expected.T @ u)

    def test_stacked_column_mismatch(self, dense):
        with pytest.raises(ValueError):
            StackedOperator(DenseOperator(dense), IdentityOperator(4))


class TestAsOperator:
    def test_dense_dispatch(self, dense):
        assert isinstance(as_operator(dense), DenseOperator)

    def test_csr_dispatch(self, dense):
        assert isinstance(as_operator(CSRMatrix.from_dense(dense)), CSROperator)

    def test_scipy_dispatch(self, dense):
        assert isinstance(as_operator(sp.csr_matrix(dense)), CSROperator)

    def test_operator_passthrough(self, dense):
        op = DenseOperator(dense)
        assert as_operator(op) is op
