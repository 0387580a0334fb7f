"""Unit tests for the from-scratch CSR matrix."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.linalg.sparse import CSRMatrix, is_sparse


def dense_fixture(rng, shape=(9, 6), density=0.4):
    dense = rng.standard_normal(shape)
    dense[rng.random(shape) > density] = 0.0
    return dense


class TestConstruction:
    def test_from_dense_round_trip(self, rng):
        dense = dense_fixture(rng)
        assert np.array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            CSRMatrix.from_dense(np.ones(4))

    def test_from_rows(self):
        matrix = CSRMatrix.from_rows(
            [([2, 0], [3.0, 1.0]), ([], []), ([1], [5.0])], n_cols=4
        )
        expected = np.array(
            [[1.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0]]
        )
        assert np.array_equal(matrix.to_dense(), expected)

    def test_from_rows_sorts_columns(self):
        matrix = CSRMatrix.from_rows([([3, 1], [7.0, 2.0])], n_cols=5)
        assert np.array_equal(matrix.indices, [1, 3])
        assert np.array_equal(matrix.data, [2.0, 7.0])

    def test_from_rows_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            CSRMatrix.from_rows([([1, 2], [1.0])], n_cols=4)

    def test_scipy_round_trip(self, rng):
        dense = dense_fixture(rng)
        ours = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        assert np.array_equal(ours.to_dense(), dense)
        back = ours.to_scipy()
        assert np.array_equal(back.toarray(), dense)

    def test_empty_matrix(self):
        matrix = CSRMatrix.from_dense(np.zeros((3, 4)))
        assert matrix.nnz == 0
        assert np.array_equal(matrix.to_dense(), np.zeros((3, 4)))

    def test_validation_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix(np.ones(1), np.zeros(1, np.int64),
                      np.array([0, 2]), (1, 3))

    def test_validation_column_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix(np.ones(1), np.array([5]), np.array([0, 1]), (1, 3))

    def test_validation_decreasing_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.ones(2), np.array([0, 1]), np.array([0, 2, 1]), (2, 3))

    def test_copy_is_independent(self, rng):
        original = CSRMatrix.from_dense(dense_fixture(rng))
        duplicate = original.copy()
        duplicate.data[:] = 0.0
        assert original.data.any()


class TestProducts:
    def test_matvec_matches_dense(self, rng):
        dense = dense_fixture(rng)
        matrix = CSRMatrix.from_dense(dense)
        v = rng.standard_normal(dense.shape[1])
        assert np.allclose(matrix.matvec(v), dense @ v)

    def test_rmatvec_matches_dense(self, rng):
        dense = dense_fixture(rng)
        matrix = CSRMatrix.from_dense(dense)
        u = rng.standard_normal(dense.shape[0])
        assert np.allclose(matrix.rmatvec(u), dense.T @ u)

    def test_matvec_with_empty_rows(self):
        dense = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        matrix = CSRMatrix.from_dense(dense)
        assert np.allclose(matrix.matvec(np.array([1.0, 1.0])), [0.0, 3.0, 0.0])

    def test_matvec_wrong_length(self, rng):
        matrix = CSRMatrix.from_dense(dense_fixture(rng))
        with pytest.raises(ValueError, match="matvec"):
            matrix.matvec(np.ones(matrix.shape[1] + 1))

    def test_rmatvec_wrong_length(self, rng):
        matrix = CSRMatrix.from_dense(dense_fixture(rng))
        with pytest.raises(ValueError, match="rmatvec"):
            matrix.rmatvec(np.ones(matrix.shape[0] + 2))

    def test_matmat(self, rng):
        dense = dense_fixture(rng)
        matrix = CSRMatrix.from_dense(dense)
        B = rng.standard_normal((dense.shape[1], 3))
        assert np.allclose(matrix.matmat(B), dense @ B)
        assert np.allclose(matrix @ B, dense @ B)

    def test_matmat_dimension_check(self, rng):
        matrix = CSRMatrix.from_dense(dense_fixture(rng))
        with pytest.raises(ValueError, match="dimension"):
            matrix.matmat(np.ones((matrix.shape[1] + 1, 2)))


class TestTransposeAndSlicing:
    def test_transpose_matches_dense(self, rng):
        dense = dense_fixture(rng)
        assert np.array_equal(
            CSRMatrix.from_dense(dense).T.to_dense(), dense.T
        )

    def test_double_transpose_identity(self, rng):
        dense = dense_fixture(rng)
        assert np.array_equal(
            CSRMatrix.from_dense(dense).T.T.to_dense(), dense
        )

    def test_take_rows(self, rng):
        dense = dense_fixture(rng)
        matrix = CSRMatrix.from_dense(dense)
        idx = np.array([4, 1, 1, 7])
        assert np.array_equal(matrix.take_rows(idx).to_dense(), dense[idx])

    def test_take_rows_out_of_range(self, rng):
        matrix = CSRMatrix.from_dense(dense_fixture(rng))
        with pytest.raises(IndexError):
            matrix.take_rows(np.array([matrix.shape[0]]))

    def test_take_rows_empty_selection(self, rng):
        matrix = CSRMatrix.from_dense(dense_fixture(rng))
        taken = matrix.take_rows(np.array([], dtype=np.int64))
        assert taken.shape == (0, matrix.shape[1])


class TestStatistics:
    def test_column_means(self, rng):
        dense = dense_fixture(rng)
        matrix = CSRMatrix.from_dense(dense)
        assert np.allclose(matrix.column_means(), dense.mean(axis=0))

    def test_row_norms(self, rng):
        dense = dense_fixture(rng)
        matrix = CSRMatrix.from_dense(dense)
        assert np.allclose(
            matrix.row_norms(), np.linalg.norm(dense, axis=1)
        )

    def test_normalize_rows(self, rng):
        dense = dense_fixture(rng)
        dense[0] = 0.0  # keep one empty row
        normalized = CSRMatrix.from_dense(dense).normalize_rows()
        norms = normalized.row_norms()
        nonzero = np.linalg.norm(dense, axis=1) > 0
        assert np.allclose(norms[nonzero], 1.0)
        assert np.allclose(norms[~nonzero], 0.0)

    def test_row_nnz_and_mean(self):
        dense = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        matrix = CSRMatrix.from_dense(dense)
        assert np.array_equal(matrix.row_nnz(), [1, 2, 0])
        assert matrix.mean_nnz_per_row() == pytest.approx(1.0)

    def test_is_sparse_predicate(self, rng):
        dense = dense_fixture(rng)
        assert is_sparse(CSRMatrix.from_dense(dense))
        assert is_sparse(sp.csr_matrix(dense))
        assert not is_sparse(dense)


class TestDtypePropagation:
    """float32 input stays float32 through every product — the block
    kernels move half the bytes per entry compared to float64."""

    def test_float32_products_stay_float32(self, rng):
        dense = dense_fixture(rng).astype(np.float32)
        matrix = CSRMatrix.from_dense(dense)
        assert matrix.data.dtype == np.float32
        v = rng.standard_normal(matrix.shape[1]).astype(np.float32)
        u = rng.standard_normal(matrix.shape[0]).astype(np.float32)
        B = rng.standard_normal((matrix.shape[1], 3)).astype(np.float32)
        U = rng.standard_normal((matrix.shape[0], 3)).astype(np.float32)
        assert matrix.matvec(v).dtype == np.float32
        assert matrix.rmatvec(u).dtype == np.float32
        assert matrix.matmat(B).dtype == np.float32
        assert matrix.rmatmat(U).dtype == np.float32

    def test_float32_halves_memory_traffic(self, rng):
        """The bytes moved per stored entry are the dtype's itemsize:
        a float32 matrix and its product blocks occupy half the bytes
        of their float64 twins, which is the whole bandwidth story for
        these memory-bound kernels."""
        dense = dense_fixture(rng, shape=(30, 20))
        m64 = CSRMatrix.from_dense(dense)
        m32 = CSRMatrix.from_dense(dense.astype(np.float32))
        assert m32.data.nbytes * 2 == m64.data.nbytes
        B = rng.standard_normal((20, 4))
        out64 = m64.matmat(B)
        out32 = m32.matmat(B.astype(np.float32))
        assert out32.nbytes * 2 == out64.nbytes
        # and the cheaper path still computes the same product
        assert np.allclose(out32, out64, atol=1e-4)

    def test_float64_products_stay_float64(self, rng):
        dense = dense_fixture(rng)
        matrix = CSRMatrix.from_dense(dense)
        B = rng.standard_normal((matrix.shape[1], 3))
        assert matrix.matmat(B).dtype == np.float64

    def test_float32_tolerance_convergence(self, rng):
        """Single precision converges under tolerance stopping (to a
        single-precision-sized tolerance) instead of breaking down."""
        from repro.linalg.block_lsqr import block_lsqr

        dense = dense_fixture(rng, shape=(40, 15), density=0.5)
        matrix = CSRMatrix.from_dense(dense.astype(np.float32))
        B = rng.standard_normal((40, 3)).astype(np.float32)
        result = block_lsqr(matrix, B, atol=1e-4, btol=1e-4, iter_lim=200)
        assert result.X.dtype == np.float32
        assert not result.any_failed
        assert all(int(s) in (1, 2) for s in result.istop)
