"""Parity and dispatch tests for the CSR kernel backends.

The compiled backend's whole contract is *bitwise* equality with the
pure-numpy reference — interchangeable results, different speed.  Every
parity assertion here is therefore ``array_equal`` on the raw values
(and dtype checks), never ``allclose``.
"""

import warnings

import numpy as np
import pytest

from repro.linalg import kernels
from repro.linalg.kernels import (
    KERNEL_BACKEND_ENV,
    KERNEL_BACKENDS,
    active_backend,
    compiled_available,
    csr_matmat,
    csr_rmatmat,
    csr_transpose,
    requested_backend,
    use_backend,
)
from repro.complexity.counter import FlamCountingOperator
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    CSROperator,
    DenseOperator,
)
from repro.linalg.sparse import CSRMatrix
from repro.parallel.sharded import ShardedOperator
from repro.robustness.report import RobustnessWarning

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built",
)


@pytest.fixture(
    params=[
        "reference",
        pytest.param("compiled", marks=needs_compiled),
    ]
)
def backend(request):
    """Run the test under each concrete backend selection."""
    with use_backend(request.param):
        yield request.param


def corner_matrices(dtype):
    """CSR corner cases the kernels must agree on, as (label, matrix).

    Covers: no stored entries, empty rows interleaved with full ones, a
    single row/column, duplicate column indices within one row (CSR
    permits them; products must accumulate both), and a row longer than
    128 entries (numpy's pairwise summation switches to its recursive
    split there — the compiled port must follow it exactly).
    """
    rng = np.random.default_rng(987)

    def from_dense(dense):
        return CSRMatrix.from_dense(np.asarray(dense, dtype=dtype))

    dense = rng.standard_normal((13, 9))
    dense[rng.random((13, 9)) > 0.4] = 0.0
    dense[3] = 0.0
    dense[7] = 0.0
    yield "mixed", from_dense(dense)
    yield "all_zero", from_dense(np.zeros((4, 5)))
    yield "single_row", from_dense(rng.standard_normal((1, 6)))
    yield "single_col", from_dense(rng.standard_normal((6, 1)))
    yield "dense_block", from_dense(rng.standard_normal((8, 7)))

    # duplicate column indices inside one row
    data = np.asarray([1.5, -2.25, 0.75, 3.0], dtype=dtype)
    indices = np.array([2, 2, 0, 2], dtype=np.int64)
    indptr = np.array([0, 3, 4], dtype=np.int64)
    yield "duplicate_cols", CSRMatrix(data, indices, indptr, (2, 4))

    # one long row (> 128 nnz) hits the recursive pairwise split; one
    # mid row (8 < nnz <= 128) hits the unrolled 8-accumulator loop
    long_row = rng.standard_normal((1, 300))
    long_row[0, rng.random(300) > 0.9] = 0.0  # keep most entries
    tall = np.vstack([long_row, np.zeros((1, 300)),
                      rng.standard_normal((2, 300))])
    yield "long_rows", from_dense(tall)


def operands(matrix, seed=0):
    rng = np.random.default_rng(seed)
    dtype = matrix.dtype
    m, n = matrix.shape
    return {
        "v": rng.standard_normal(n).astype(dtype),
        "u": rng.standard_normal(m).astype(dtype),
        "B": rng.standard_normal((n, 3)).astype(dtype),
        "U": rng.standard_normal((m, 3)).astype(dtype),
    }


class TestBitwiseParity:
    """Dispatch output must equal the reference kernels bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_kernels_all_corners(self, backend, dtype):
        for label, matrix in corner_matrices(dtype):
            ops = operands(matrix)
            # the reference of a mat-vec is its width-1 block
            cases = [
                ("matvec", csr_matmat(matrix, ops["v"]),
                 matrix.matmat(ops["v"][:, None])[:, 0]),
                ("rmatvec", csr_rmatmat(matrix, ops["u"]),
                 matrix.rmatmat(ops["u"][:, None])[:, 0]),
                ("matmat", csr_matmat(matrix, ops["B"]),
                 matrix.matmat(ops["B"])),
                ("rmatmat", csr_rmatmat(matrix, ops["U"]),
                 matrix.rmatmat(ops["U"])),
            ]
            for kernel, got, want in cases:
                assert got.dtype == want.dtype, (backend, label, kernel)
                assert got.tobytes() == want.tobytes(), (
                    backend, label, kernel,
                )

    @pytest.mark.parametrize(
        "dtype, operand_dtype",
        [
            (np.float64, np.float64),
            (np.float32, np.float32),
            (np.float64, np.float32),
        ],
    )
    @pytest.mark.parametrize(
        "holder",
        [
            "matrix", "operator", 1, 2, "append_ones", "centering",
            "dense", "flam", "dense_sharded",
        ],
    )
    def test_matvec_is_the_width_one_block(
        self, backend, dtype, operand_dtype, holder
    ):
        """``A.matvec(v)`` and ``A.rmatvec(u)`` are the bytes of the
        width-1 ``matmat``/``rmatmat`` column, for a ``CSRMatrix``, its
        ``CSROperator``, a ``ShardedOperator`` of 1 or 2 shards, the
        append-ones and centering wrappers over it, its dense operator,
        a flam-counting wrapper and a dense 2-shard operator — empty
        rows and ``nnz == 0`` included."""
        for label, matrix in corner_matrices(dtype):
            if holder == "matrix":
                A = matrix
            elif holder == "operator":
                A = CSROperator(matrix)
            elif holder == "append_ones":
                A = AppendOnesOperator(CSROperator(matrix))
            elif holder == "centering":
                A = CenteringOperator(CSROperator(matrix))
            elif holder == "dense":
                A = DenseOperator(matrix.to_dense())
            elif holder == "flam":
                A = FlamCountingOperator(CSROperator(matrix))
            elif holder == "dense_sharded":
                A = ShardedOperator(
                    matrix.to_dense(), n_shards=2, backend="serial"
                )
            else:
                A = ShardedOperator(matrix, n_shards=holder, backend="serial")
            rng = np.random.default_rng(0)
            v = rng.standard_normal(A.shape[1]).astype(operand_dtype)
            u = rng.standard_normal(A.shape[0]).astype(operand_dtype)
            cases = [
                ("matvec", A.matvec(v), A.matmat(v[:, None])),
                ("rmatvec", A.rmatvec(u), A.rmatmat(u[:, None])),
            ]
            for kernel, got, block in cases:
                want = block[:, 0]
                assert got.dtype == want.dtype, (label, kernel)
                assert got.tobytes() == want.tobytes(), (label, kernel)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rmatvec_keeps_the_direct_adjoint_order(self, backend, dtype):
        """The forward kernel over ``A.T`` sums each column of ``A`` in
        row order, exactly as a direct adjoint does: ``reduceat`` over
        the stably column-sorted entries."""
        for label, matrix in corner_matrices(dtype):
            u = operands(matrix)["u"]
            products = matrix.data * u[matrix._row_ids]
            n = matrix.shape[1]
            order = np.argsort(matrix.indices, kind="stable")
            counts = np.bincount(matrix.indices, minlength=n)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            cols = np.flatnonzero(counts)
            want = np.zeros(n, dtype=dtype)
            if cols.size:
                want[cols] = np.add.reduceat(products[order], starts[cols])
            got = csr_rmatmat(matrix, u)
            assert got.tobytes() == want.tobytes(), (backend, label)

    def test_matvec_negative_zero_semantics(self, backend):
        """An empty row and a row summing to zero both yield +0.0 on
        both backends: an empty row is written as zero, and
        ``1.0 + -1.0`` rounds to +0.0."""
        matrix = CSRMatrix.from_dense(
            np.array([[0.0, 0.0], [1.0, -1.0]])
        )
        v = np.array([1.0, 1.0])
        got = csr_matmat(matrix, v)
        want = matrix.matmat(v[:, None])[:, 0]
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()


#: Column-panel width of the compiled block kernels (32 when unbuilt).
PANEL = getattr(kernels._compiled, "PANEL_WIDTH", 32)

#: Stored entries per row: empty, single, every short (< 8 term) sum,
#: one 8-accumulator block with and without a tail, the last length
#: before the recursive split, the first after it, and several levels
#: of recursion.
SEGMENT_LENGTHS = (0, 1, 2, 7, 8, 9, 128, 129, 1100)

#: Block widths: small, one SIMD-width edge either side, the paper's
#: news case (c - 1 = 19), and one and two panels past the first.
BLOCK_WIDTHS = (2, 3, 16, 17, 19, PANEL + 1, 2 * PANEL + 3)


def segment_matrix(dtype, n_cols=40, seed=11):
    """Rows of exactly ``SEGMENT_LENGTHS`` stored entries, random columns
    (so duplicates within a row occur)."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(SEGMENT_LENGTHS)
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(lengths)
    nnz = int(indptr[-1])
    return CSRMatrix(
        rng.standard_normal(nnz).astype(dtype),
        rng.integers(0, n_cols, nnz),
        indptr,
        (lengths.size, n_cols),
    )


def reference_rmatmat(matrix, U):
    """``A.T @ U`` on the argsort-built transpose, under the reference
    backend, independent of any transpose ``matrix`` has cached."""
    data, indices, indptr = matrix._transpose_arrays()
    transpose = CSRMatrix(data, indices, indptr, matrix.shape[::-1])
    with use_backend("reference"):
        return transpose.matmat(U)


def laid_out(block, layout):
    """``block`` as a C-ordered, F-ordered or non-contiguous array."""
    if layout == "C":
        return np.ascontiguousarray(block)
    if layout == "F":
        return np.asfortranarray(block)
    padded = np.zeros((block.shape[0], 2 * block.shape[1]), block.dtype)
    padded[:, ::2] = block
    return padded[:, ::2]


class TestOnePassBlockKernels:
    """The one-pass block kernels against the reference, every segment
    length and block width, bit for bit."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("k", BLOCK_WIDTHS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block_products_bitwise(self, backend, dtype, k, layout):
        matrix = segment_matrix(dtype)
        rng = np.random.default_rng(k)
        B = rng.standard_normal((matrix.shape[1], k)).astype(dtype)
        U = rng.standard_normal((matrix.shape[0], k)).astype(dtype)
        B[rng.random(B.shape) < 0.1] = -0.0
        U[rng.random(U.shape) < 0.1] = -0.0
        got = csr_matmat(matrix, laid_out(B, layout))
        with use_backend("reference"):
            want = matrix.matmat(B)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        got = csr_rmatmat(matrix, laid_out(U, layout))
        assert got.tobytes() == reference_rmatmat(matrix, U).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_negative_zero_sums(self, backend, dtype):
        """Sums of negative zeros keep numpy's sign at every length."""
        matrix = segment_matrix(dtype)
        matrix.data[:] = np.abs(matrix.data)
        B = np.full((matrix.shape[1], 19), -0.0, dtype=dtype)
        B[:, 1] = 0.0
        got = csr_matmat(matrix, B)
        with use_backend("reference"):
            want = matrix.matmat(B)
        assert np.signbit(want[:, 0]).any()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_inf_and_nan_entries(self, backend, dtype):
        """``inf`` and ``nan`` in the matrix and the operand.

        Values stay positive, so no NaN is created inside a sum (no
        ``inf - inf``, no ``inf * 0``) and every NaN carries numpy's
        one ``nan`` payload: the result bytes must match.
        """
        matrix = segment_matrix(dtype)
        rng = np.random.default_rng(3)
        matrix.data[:] = np.abs(matrix.data) + 0.5
        pick = rng.random(matrix.nnz)
        matrix.data[pick < 0.01] = np.inf
        matrix.data[pick > 0.99] = np.nan
        B = (np.abs(rng.standard_normal((matrix.shape[1], 19))) + 0.5)
        B = B.astype(dtype)
        B[rng.random(B.shape) < 0.02] = np.inf
        B[rng.random(B.shape) < 0.02] = np.nan
        U = (np.abs(rng.standard_normal((matrix.shape[0], 19))) + 0.5)
        U = U.astype(dtype)
        U[0, 3] = np.inf
        U[1, 4] = np.nan
        with np.errstate(invalid="ignore"):
            got = csr_matmat(matrix, B)
            with use_backend("reference"):
                want = matrix.matmat(B)
            assert np.isnan(want).any() and np.isinf(want).any()
            assert got.tobytes() == want.tobytes()
            got = csr_rmatmat(matrix, U)
            assert got.tobytes() == reference_rmatmat(matrix, U).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nans_of_both_signs(self, backend, dtype):
        """Where NaNs of both signs meet (``inf - inf`` makes a negative
        NaN, ``nan`` is positive), the result is NaN in the same places
        and every other value is the same bits.

        Which NaN's sign survives an addition of two NaNs is the
        operand order each compiled binary chose, numpy's included, and
        C does not pin it; that sign is the one bit the backends may
        disagree on.
        """
        matrix = segment_matrix(dtype)
        rng = np.random.default_rng(4)
        pick = rng.random(matrix.nnz)
        matrix.data[pick < 0.02] = np.inf
        matrix.data[pick > 0.98] = np.nan
        B = rng.standard_normal((matrix.shape[1], 19)).astype(dtype)
        B[rng.random(B.shape) < 0.05] = -0.0
        with np.errstate(invalid="ignore"):
            got = csr_matmat(matrix, B)
            with use_backend("reference"):
                want = matrix.matmat(B)
        nan = np.isnan(want)
        assert nan.any()
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def destinations(shape, dtype):
    """NaN-filled destinations of ``shape`` in three layouts: a row range
    of a larger row-major block, a Fortran block and a strided view."""
    rows, k = shape
    yield "row_range", np.full((rows + 5, k), np.nan, dtype)[2 : rows + 2]
    yield "fortran", np.full(shape, np.nan, dtype, order="F")
    yield "strided", np.full((rows, 2 * k + 1), np.nan, dtype)[:, 1::2]


class TestProductDestinations:
    """``out=`` receives the fresh product's bits in any layout, with
    every row written: the NaN prefill must not survive in empty rows."""

    @pytest.mark.parametrize("k", [1, 3, 19, PANEL + 1])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_out_bitwise_equals_fresh_product(self, backend, dtype, k):
        base = segment_matrix(dtype)
        # eight empty columns: the adjoint has eight empty rows too
        matrix = CSRMatrix(
            base.data, base.indices, base.indptr, (base.shape[0], 48)
        )
        rng = np.random.default_rng(k)
        B = rng.standard_normal((48, k)).astype(dtype)
        U = rng.standard_normal((matrix.shape[0], k)).astype(dtype)
        for product, operand in ((csr_matmat, B), (csr_rmatmat, U)):
            with use_backend("reference"):
                want = product(matrix, operand)
            fresh = product(matrix, operand)
            assert fresh.flags.c_contiguous
            assert fresh.tobytes() == want.tobytes()
            for label, out in destinations(want.shape, dtype):
                assert product(matrix, operand, out=out) is out
                assert out.tobytes() == want.tobytes(), (product, label)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_columns_do_not_depend_on_block_width(self, backend, dtype):
        """A column's product has the same bits alone (width 1, no
        mat-vec detour) as inside a wider block."""
        matrix = segment_matrix(dtype)
        rng = np.random.default_rng(5)
        B = rng.standard_normal((matrix.shape[1], 5)).astype(dtype)
        U = rng.standard_normal((matrix.shape[0], 5)).astype(dtype)
        for product, operand in ((csr_matmat, B), (csr_rmatmat, U)):
            full = product(matrix, operand)
            for j in range(5):
                alone = product(matrix, np.ascontiguousarray(operand[:, [j]]))
                assert alone.tobytes() == full[:, [j]].tobytes()

    def test_mismatched_out_is_rejected(self, backend):
        matrix = segment_matrix(np.float64)
        m, n = matrix.shape
        B = np.ones((n, 3))
        U = np.ones((m, 3))
        with pytest.raises(ValueError, match="shape"):
            csr_matmat(matrix, B, out=np.empty((m, 4)))
        with pytest.raises(ValueError, match="shape"):
            csr_rmatmat(matrix, U, out=np.empty((n + 1, 3)))
        with pytest.raises(ValueError, match="dtype"):
            csr_matmat(matrix, B, out=np.empty((m, 3), np.float32))
        with pytest.raises(ValueError, match="dtype"):
            csr_rmatmat(matrix, U, out=np.empty((n, 3), np.float32))
        frozen = np.empty((m, 3))
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            csr_matmat(matrix, B, out=frozen)


needs_tile = pytest.mark.skipif(
    kernels.kernel_tile() != "avx512f",
    reason="no AVX-512F register tile: the CPU lacks AVX-512F, the build "
    "is not x86-64 GCC/Clang, or the extension is not built",
)


@pytest.fixture(
    params=[
        "reference",
        pytest.param("lanes", marks=needs_compiled),
        pytest.param("tile", marks=needs_tile),
    ]
)
def lane_path(request):
    """Run the test on the reference, then on each compiled path of the
    float64 block product: the portable lane loop and the AVX-512F
    register tile (switched through the extension's test hook)."""
    if request.param == "reference":
        with use_backend("reference"):
            yield request.param
        return
    previous = kernels._compiled._use_tile(request.param == "tile")
    try:
        with use_backend("compiled"):
            yield request.param
    finally:
        kernels._compiled._use_tile(previous)


#: Stored entries per row for the tile: empty, single, every short
#: (< 8 term) tail of ``seg[1:]``, the 8-accumulator block with every
#: remainder, its last length (129: 128 terms after ``seg[0]``), and the
#: recursive split from 130 on.
TILE_ROW_LENGTHS = (
    (0, 1) + tuple(range(2, 9)) + tuple(range(9, 18)) + (63, 64, 65, 128, 129)
    + (130, 131, 137, 257, 300, 1100)
)


def tile_matrix(n_cols=60, seed=21):
    """float64 rows of exactly ``TILE_ROW_LENGTHS`` stored entries, random
    columns (so duplicates within a row occur)."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(TILE_ROW_LENGTHS)
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(lengths)
    nnz = int(indptr[-1])
    return CSRMatrix(
        rng.standard_normal(nnz),
        rng.integers(0, n_cols, nnz),
        indptr,
        (lengths.size, n_cols),
    )


def reference_products(matrix, B, U):
    with use_backend("reference"):
        return matrix.matmat(B), reference_rmatmat(matrix, U)


class TestRegisterTile:
    """float64 block products on the lane loop and on the register tile
    return the reference's bytes: every mask tail, vector and panel
    boundary, row length, signed zero and non-finite entry, and output
    layout."""

    #: 1-50 columns: each 1-7-lane tail of a masked vector, 8/16/24
    #: lanes (one, two, three full vectors), and 2-3 panels of 24.
    @pytest.mark.parametrize("k", range(1, 51))
    def test_widths_bitwise(self, lane_path, k):
        matrix = tile_matrix()
        rng = np.random.default_rng(100 + k)
        B = rng.standard_normal((matrix.shape[1], k))
        U = rng.standard_normal((matrix.shape[0], k))
        B[rng.random(B.shape) < 0.1] = -0.0
        want_mm, want_rm = reference_products(matrix, B, U)
        got = csr_matmat(matrix, B)
        assert got.flags.c_contiguous
        assert got.tobytes() == want_mm.tobytes()
        assert csr_rmatmat(matrix, U).tobytes() == want_rm.tobytes()

    @pytest.mark.parametrize("k", [3, 8, 9, 19, 24, 27])
    def test_negative_zero_sums(self, lane_path, k):
        """All-``-0.0`` lanes keep numpy's sign at every row length;
        a ``+0.0`` lane beside them stays positive."""
        matrix = tile_matrix()
        matrix.data[:] = np.abs(matrix.data)
        B = np.full((matrix.shape[1], k), -0.0)
        B[:, 1] = 0.0
        want, _ = reference_products(matrix, B, B[: matrix.shape[0]])
        got = csr_matmat(matrix, B)
        assert np.signbit(want[:, 0]).any()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [3, 8, 19, 24, 31])
    def test_inf_and_nan_entries(self, lane_path, k):
        """Positive values with ``inf``/``nan`` in the matrix and the
        operand: no NaN is made inside a sum, so the bytes match."""
        matrix = tile_matrix()
        rng = np.random.default_rng(7)
        matrix.data[:] = np.abs(matrix.data) + 0.5
        pick = rng.random(matrix.nnz)
        matrix.data[pick < 0.01] = np.inf
        matrix.data[pick > 0.99] = np.nan
        B = np.abs(rng.standard_normal((matrix.shape[1], k))) + 0.5
        B[rng.random(B.shape) < 0.02] = np.inf
        B[rng.random(B.shape) < 0.02] = np.nan
        U = np.abs(rng.standard_normal((matrix.shape[0], k))) + 0.5
        U[0, 1] = np.inf
        U[5, 2] = np.nan
        with np.errstate(invalid="ignore"):
            want_mm, want_rm = reference_products(matrix, B, U)
            assert np.isnan(want_mm).any() and np.isinf(want_mm).any()
            assert csr_matmat(matrix, B).tobytes() == want_mm.tobytes()
            assert csr_rmatmat(matrix, U).tobytes() == want_rm.tobytes()

    @pytest.mark.parametrize("k", [3, 5, 19, 24, 33])
    def test_strided_destinations(self, lane_path, k):
        """A shard's rows written into its row range of the whole
        product, the adjoint into rows ``:n`` of an ``(n + 1, k)`` block,
        and a column-strided block, each NaN-prefilled."""
        matrix = tile_matrix()
        m, n = matrix.shape
        rng = np.random.default_rng(k)
        B = rng.standard_normal((n, k))
        U = rng.standard_normal((m, k))
        want_mm, want_rm = reference_products(matrix, B, U)

        whole = np.full((m, k), np.nan)
        for start, stop in ((0, 11), (11, 23), (23, m)):
            shard = CSRMatrix(
                matrix.data[matrix.indptr[start]:matrix.indptr[stop]],
                matrix.indices[matrix.indptr[start]:matrix.indptr[stop]],
                matrix.indptr[start:stop + 1] - matrix.indptr[start],
                (stop - start, n),
            )
            csr_matmat(shard, B, out=whole[start:stop])
        assert whole.tobytes() == want_mm.tobytes()

        spare = np.full((n + 1, k), np.nan)
        assert csr_rmatmat(matrix, U, out=spare[:n]).base is spare
        assert spare[:n].tobytes() == want_rm.tobytes()
        assert np.isnan(spare[n]).all()

        strided = np.full((m, 2 * k), np.nan)[:, ::2]
        csr_matmat(matrix, B, out=strided)
        assert strided.tobytes() == want_mm.tobytes()

    @needs_compiled
    def test_kernel_tile_names_the_path(self):
        assert kernels.kernel_tile() in ("avx512f", "none")
        previous = kernels._compiled._use_tile(False)
        try:
            assert kernels.kernel_tile() == "none"
        finally:
            kernels._compiled._use_tile(previous)


@needs_compiled
class TestCompiledTranspose:
    """The counting-sort transpose returns the argsort build's bytes."""

    @staticmethod
    def cases(dtype):
        yield from corner_matrices(dtype)
        yield "segments", segment_matrix(dtype)
        # empty leading/trailing rows and columns around the entries
        data = np.asarray([2.0, -1.0, 4.0, 0.5, 3.0], dtype=dtype)
        indices = np.array([5, 1, 5, 1, 3], dtype=np.int64)
        indptr = np.array([0, 0, 2, 2, 5, 5], dtype=np.int64)
        yield "empty_rows_cols", CSRMatrix(data, indices, indptr, (5, 8))
        yield "no_columns", CSRMatrix(
            np.empty(0, dtype), np.empty(0, np.int64),
            np.zeros(4, np.int64), (3, 0),
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_equal_argsort_build(self, dtype):
        for label, matrix in self.cases(dtype):
            with use_backend("compiled"):
                got = csr_transpose(matrix)
            want = matrix._transpose_arrays()
            for g, w in zip(got, want):
                assert g.dtype == w.dtype, label
                assert g.tobytes() == w.tobytes(), label

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_T_property(self, dtype):
        for label, matrix in self.cases(dtype):
            fresh = CSRMatrix(
                matrix.data, matrix.indices, matrix.indptr, matrix.shape
            )
            with use_backend("compiled"):
                transpose = fresh.T
            # the counting sort needs no per-entry row ids
            assert fresh._row_ids_cache is None, label
            assert transpose.T is fresh, label
            data, indices, indptr = matrix._transpose_arrays()
            assert transpose.shape == matrix.shape[::-1]
            assert transpose.data.tobytes() == data.tobytes(), label
            assert transpose.indices.tobytes() == indices.tobytes(), label
            assert transpose.indptr.tobytes() == indptr.tobytes(), label


class TestMixedDtypeRouting:
    """Ineligible calls fall back to the reference — never new numerics."""

    def test_f32_operand_on_f64_matrix(self, backend, rng):
        dense = rng.standard_normal((10, 6))
        matrix = CSRMatrix.from_dense(dense)
        v32 = rng.standard_normal(6).astype(np.float32)
        got = csr_matmat(matrix, v32)
        want = matrix.matmat(v32[:, None])[:, 0]
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_f64_operand_on_f32_matrix_falls_back(self, backend, rng):
        dense = rng.standard_normal((10, 6)).astype(np.float32)
        matrix = CSRMatrix.from_dense(dense)
        v64 = rng.standard_normal(6)
        got = csr_matmat(matrix, v64)
        want = matrix.matmat(v64[:, None])[:, 0]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_mixed_dtype_matmat(self, backend, rng):
        dense = rng.standard_normal((10, 6)).astype(np.float32)
        matrix = CSRMatrix.from_dense(dense)
        B64 = rng.standard_normal((6, 3))
        got = csr_matmat(matrix, B64)
        want = matrix.matmat(B64)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_noncontiguous_storage_falls_back(self, backend, rng):
        base = CSRMatrix.from_dense(rng.standard_normal((8, 5)))
        # a strided view of a larger buffer is still a valid CSRMatrix,
        # but the C kernels require native layout
        padded = np.zeros(2 * base.nnz)
        padded[::2] = base.data
        strided = CSRMatrix(
            padded[::2], base.indices, base.indptr, base.shape
        )
        v = rng.standard_normal(5)
        assert csr_matmat(strided, v).tobytes() == (
            base.matmat(v[:, None])[:, 0].tobytes()
        )

    def test_shape_errors_match_reference(self, backend, rng):
        matrix = CSRMatrix.from_dense(rng.standard_normal((6, 4)))
        with pytest.raises(ValueError, match="matvec"):
            csr_matmat(matrix, np.ones(5))
        with pytest.raises(ValueError, match="rmatvec"):
            csr_rmatmat(matrix, np.ones(7))
        with pytest.raises(ValueError, match="dimension"):
            csr_matmat(matrix, np.ones((5, 2)))
        with pytest.raises(ValueError, match="dimension"):
            csr_rmatmat(matrix, np.ones((7, 2)))

    def test_vector_block_routing(self, backend, rng):
        """1-D operands return 1-D mat-vecs, and single-column blocks
        stay blocks, exactly as in the reference."""
        matrix = CSRMatrix.from_dense(rng.standard_normal((6, 4)))
        v = rng.standard_normal(4)
        u = rng.standard_normal(6)
        assert csr_matmat(matrix, v).ndim == 1
        assert csr_matmat(matrix, v[:, None]).shape == (6, 1)
        assert csr_rmatmat(matrix, u).ndim == 1
        assert csr_rmatmat(matrix, u[:, None]).shape == (4, 1)
        assert csr_matmat(matrix, v[:, None]).tobytes() == (
            matrix.matmat(v[:, None]).tobytes()
        )
        assert csr_rmatmat(matrix, u[:, None]).tobytes() == (
            matrix.rmatmat(u[:, None]).tobytes()
        )


class TestSelection:
    """Backend resolution: context override > env var > auto."""

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert requested_backend() == "auto"
        assert active_backend() in ("reference", "compiled")

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "reference")
        assert requested_backend() == "reference"
        assert active_backend() == "reference"

    def test_env_var_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            requested_backend()

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "auto")
        with use_backend("reference"):
            assert requested_backend() == "reference"
        assert requested_backend() == "auto"

    def test_use_backend_nests_and_restores(self):
        before = requested_backend()
        with use_backend("reference"):
            with use_backend("auto"):
                assert requested_backend() == "auto"
            assert requested_backend() == "reference"
        assert requested_backend() == before

    def test_use_backend_none_is_noop(self):
        before = requested_backend()
        with use_backend(None):
            assert requested_backend() == before

    def test_use_backend_invalid_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with use_backend("simd"):
                pass  # pragma: no cover

    def test_backend_names_frozen(self):
        assert KERNEL_BACKENDS == ("auto", "reference", "compiled")

    @needs_compiled
    def test_auto_prefers_compiled(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        with use_backend("auto"):
            assert active_backend() == "compiled"


class TestMissingExtensionFallback:
    """Explicit 'compiled' without the extension warns once, then runs
    the reference; 'auto' stays silent."""

    @pytest.fixture
    def no_extension(self, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", None)
        kernels._reset_missing_warning()
        yield
        kernels._reset_missing_warning()

    def test_explicit_compiled_warns_once(self, no_extension, rng):
        matrix = CSRMatrix.from_dense(rng.standard_normal((5, 4)))
        v = rng.standard_normal(4)
        with use_backend("compiled"):
            with pytest.warns(RobustnessWarning, match="not built"):
                first = csr_matmat(matrix, v)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                second = csr_matmat(matrix, v)
        assert first.tobytes() == matrix.matmat(v[:, None])[:, 0].tobytes()
        assert second.tobytes() == first.tobytes()

    def test_auto_falls_back_silently(self, no_extension, rng):
        matrix = CSRMatrix.from_dense(rng.standard_normal((5, 4)))
        v = rng.standard_normal(4)
        with use_backend("auto"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert active_backend() == "reference"
                result = csr_matmat(matrix, v)
        assert result.tobytes() == matrix.matmat(v[:, None])[:, 0].tobytes()

    def test_compiled_available_reports_false(self, no_extension):
        assert not compiled_available()

    def test_kernel_tile_reports_none(self, no_extension):
        assert kernels.kernel_tile() == "none"


class TestConfigIntegration:
    """SolverConfig carries the knob; SRDA scopes it around fits."""

    def test_config_validates_backend_name(self):
        from repro.core.solver_config import SolverConfig

        for name in (None,) + KERNEL_BACKENDS:
            assert SolverConfig(kernel_backend=name).kernel_backend == name
        with pytest.raises(ValueError, match="kernel_backend"):
            SolverConfig(kernel_backend="gpu")

    @needs_compiled
    def test_srda_fit_bitwise_across_backends(self, sparse_classification):
        from repro.core.solver_config import SolverConfig
        from repro.core.srda import SRDA

        matrix, _, y = sparse_classification
        fits = {}
        for name in ("reference", "compiled"):
            model = SRDA(
                alpha=0.1,
                config=SolverConfig(solver="lsqr", kernel_backend=name),
            ).fit(matrix, y)
            fits[name] = model.components_
        assert fits["reference"].tobytes() == fits["compiled"].tobytes()

    def test_model_io_round_trips_backend(self, tmp_path,
                                          sparse_classification):
        from repro.core.solver_config import SolverConfig
        from repro.core.srda import SRDA
        from repro.io import load_model, save_model

        matrix, _, y = sparse_classification
        model = SRDA(
            alpha=0.1,
            config=SolverConfig(kernel_backend="reference"),
        ).fit(matrix, y)
        path = save_model(model, tmp_path / "model")
        loaded = load_model(path)
        assert loaded.config.kernel_backend == "reference"
