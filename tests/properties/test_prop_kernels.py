"""Property-based parity for the CSR kernel dispatch layer.

Random shapes, densities, and dtypes; the invariant is always the same:
whatever backend runs, the dispatch functions return byte-identical
results to the pure-numpy reference kernels of ``CSRMatrix``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import kernels
from repro.linalg.sparse import CSRMatrix

BACKENDS = ("reference",) + (
    ("compiled",) if kernels.compiled_available() else ()
)


def csr_case(seed):
    """A random CSR matrix plus conforming operands for every kernel."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    n = int(rng.integers(1, 30))
    density = float(rng.uniform(0.0, 1.0))
    dtype = np.float32 if rng.integers(2) else np.float64
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) > density] = 0.0
    matrix = CSRMatrix.from_dense(dense.astype(dtype))
    k = int(rng.integers(1, 5))
    return (
        matrix,
        rng.standard_normal(n).astype(dtype),
        rng.standard_normal(m).astype(dtype),
        rng.standard_normal((n, k)).astype(dtype),
        rng.standard_normal((m, k)).astype(dtype),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dispatch_bitwise_equals_reference(seed):
    matrix, v, u, B, U = csr_case(seed)
    # the reference of a mat-vec is its width-1 block
    want = (
        matrix.matmat(v[:, None])[:, 0],
        matrix.rmatmat(u[:, None])[:, 0],
        matrix.matmat(B),
        matrix.rmatmat(U),
    )
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            got = (
                kernels.csr_matmat(matrix, v),
                kernels.csr_rmatmat(matrix, u),
                kernels.csr_matmat(matrix, B),
                kernels.csr_rmatmat(matrix, U),
            )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rmatvec_keeps_the_direct_adjoint_order(seed):
    """``A.T @ u`` as the forward kernel over the transpose equals a
    direct adjoint under every backend: ``reduceat`` over the stably
    column-sorted entries."""
    matrix, _, u, _, _ = csr_case(seed)
    products = matrix.data * u[matrix._row_ids]
    n = matrix.shape[1]
    order = np.argsort(matrix.indices, kind="stable")
    counts = np.bincount(matrix.indices, minlength=n)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    cols = np.flatnonzero(counts)
    want = np.zeros(n, dtype=matrix.dtype)
    if cols.size:
        want[cols] = np.add.reduceat(products[order], starts[cols])
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            got = kernels.csr_rmatmat(matrix, u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(
    len(BACKENDS) < 2, reason="compiled kernel extension not built"
)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_backends_agree_with_each_other(seed):
    """Direct compiled-vs-reference comparison, independent of the
    reference-methods cross-check above."""
    matrix, v, u, B, U = csr_case(seed)
    results = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            results[backend] = (
                kernels.csr_matmat(matrix, v).tobytes(),
                kernels.csr_rmatmat(matrix, u).tobytes(),
                kernels.csr_matmat(matrix, B).tobytes(),
                kernels.csr_rmatmat(matrix, U).tobytes(),
            )
    assert results["reference"] == results["compiled"]


#: Column-panel width of the compiled block kernels (32 when unbuilt).
PANEL = getattr(kernels._compiled, "PANEL_WIDTH", 32)


def block_case(seed):
    """Random CSR with row lengths across every pairwise branch (duplicate
    columns allowed, empty rows and columns likely), a random block
    width up to two panels past the first, and operands in a random
    memory layout."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    n = int(rng.integers(1, 50))
    dtype = np.float32 if rng.integers(2) else np.float64
    lengths = rng.choice([0, 1, 2, 5, 8, 9, 31, 128, 129, 300], size=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(lengths)
    nnz = int(indptr[-1])
    matrix = CSRMatrix(
        rng.standard_normal(nnz).astype(dtype),
        rng.integers(0, n, nnz),
        indptr,
        (m, n),
    )
    k = int(rng.integers(2, 2 * PANEL + 4))
    layout = rng.choice(["C", "F", "strided"])

    def block(rows):
        values = rng.standard_normal((rows, k)).astype(dtype)
        values[rng.random(values.shape) < 0.05] = -0.0
        if layout == "C":
            return np.ascontiguousarray(values)
        if layout == "F":
            return np.asfortranarray(values)
        return np.repeat(values, 2, axis=1)[:, ::2]

    return matrix, block(n), block(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_block_products_bitwise(seed):
    """One-pass block kernels equal the per-column reference sweep."""
    matrix, B, U = block_case(seed)
    data, indices, indptr = matrix._transpose_arrays()
    transpose = CSRMatrix(data, indices, indptr, matrix.shape[::-1])
    with kernels.use_backend("reference"):
        want = (matrix.matmat(B), transpose.matmat(U))
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            got = (
                kernels.csr_matmat(matrix, B),
                kernels.csr_rmatmat(matrix, U),
            )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_transpose_bytes_equal_argsort_build(seed):
    """Every backend's transpose is the stable argsort build, byte for
    byte, and transposing back returns the original matrix object."""
    matrix, _, _ = block_case(seed)
    want = matrix._transpose_arrays()
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            got = kernels.csr_transpose(matrix)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
    with kernels.use_backend(BACKENDS[-1]):
        assert matrix.T.T is matrix
