"""Property-based tests for ShardedOperator (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg import kernels
from repro.linalg.operators import as_operator
from repro.linalg.sparse import CSRMatrix
from repro.parallel import ShardedOperator, shard_bounds

pytestmark = pytest.mark.parallel


def sparse_arrays(max_rows=16, max_cols=10):
    shapes = st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols)
    )
    return shapes.flatmap(
        lambda shape: hnp.arrays(
            np.float64,
            shape,
            elements=st.one_of(
                st.just(0.0),
                st.floats(-10, 10, allow_nan=False, width=64),
            ),
        )
    )


#: (matrix dtype, operand dtype): both native pairings and both mixed.
DTYPE_PAIRS = [
    (np.float64, np.float64),
    (np.float32, np.float32),
    (np.float32, np.float64),
    (np.float64, np.float32),
]

KERNEL_BACKENDS = ("reference",) + (
    ("compiled",) if kernels.compiled_available() else ()
)


@settings(max_examples=80, deadline=None)
@given(
    sparse_arrays(),
    st.integers(1, 20),
    st.integers(0, 2**31 - 1),
    st.sampled_from(DTYPE_PAIRS),
    st.sampled_from(KERNEL_BACKENDS),
    st.sampled_from(["serial", "thread"]),
)
def test_csr_products_bitwise_for_any_shard_count(
    dense, n_shards, seed, dtypes, kernel_backend, backend
):
    """All four CSR products equal the unsharded operator byte for
    byte, whatever the shard count, dtypes and backends."""
    matrix_dtype, operand_dtype = dtypes
    matrix = CSRMatrix.from_dense(dense.astype(matrix_dtype))
    m, n = matrix.shape
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    operands = [
        rng.standard_normal(size).astype(operand_dtype)
        for size in (n, m, (n, k), (m, k))
    ]
    kernel_names = ("matvec", "rmatvec", "matmat", "rmatmat")
    with kernels.use_backend(kernel_backend):
        direct = as_operator(matrix)
        with ShardedOperator(
            matrix, n_shards=n_shards, backend=backend, n_jobs=2
        ) as op:
            for name, operand in zip(kernel_names, operands):
                got = getattr(op, name)(operand)
                want = getattr(direct, name)(operand)
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 64))
def test_shard_bounds_partition_rows(m, n_shards):
    bounds = shard_bounds(m, n_shards)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == m
    assert all(start < stop for start, stop in bounds)
    assert all(
        prev_stop == start
        for (_, prev_stop), (start, _) in zip(bounds, bounds[1:])
    )
    sizes = [stop - start for start, stop in bounds]
    assert max(sizes) - min(sizes) <= 1
