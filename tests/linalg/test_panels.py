"""Row-panel reductions and block LSQR's vector recurrences.

Two contracts: a column's norm has the same bits whatever block it sits
in (full, compacted to fewer columns, one column, any layout), and the
compiled vector loops return the numpy panel reference's bits.
"""

import numpy as np
import pytest

from repro.linalg import kernels, panels
from repro.linalg.kernels import compiled_available, use_backend

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built",
)

#: Row counts: empty, one row, short of a panel, one panel exactly,
#: one row past it, and several panels with a ragged last one.
ROW_COUNTS = (0, 1, 7, panels.PANEL_ROWS, panels.PANEL_ROWS + 1, 5000)


@pytest.fixture(
    params=[
        "reference",
        pytest.param("compiled", marks=needs_compiled),
    ]
)
def backend(request):
    with use_backend(request.param):
        yield request.param


def laid_out(block, layout):
    if layout == "C":
        return np.ascontiguousarray(block)
    if layout == "F":
        return np.asfortranarray(block)
    padded = np.zeros((block.shape[0], 2 * block.shape[1] + 1), block.dtype)
    padded[:, 1::2] = block
    return padded[:, 1::2]


class TestPinnedReductions:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_norms_of_compacted_columns_bitwise(self, n, layout):
        rng = np.random.default_rng(n)
        block = laid_out(rng.standard_normal((n, 7)), layout)
        full = panels.column_norms(block)
        for keep in ([3], [0, 6], [1, 2, 5]):
            compacted = laid_out(block[:, keep], layout)
            assert panels.column_norms(compacted).tobytes() == (
                full[keep].tobytes()
            ), keep
        for j in range(7):
            alone = np.ascontiguousarray(block[:, [j]])
            assert panels.column_norms(alone)[0] == full[j]

    def test_sums_follow_the_documented_order(self):
        """Rows land in row ``i mod PANEL_ROWS`` of the accumulator,
        panel after panel, then fold by halving."""
        n = 2 * panels.PANEL_ROWS + 3
        rng = np.random.default_rng(1)
        block = rng.standard_normal((n, 2))
        acc = block[: panels.PANEL_ROWS].copy()
        acc += block[panels.PANEL_ROWS : 2 * panels.PANEL_ROWS]
        acc[:3] += block[2 * panels.PANEL_ROWS :]
        rows = acc.shape[0]
        while rows > 1:
            half = rows // 2
            acc[:half] += acc[rows - half : rows]
            rows -= half
        assert panels.column_sums(block).tobytes() == acc[0].tobytes()

    def test_float32_squares_accumulate_in_float64(self):
        block = np.full((3, 1), 1e20, np.float32)
        assert panels.column_sums(block, squares=True)[0] == 3 * float(
            np.float32(1e20)
        ) ** 2

    def test_add_product_matches_one_expression(self):
        rng = np.random.default_rng(2)
        out = rng.standard_normal((panels.PANEL_ROWS + 9, 5))
        X = rng.standard_normal(out.shape).astype(np.float32)
        scale = rng.standard_normal(5)
        want = out + X * scale
        assert panels.add_product(out, X, scale) is out
        assert out.tobytes() == want.tobytes()
        mu = rng.standard_normal((out.shape[0], 1))
        want = out + mu * scale
        panels.add_product(out, mu, scale)
        assert out.tobytes() == want.tobytes()


class TestVectorKernels:
    """Compiled and reference vector loops agree bit for bit."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("k", [1, 3, 19])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_reference(self, backend, dtype, n, k, layout):
        rng = np.random.default_rng(n + k)
        blocks = [rng.standard_normal((n, k)).astype(dtype) for _ in range(3)]
        blocks[0][rng.random((n, k)) < 0.05] = -0.0
        scale = rng.standard_normal(k)
        t1, t2 = rng.standard_normal((2, k)).astype(dtype)
        mask = np.arange(k) % 3 != 1
        divisors = np.abs(scale) + 0.5
        divisors[~mask] = np.nan

        def run():
            A, X, V = (laid_out(block.copy(), layout) for block in blocks)
            scratch = panels.panel_scratch(n, k + 2)
            sums = kernels.block_add_sumsq(A, X, -scale, scratch)
            W, Xa = laid_out(blocks[1].copy(), layout), A
            wnorm = kernels.block_advance(W, Xa, V, t1, t2, scratch)
            kernels.block_divide(W, divisors, mask)
            return [a.tobytes() for a in (A, sums, W, Xa, wnorm)]

        got = run()
        with use_backend("reference"):
            want = run()
        assert got == want

    def test_sums_of_squares_are_the_pinned_norms(self, backend):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3000, 4))
        X = rng.standard_normal((3000, 4))
        scale = rng.standard_normal(4)
        sums = kernels.block_add_sumsq(
            A, X, scale, panels.panel_scratch(3000, 4)
        )
        assert sums.tobytes() == (
            panels.column_sums(A, squares=True).tobytes()
        )
