"""Row-panel column reductions and in-place updates of ``(n, k)`` blocks.

Block LSQR carries its state in a few ``(n, k)`` blocks, one column
per right-hand side, and per iteration needs two kinds of vector work
on them: per-column norms, and updates such as ``Xa += t1·W``.  This
module holds both as numpy code over row panels of at most
:data:`PANEL_ROWS` rows.  It is the reference for the fused compiled
loops that :mod:`repro.linalg.kernels` dispatches to, which return the
same bits.

**Pinned reduction order.**  ``np.einsum("ij,ij->j")`` and
``sum(axis=0)`` take their accumulation order from the block's layout
and width.  On a row-major block they add row after row; on a
one-column or Fortran block they sum pairwise.  The same column could
therefore round one way in a full block and another in a compacted one
or a replay.  :func:`column_sums` pins one order instead.  Row ``i`` of
the block lands in row ``i mod PANEL_ROWS`` of a scratch accumulator,
panel after panel, and the accumulator's rows then fold by halving
(:func:`fold_rows`).  A column's sum depends on its values alone, not
on the block's width, layout or neighbouring columns.

**No full-size temporaries.**  ``out += X * s`` written as one numpy
expression allocates an ``(n, k)`` product first.  Here each product is
formed one panel at a time in a panel-sized scratch.  It still rounds in
``result_type(X, s)`` before the add, so the result has the same bits
as the one-expression form.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro._typing import BoolArray, DTypeLike, FloatArray

__all__ = [
    "PANEL_ROWS",
    "add_product",
    "add_sumsq",
    "advance_directions",
    "column_norms",
    "column_sums",
    "divide_columns",
    "fold_rows",
    "panel_scratch",
    "row_panels",
]

#: Rows per panel.  Part of the reduction order, so results depend on
#: it.  It also sizes the scratch: ``2 × 1024 × k`` float64 values,
#: under a tenth of a 26214-row block at any ``k``.
PANEL_ROWS = 1024


def row_panels(n_rows: int) -> List[slice]:
    """Consecutive row ranges of at most :data:`PANEL_ROWS` rows.

    Complexity: O(n) — one slice per panel of rows.
    """
    return [
        slice(start, min(start + PANEL_ROWS, n_rows))
        for start in range(0, n_rows, PANEL_ROWS)
    ]


def panel_scratch(
    n_rows: int, k: int, dtype: DTypeLike = np.float64
) -> FloatArray:
    """Scratch for the reductions and updates of ``(n_rows, ≤ k)`` blocks.

    Complexity: O(k) — an uninitialized ``2 × min(n_rows, PANEL_ROWS)
    × k`` allocation, independent of ``n_rows`` beyond one panel.

    ``scratch[0]`` is the reduction accumulator and ``scratch[1]`` holds
    each panel's products; a block of fewer columns uses the leading
    ones.
    """
    return np.empty((2, min(n_rows, PANEL_ROWS), k), dtype=dtype)


def fold_rows(part: FloatArray) -> FloatArray:
    """Sum the rows of ``part`` into ``part[0]`` by halving, in place.

    Complexity: O(n·k) for an ``(n, k)`` panel, in ⌈log₂ n⌉ vectorized
    adds.

    Each step adds the last ``⌊r/2⌋`` of the ``r`` rows left onto the
    first ones; with ``r`` odd the middle row carries over.  Returns the
    ``part[0]`` view.
    """
    rows = part.shape[0]
    while rows > 1:
        half = rows // 2
        part[:half] += part[rows - half : rows]
        rows -= half
    return part[0]


def _total(acc: FloatArray, n: int) -> FloatArray:
    """The folded accumulator of an ``n``-row reduction, as a new array."""
    if n == 0:
        return np.zeros(acc.shape[1], dtype=acc.dtype)
    return fold_rows(acc[: min(n, PANEL_ROWS)]).copy()


def _square_into(
    acc: FloatArray, part: FloatArray, values: FloatArray, first: bool
) -> None:
    """Add the float64 squares of a panel's ``values`` into ``acc``."""
    size = values.shape[0]
    target = acc[:size] if first else part[:size]
    np.multiply(values, values, out=target, dtype=np.float64)
    if not first:
        acc[:size] += target


def column_sums(
    block: FloatArray,
    squares: bool = False,
    scratch: Optional[FloatArray] = None,
) -> FloatArray:
    """Per-column sums (of squares, with ``squares``) of a 2-D block.

    Complexity: O(n·k) for an ``(n, k)`` block, in the pinned order of
    the module docstring.

    Sums accumulate in the block's dtype, squares in float64 (so a
    float32 block rounds nothing when squared).  ``scratch`` (from
    :func:`panel_scratch` of that dtype, at least ``k`` columns) saves
    the per-call allocation.
    """
    n, k = block.shape
    dtype = np.dtype(np.float64) if squares else block.dtype
    if scratch is None:
        scratch = panel_scratch(n, k, dtype)
    acc, part = scratch[0, :, :k], scratch[1, :, :k]
    for index, rows in enumerate(row_panels(n)):
        size = rows.stop - rows.start
        if squares:
            _square_into(acc, part, block[rows], index == 0)
        elif index == 0:
            acc[:size] = block[rows]
        else:
            acc[:size] += block[rows]
    return _total(acc, n)


def column_norms(
    block: FloatArray, scratch: Optional[FloatArray] = None
) -> FloatArray:
    """Per-column 2-norms of a 2-D block, accumulated in float64.

    Complexity: O(n·k) — :func:`column_sums` of squares, then ``k``
    square roots.
    """
    return np.sqrt(column_sums(block, squares=True, scratch=scratch))


def add_product(out: FloatArray, X: FloatArray, scale: FloatArray) -> FloatArray:
    """``out += X * scale`` in place, one row panel at a time.

    Complexity: O(n·k) for an ``(n, k)`` ``out``; the only temporary is
    one panel.

    ``X`` is ``(n, k)``, or ``(n, 1)`` for a rank-one update; ``scale``
    broadcasts along rows (shape ``(k,)``).  The product rounds in
    ``result_type(X, scale)`` before it is added, as in
    ``out += X * scale``.  Returns ``out``.
    """
    n, k = out.shape
    part = np.empty((min(n, PANEL_ROWS), k), dtype=np.result_type(X, scale))
    for rows in row_panels(n):
        product = part[: rows.stop - rows.start]
        np.multiply(X[rows], scale, out=product)
        out[rows] += product
    return out


def add_sumsq(
    A: FloatArray, X: FloatArray, scale: FloatArray, scratch: FloatArray
) -> FloatArray:
    """``A += X * scale`` in place; returns ``A``'s new column sums of
    squares.

    Complexity: O(n·k) in one pass over row panels.

    ``scale`` is float64, so each product and add rounds in float64
    before the result is stored in ``A``'s dtype.  The sums are float64,
    in the pinned order of :func:`column_sums`; ``scratch`` is a float64
    :func:`panel_scratch`.
    """
    n, k = A.shape
    acc, part = scratch[0, :, :k], scratch[1, :, :k]
    for index, rows in enumerate(row_panels(n)):
        product = part[: rows.stop - rows.start]
        np.multiply(X[rows], scale, out=product)
        A[rows] += product
        _square_into(acc, part, A[rows], index == 0)
    return _total(acc, n)


def advance_directions(
    W: FloatArray,
    Xa: FloatArray,
    V: FloatArray,
    t1: FloatArray,
    t2: FloatArray,
    scratch: FloatArray,
) -> FloatArray:
    """LSQR's ``Xa += t1·W``, then ``W = t2·W + V``, in place.

    Complexity: O(n·k) in one pass over row panels.

    Returns ``W``'s column sums of squares from before the update
    (float64, pinned order).  ``t1``/``t2`` have ``Xa``'s dtype and each
    product rounds in ``result_type`` of its operands, as in the
    one-expression form.  ``scratch`` is a float64
    :func:`panel_scratch`.
    """
    n, k = W.shape
    acc, part = scratch[0, :, :k], scratch[1, :, :k]
    for index, rows in enumerate(row_panels(n)):
        panel = W[rows]
        _square_into(acc, part, panel, index == 0)
        # The product rounds in its operands' dtype; the float64
        # scratch then holds it exactly.
        product = part[: rows.stop - rows.start]
        np.multiply(panel, t1, out=product)
        Xa[rows] += product
        panel *= t2
        panel += V[rows]
    return _total(acc, n)


def divide_columns(block: FloatArray, d: FloatArray, mask: BoolArray) -> None:
    """``block[:, j] /= d[j]`` in place where ``mask[j]``.

    Complexity: O(n·k).
    """
    np.divide(block, d[None, :], out=block, where=mask[None, :])
