"""Row-partitioned operators: every product writes disjoint output rows.

SRDA's whole cost is products against the data operator, and every
product splits along the rows of its *output*.  For ``X`` cut into
contiguous row blocks ``X_s`` and ``X.T`` into contiguous row blocks
``(X.T)_t``:

- forward:  ``X v   = concat_s (X_s v)``
- adjoint:  ``X.T u = concat_t ((X.T)_t u)``

Each task multiplies its block by the *whole* operand and writes only
its own rows of the one output the product returns — there are no
partial sums to fold.  For CSR, ``X.T`` is the matrix's own cached
transpose (:attr:`~repro.linalg.sparse.CSRMatrix.T`, built once and
shared with the unsharded ``rmatvec``/``rmatmat``), so adjoint tasks
run the same forward kernel as everything else; dense adjoint blocks
are the column views ``X[:, c0:c1]``, each computing
``X[:, c0:c1].T @ u``.

A CSR product's kernel — a mat-vec is the width-1 block product —
writes straight into its rows, with no per-shard temporary.  The output
may be a destination the caller lent
(:func:`~repro.linalg.operators.lend_destination`): the append-ones
adjoint lends rows ``:n`` of its ``(n+1, k)`` block, and the shards
fill them (with one shard, the loan passes on to the direct
operator).

:class:`ShardedOperator` realizes that decomposition behind the
standard :class:`~repro.linalg.operators.LinearOperator` contract, so
``block_lsqr``, ``verify_operator`` and FLAM counting all work
unchanged, and fans the tasks out on any
:class:`~repro.parallel.backends.Backend`.

Determinism contract
--------------------
- CSR: all four products are **bitwise identical** to the unsharded
  kernels, for any layout, backend, worker count and kernel backend.
  The CSR kernels reduce each output row in its storage order,
  independently of every other row, and a block is a contiguous run of
  whole rows of ``X`` (forward) or ``X.T`` (adjoint).
- Dense: deterministic for a given layout (a pure function of the
  shape: identical across backends and worker counts) but only within
  a few ulp of the unsharded product, because BLAS's internal
  reduction order can depend on the block's shape.
- Ops mode (a sequence of row-block operators, the fault-injection
  seam) has no transpose: its adjoint sums the blocks' ``X_s.T u_s``
  in shard order.

Per-shard wall times are recorded into the current tracer's metrics
(histogram ``parallel.shard_seconds``, counter
``parallel.shard_products``), so shard balance shows up in the same
trace as the fit spans.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._typing import FloatArray, FloatDType, IntArray
from repro.linalg import kernels
from repro.linalg.dense import dense_matmul
from repro.linalg.operators import (
    LinearOperator,
    as_operator,
    borrowed_destination,
    lend_destination,
)
from repro.linalg.sparse import CSRMatrix
from repro.observability import current_tracer
from repro.parallel.backends import Backend, resolve_backend

__all__ = [
    "ShardedOperator",
    "csr_row_slice",
    "default_shard_count",
    "nnz_shard_bounds",
    "shard_bounds",
]

#: Rows per shard below which splitting stops paying for itself.
_MIN_SHARD_ROWS = 512

#: Default cap on shard count (matches the largest pool the benchmarks
#: exercise; more shards than cores only adds per-task overhead).
_MAX_DEFAULT_SHARDS = 8


def default_shard_count(m: int) -> int:
    """Shard count used when the caller does not pick one.

    Complexity: O(1) — integer arithmetic on ``m``.

    A pure function of ``m`` — *not* of the backend or worker count — so
    that the default layout (and therefore the exact floating-point
    result of every product) is identical on every backend.
    """
    if m < _MIN_SHARD_ROWS:
        return 1
    return max(2, min(_MAX_DEFAULT_SHARDS, m // _MIN_SHARD_ROWS))


def shard_bounds(m: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, nearly equal ``[start, stop)`` row ranges.

    Complexity: O(k) for ``k`` shards — the edge list itself.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, max(1, m))
    edges = [(m * i) // n_shards for i in range(n_shards + 1)]
    return [(edges[i], edges[i + 1]) for i in range(n_shards)]


def nnz_shard_bounds(
    indptr: IntArray, n_shards: int
) -> List[Tuple[int, int]]:
    """Contiguous row ranges balanced by *stored-entry* count.

    Complexity: O(k·log m) for ``k`` shards — one binary search into
    ``indptr`` per cut.

    A CSR shard's kernel cost is proportional to its non-zeros, not its
    rows; on skewed data (a few heavy rows, a long sparse tail) the
    row-count splits of :func:`shard_bounds` leave one worker doing most
    of the arithmetic while the rest idle.  This picks the row cut for
    shard ``i`` as the ``indptr`` position nearest ``total·i/n_shards``,
    so every shard carries within one row's worth of nnz of the ideal
    share — while staying a pure function of the data (never of the
    backend or worker count), preserving the determinism contract.

    Each shard keeps at least one row; with fewer rows than shards, or
    an all-zero matrix, this degrades to :func:`shard_bounds`.
    """
    m = int(len(indptr)) - 1
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, max(1, m))
    total = int(indptr[-1]) if m >= 0 else 0
    if n_shards == 1 or total == 0:
        return shard_bounds(m, n_shards)
    cuts: List[int] = [0]
    for i in range(1, n_shards):
        target = (total * i) // n_shards
        # First row boundary at or past the nnz target, then snap back
        # when the previous boundary is nearer in nnz space.
        cut = int(np.searchsorted(indptr, target, side="left"))
        cut = min(cut, m)
        if cut > 0 and (target - int(indptr[cut - 1])) < (
            int(indptr[cut]) - target
        ):
            cut -= 1
        # Keep shards non-empty and strictly increasing.
        cut = max(cut, cuts[-1] + 1)
        cut = min(cut, m - (n_shards - i))
        cuts.append(cut)
    cuts.append(m)
    return [(cuts[i], cuts[i + 1]) for i in range(n_shards)]


def csr_row_slice(matrix: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """The contiguous row block ``matrix[start:stop]`` as a CSRMatrix.

    Complexity: O(m) worst case — the localized ``indptr`` copy; the
    ``data``/``indices`` views are O(1).

    ``data``/``indices`` are views into the parent's storage (zero
    copy); only the localized ``indptr`` is materialized.
    """
    if not 0 <= start <= stop <= matrix.shape[0]:
        raise ValueError(
            f"invalid row range [{start}, {stop}) for {matrix.shape[0]} rows"
        )
    lo = int(matrix.indptr[start])
    hi = int(matrix.indptr[stop])
    return CSRMatrix(
        matrix.data[lo:hi],
        matrix.indices[lo:hi],
        matrix.indptr[start : stop + 1] - lo,
        (stop - start, matrix.shape[1]),
    )


def _shard_product(
    mode: str,
    block: Any,
    forward: bool,
    operand: FloatArray,
    rows: FloatArray,
) -> None:
    """Write one block's rows of a product into ``rows``.

    Complexity: O(nnz) per block (``nnz`` = the block's stored entries;
    ``O(nnz·c)`` for ``c``-column operands).

    The single arithmetic body behind every sharded product.
    ``operand`` is always whole and ``rows`` is the block's row range
    of the output.  A CSR adjoint block is a row slice of ``X.T``, so
    it runs the forward kernel, and every CSR product writes into
    ``rows`` itself.  A dense adjoint block is a column block of ``X``,
    and both dense directions go through
    :func:`~repro.linalg.dense.dense_matmul`, the one orientation rule
    for dense products (float64 blocks run with the thin operand on
    the left); its result is copied in.
    """
    if mode == "csr":
        # Through the kernel dispatcher, so thread workers run the
        # GIL-free compiled backend when selected.
        kernels.csr_matmat(block, operand, out=rows)
    elif mode == "dense":
        rows[...] = dense_matmul(block if forward else block.T, operand)
    else:
        rows[...] = block.matmat(operand)


class ShardedOperator(LinearOperator):
    """Row-partitioned view of a CSR/dense matrix (or operator stack).

    Complexity: O(nnz) per ``matvec``/``rmatvec`` summed across shards
    (``O(nnz·c)`` for ``c``-column blocks), plus, for dense and ops
    blocks, an O(m + n) copy of each block's rows into the output (CSR
    products write their rows in place).

    Parameters
    ----------
    X:
        What to shard.  Accepts a :class:`CSRMatrix` / scipy sparse
        matrix / :class:`~repro.linalg.operators.CSROperator` (CSR
        mode), a dense ndarray / ``DenseOperator`` (dense mode), or a
        sequence of :class:`LinearOperator` row blocks (ops mode — the
        hook fault-injection tests use to plant a
        :class:`~repro.linalg.operators.FaultyOperator` inside one
        shard).
    n_shards:
        Number of contiguous row shards, and of adjoint blocks.
        Default: :func:`default_shard_count` of the row count —
        deliberately independent of the backend so results never
        depend on *where* the product ran.  Clamped to the row count.
    backend:
        A :class:`~repro.parallel.backends.Backend` instance (caller
        keeps ownership), a backend name, or ``None``; names and
        ``None`` go through
        :func:`~repro.parallel.backends.resolve_backend` sized by
        ``n_jobs``, and the resulting backend is owned (and closed) by
        this operator.
    n_jobs:
        Worker count used only when ``backend`` is not already an
        instance.

    With one shard every product delegates straight to the unsharded
    kernel — the degenerate layout is a true passthrough.
    """

    def __init__(
        self,
        X: Union[
            CSRMatrix, FloatArray, LinearOperator, Sequence[LinearOperator], Any
        ],
        n_shards: Optional[int] = None,
        backend: Union[None, str, Backend] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._owns_backend = not isinstance(backend, Backend)
        self.backend = resolve_backend(backend, n_jobs)
        self._closed = False

        self.matrix: Optional[CSRMatrix] = None
        self.array: Optional[FloatArray] = None
        self._ops: Optional[List[LinearOperator]] = None
        #: Blocks and their output row ranges, keyed by ``forward``.
        self._blocks: Dict[bool, List[Any]] = {}
        self._block_bounds: Dict[bool, List[Tuple[int, int]]] = {}

        if isinstance(X, (list, tuple)):
            self._mode = "ops"
            self._init_ops(list(X), n_shards)
        else:
            base = as_operator(X)
            inner_matrix = getattr(base, "matrix", None)
            inner_array = getattr(base, "array", None)
            if isinstance(inner_matrix, CSRMatrix):
                self._mode = "csr"
                self.matrix = inner_matrix
            elif inner_array is not None:
                self._mode = "dense"
                self.array = np.asarray(inner_array)
            else:
                raise TypeError(
                    "ShardedOperator needs a CSR/dense matrix (or a "
                    "sequence of row-block operators); got "
                    f"{type(X).__name__} — wrap structural operators "
                    "around the sharded data operator instead"
                )
            m = base.shape[0]
            self.shape = (m, base.shape[1])
            count = default_shard_count(m) if n_shards is None else int(n_shards)
            if self._mode == "csr":
                # Balance shards by stored entries, not rows — kernel
                # cost is O(nnz), and the cut is still a pure function
                # of the data, so the determinism contract holds.
                assert self.matrix is not None
                self._bounds = nnz_shard_bounds(self.matrix.indptr, count)
            else:
                self._bounds = shard_bounds(m, count)

        self.n_shards = len(self._bounds)
        self._direct: Optional[LinearOperator] = None
        if self.n_shards == 1:
            if self._mode == "ops":
                assert self._ops is not None
                self._direct = self._ops[0]
            elif self._mode == "csr":
                self._direct = as_operator(self.matrix)
            else:
                self._direct = as_operator(self.array)
        elif self._mode != "ops":
            self._build_blocks()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _init_ops(
        self, ops: List[LinearOperator], n_shards: Optional[int]
    ) -> None:
        if not ops:
            raise ValueError("ops mode needs at least one row-block operator")
        if not all(isinstance(op, LinearOperator) for op in ops):
            raise TypeError("ops mode expects LinearOperator row blocks")
        n_cols = ops[0].shape[1]
        if any(op.shape[1] != n_cols for op in ops):
            raise ValueError("row-block operators must share column count")
        if n_shards is not None and int(n_shards) != len(ops):
            raise ValueError(
                f"n_shards={n_shards} conflicts with {len(ops)} row blocks"
            )
        self._ops = ops
        bounds = []
        row = 0
        for op in ops:
            bounds.append((row, row + op.shape[0]))
            row += op.shape[0]
        self._bounds = bounds
        self.shape = (row, n_cols)
        self._blocks[True] = list(ops)
        self._block_bounds[True] = bounds

    def _build_blocks(self) -> None:
        """Forward row blocks of ``X`` and adjoint blocks of ``X.T``.

        Adjoint blocks tile the rows of ``X.T`` — nnz-balanced row
        slices of the cached CSR transpose, or column views of a dense
        ``X`` — in as many blocks as there are shards.
        """
        if self._mode == "csr":
            assert self.matrix is not None
            transpose = self.matrix.T
            adjoint_bounds = nnz_shard_bounds(transpose.indptr, self.n_shards)
            self._blocks = {
                True: [csr_row_slice(self.matrix, a, b) for a, b in self._bounds],
                False: [csr_row_slice(transpose, a, b) for a, b in adjoint_bounds],
            }
        else:
            assert self.array is not None
            adjoint_bounds = shard_bounds(self.shape[1], self.n_shards)
            self._blocks = {
                True: [self.array[a:b] for a, b in self._bounds],
                False: [self.array[:, a:b] for a, b in adjoint_bounds],
            }
        self._block_bounds = {True: self._bounds, False: adjoint_bounds}

    # ------------------------------------------------------------------
    # Operator contract
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> FloatDType:
        if self._mode == "csr":
            assert self.matrix is not None
            return self.matrix.dtype
        if self._mode == "dense":
            assert self.array is not None
            return self.array.dtype
        assert self._ops is not None
        return np.result_type(*[op.dtype for op in self._ops])

    @property
    def shard_layout(self) -> List[Tuple[int, int]]:
        """The contiguous ``[start, stop)`` row range of each shard."""
        return list(self._bounds)

    def _record(self, timings: List[float]) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            return
        histogram = tracer.metrics.histogram("parallel.shard_seconds")
        for elapsed in timings:
            histogram.observe(elapsed)
        tracer.metrics.counter("parallel.shard_products").add(
            float(len(timings))
        )

    def _run(self, forward: bool, operand: FloatArray, n_rows: int) -> FloatArray:
        """Fan a product out over its blocks; each writes its own rows.

        The output is the destination lent to this operator, if any;
        otherwise a new block, row-major for CSR (the kernels' layout)
        and Fortran-ordered for dense, the layout
        :func:`~repro.linalg.dense.dense_matmul` returns.
        """
        bounds = self._block_bounds[forward]
        shape = (n_rows, operand.shape[1])
        dtype = np.result_type(self.dtype, operand.dtype)
        out = borrowed_destination(self, shape, dtype)
        if out is None:
            out = np.empty(
                shape, dtype, order="F" if self._mode == "dense" else "C"
            )
        blocks = self._blocks[forward]

        def run_block(index: int) -> float:
            t0 = time.perf_counter()
            start, stop = bounds[index]
            _shard_product(
                self._mode, blocks[index], forward, operand, out[start:stop]
            )
            return time.perf_counter() - t0

        self._record(self.backend.map(run_block, list(range(len(blocks)))))
        return out

    def _ops_adjoint(self, operand: FloatArray) -> FloatArray:
        """``sum_s X_s.T operand_s`` over the row-block operators, in order."""
        assert self._ops is not None
        ops = self._ops

        def run_block(index: int) -> FloatArray:
            start, stop = self._bounds[index]
            return ops[index].rmatmat(operand[start:stop])

        parts = self.backend.map(run_block, list(range(self.n_shards)))
        total = np.array(
            parts[0], dtype=np.result_type(self.dtype, operand.dtype)
        )
        for part in parts[1:]:
            total += part
        return total

    def _matmat(self, B: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.matmat(B)
        if self.matrix is not None:
            # Laid out once as the CSR kernels read it, not once per block.
            B = kernels.csr_matmat_operand(self.matrix, B)
        return self._run(True, B, self.shape[0])

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        if self._direct is not None:
            # a destination lent to this operator passes on to the one
            # operator that computes the product
            out = borrowed_destination(
                self,
                (self.shape[1], U.shape[1]),
                np.result_type(self.dtype, U.dtype),
            )
            if out is None:
                return self._direct.rmatmat(U)
            with lend_destination(self._direct, out):
                return self._direct.rmatmat(U)
        if self._ops is not None:
            return self._ops_adjoint(U)
        if self.matrix is not None:
            U = kernels.csr_matmat_operand(self.matrix.T, U)
        return self._run(False, U, self.shape[1])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the backend if this operator owns it.  Idempotent.

        A caller-supplied backend stays open (it may be serving several
        operators) until the caller closes it.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ShardedOperator":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedOperator(shape={self.shape}, mode={self._mode!r}, "
            f"n_shards={self.n_shards}, backend={self.backend.name!r})"
        )
