"""A minimal compressed-sparse-row (CSR) matrix.

The paper's headline result — LDA training in time linear in the number of
non-zeros — depends on the solver only ever touching the data through
``X @ v`` and ``X.T @ u`` products over a sparse matrix.  This module
provides that substrate from scratch: a CSR container with exactly the
operations SRDA needs (mat-vec, transposed mat-vec, row slicing for
train/test splits, column means for centering, row normalization for TF
vectors) plus interop with ``scipy.sparse`` so users can bring their own
matrices.

The heavy loops are expressed with numpy ufuncs (``np.add.reduceat``,
``np.bincount``) rather than Python-level iteration, so the from-scratch
implementation stays usable at the paper's data scale (tens of thousands
of rows, ~26k columns).

There is one forward product kernel, the block product ``matmat``: it
sweeps the columns of the dense block through a fused
gather–multiply–``np.add.reduceat`` kernel over precomputed non-empty
segment starts, writing each column into a row-major result (or a
caller's destination, ``out=``).  Measured against the alternatives
(2-D ``(nnz, k)`` gather/reduceat blocks, chunked cache-sized variants,
fused ``bincount`` keys), the 1-D sweep wins by 1.5–2.5×: numpy's 1-D
reduceat runs at full memory bandwidth while its axis-0 reduction over
short ``k``-wide rows does not.  A mat-vec is the width-1 block product
(through :func:`repro.linalg.kernels.csr_matmat`, so it runs on the
selected kernel backend), which makes ``matvec(v)`` and
``matmat(v[:, None])[:, 0]`` the same bits.  The adjoints
``rmatvec``/``rmatmat`` are the forward kernel run over a lazily cached
transpose, built once.

Values are stored in float64 by default; float32 input is preserved
end-to-end (products, row slicing, transposes) so memory-bound kernels
can run at half the traffic.  Any other dtype is upcast to float64.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro._typing import FloatArray, FloatDType, IntArray

_VALUE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def product_block(
    shape: Tuple[int, int], dtype: FloatDType, out: Optional[FloatArray] = None
) -> FloatArray:
    """The array a block product writes: ``out``, checked, or a new one.

    Complexity: O(1) — a shape/dtype check, or one uninitialized
    allocation.

    A new block is row-major: each stored entry of a CSR row feeds the
    ``k`` values of one output row.  A given ``out`` may have any
    layout (a row range of a larger row-major block, a Fortran block, a
    strided view); it must have exactly the product's shape and dtype,
    and must not overlap the operand.
    """
    if out is None:
        return np.empty(shape, dtype=dtype)
    if not isinstance(out, np.ndarray) or out.shape != tuple(shape):
        raise ValueError(
            f"out must be an array of shape {tuple(shape)}, got "
            f"{getattr(out, 'shape', type(out).__name__)}"
        )
    if out.dtype != dtype:
        raise ValueError(
            f"out must have the product dtype {np.dtype(dtype)}, got "
            f"{out.dtype}"
        )
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    return out


def as_value_dtype(array: Any) -> FloatArray:
    """Coerce to a supported value dtype: float32 stays, others → float64.

    Complexity: O(m·n) worst case (one copying cast of a dense operand);
    free when the dtype already conforms.
    """
    array = np.asarray(array)
    if array.dtype not in _VALUE_DTYPES:
        return array.astype(np.float64)
    return array


class CSRMatrix:
    """Compressed sparse row matrix with float64 (or float32) values.

    Parameters
    ----------
    data:
        Non-zero values, concatenated row by row.
    indices:
        Column index of each value in ``data``.
    indptr:
        Row pointer array of length ``n_rows + 1``; row ``i`` owns the
        slice ``data[indptr[i]:indptr[i + 1]]``.
    shape:
        ``(n_rows, n_cols)``.

    Values keep float32 when given float32 input (the half-memory-traffic
    path); everything else is stored as float64.
    """

    def __init__(
        self,
        data: FloatArray,
        indices: IntArray,
        indptr: IntArray,
        shape: Tuple[int, int],
    ) -> None:
        self.data = as_value_dtype(data)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._row_ids_cache: Optional[IntArray] = None
        self._nonempty_rows_cache: Optional[IntArray] = None
        self._transpose_cache: Optional["CSRMatrix"] = None
        self._validate()

    @property
    def dtype(self) -> FloatDType:
        """Value dtype (float64, or float32 on the low-memory path)."""
        return self.data.dtype

    @property
    def _row_ids(self) -> IntArray:
        """Row index of each stored entry (cached; used by the kernels)."""
        if self._row_ids_cache is None:
            self._row_ids_cache = np.repeat(
                np.arange(self.shape[0]), np.diff(self.indptr)
            )
        return self._row_ids_cache

    @property
    def _nonempty_rows(self) -> IntArray:
        """Indices of rows holding at least one entry (cached)."""
        if self._nonempty_rows_cache is None:
            self._nonempty_rows_cache = np.flatnonzero(np.diff(self.indptr))
        return self._nonempty_rows_cache

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if self.indptr.shape != (n_rows + 1,):
            raise ValueError(
                f"indptr must have length n_rows + 1 = {n_rows + 1}, "
                f"got {self.indptr.shape[0]}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.data.shape != self.indices.shape:
            raise ValueError("data and indices must have the same length")
        if self.data.shape[0] and (
            self.indices.min() < 0 or self.indices.max() >= n_cols
        ):
            raise ValueError("column indices out of range")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array: FloatArray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array, dropping zeros.

        Float32 input stays float32; everything else becomes float64.
        """
        array = as_value_dtype(array)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={array.ndim}")
        rows, cols = np.nonzero(array)
        data = array[rows, cols]
        indptr = np.zeros(array.shape[0] + 1, dtype=np.int64)
        counts = np.bincount(rows, minlength=array.shape[0])
        indptr[1:] = np.cumsum(counts)
        return cls(data, cols.astype(np.int64), indptr, array.shape)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Tuple[Iterable[int], Iterable[float]]],
        n_cols: int,
    ) -> "CSRMatrix":
        """Build from per-row ``(column_indices, values)`` pairs."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        all_indices = []
        all_data = []
        for i, (cols, vals) in enumerate(rows):
            cols = np.asarray(list(cols), dtype=np.int64)
            vals = np.asarray(list(vals), dtype=np.float64)
            if cols.shape != vals.shape:
                raise ValueError(f"row {i}: indices and values length mismatch")
            order = np.argsort(cols, kind="stable")
            all_indices.append(cols[order])
            all_data.append(vals[order])
            indptr[i + 1] = indptr[i] + cols.shape[0]
        data = np.concatenate(all_data) if all_data else np.empty(0)
        indices = (
            np.concatenate(all_indices) if all_indices else np.empty(0, np.int64)
        )
        return cls(data, indices, indptr, (len(rows), n_cols))

    @classmethod
    def from_scipy(cls, matrix) -> "CSRMatrix":
        """Convert any scipy.sparse matrix to this CSR type."""
        csr = matrix.tocsr()
        return cls(
            as_value_dtype(csr.data),
            np.asarray(csr.indices, dtype=np.int64),
            np.asarray(csr.indptr, dtype=np.int64),
            csr.shape,
        )

    def to_scipy(self):
        """Convert to a ``scipy.sparse.csr_matrix``."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def to_dense(self) -> FloatArray:
        """Materialize the matrix as a dense ndarray."""
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self._row_ids, self.indices] = self.data
        return out

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.data.copy(), self.indices.copy(), self.indptr.copy(), self.shape
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Total number of stored non-zeros."""
        return int(self.data.shape[0])

    @property
    def T(self) -> "CSRMatrix":
        """Transpose, returned as a CSR matrix.

        Complexity: O(nnz + m + n) on the first call under the compiled
        kernel backend (a counting sort; the reference argsort build is
        O(nnz log nnz)); O(1) afterwards.

        Built by :func:`repro.linalg.kernels.csr_transpose`, whose
        backends return the same bytes.  Cached after the first call
        (and back-linked, so ``A.T.T is A``): ``rmatvec``/``rmatmat``
        reuse it on every adjoint product, and the stored arrays are
        treated as immutable throughout the package.
        """
        if self._transpose_cache is None:
            # imported here: the kernels module imports this one
            from repro.linalg.kernels import csr_transpose

            data, indices, indptr = csr_transpose(self)
            transpose = CSRMatrix(
                data, indices, indptr, (self.shape[1], self.shape[0])
            )
            transpose._transpose_cache = self
            self._transpose_cache = transpose
        return self._transpose_cache

    def _transpose_arrays(self) -> Tuple[FloatArray, IntArray, IntArray]:
        """``(data, indices, indptr)`` of the transpose: the reference build.

        A stable argsort of the column indices, so entries keep storage
        order within each column.  This is the ground truth the compiled
        counting sort is checked against.
        """
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.shape[1])
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        return self.data[order], self._row_ids[order], indptr

    def row_nnz(self) -> IntArray:
        """Number of non-zeros in each row (the paper's ``s`` statistic)."""
        return np.diff(self.indptr)

    def mean_nnz_per_row(self) -> float:
        """Average non-zeros per sample — ``s`` in the complexity model."""
        if self.shape[0] == 0:
            return 0.0
        return self.nnz / self.shape[0]

    # ------------------------------------------------------------------
    # Core products
    # ------------------------------------------------------------------
    def matvec(self, v: FloatArray) -> FloatArray:
        """Compute ``A @ v``.

        Complexity: O(nnz) — one multiply-add per stored entry, the
        Table-I unit price the linear-time claim is built on.

        The width-1 block product, on the selected kernel backend: the
        same bits as ``matmat(v[:, None])[:, 0]``.
        """
        v = as_value_dtype(v)
        if v.shape != (self.shape[1],):
            raise ValueError(
                f"matvec expects a vector of length {self.shape[1]}, "
                f"got shape {v.shape}"
            )
        # imported here: the kernels module imports this one
        from repro.linalg.kernels import csr_matmat

        return csr_matmat(self, v)

    def rmatvec(self, u: FloatArray) -> FloatArray:
        """Compute ``A.T @ u``.

        Complexity: O(nnz) — adjoint sweep at the same unit price as
        :meth:`matvec`, plus the first-call transpose build (:attr:`T`).

        The forward kernel over the cached transpose: each column of
        ``A`` is a row of ``A.T`` and reduces its entries in row order,
        so the result does not depend on how rows of ``A`` are grouped.
        """
        u = as_value_dtype(u)
        if u.shape != (self.shape[0],):
            raise ValueError(
                f"rmatvec expects a vector of length {self.shape[0]}, "
                f"got shape {u.shape}"
            )
        return self.T.matvec(u)

    def matmat(
        self, B: FloatArray, out: Optional[FloatArray] = None
    ) -> FloatArray:
        """Compute ``A @ B`` for a dense block ``B``.

        Complexity: O(nnz·c) for a ``c``-column block — identical flam
        to ``c`` mat-vecs; only the wall-clock constant differs.

        The reference block kernel.  Sweeps the columns of ``B`` through
        a fused gather–multiply–``reduceat`` kernel: each column,
        gathered at the stored entries' indices, feeds a single
        segmented sum over the cached non-empty row starts (1-D reduceat
        is the fastest segmented sum numpy exposes once the segment
        starts exist).  The result is row-major, the layout the
        compiled kernel writes; with
        ``out`` (see :func:`product_block`) every entry of ``out`` is
        written, empty rows as zeros, and ``out`` is returned.
        """
        B = as_value_dtype(B)
        if B.ndim == 1 and out is None:
            return self.matvec(B)
        if B.ndim != 2 or B.shape[0] != self.shape[1]:
            raise ValueError("dimension mismatch in matmat")
        k = B.shape[1]
        dtype = np.result_type(self.data, B)
        out = product_block((self.shape[0], k), dtype, out)
        rows = self._nonempty_rows
        if rows.size < self.shape[0]:
            out[...] = 0.0
        if not rows.size:
            return out
        starts = self.indptr[rows]
        dense_rows = rows.size == self.shape[0]
        for j in range(k):
            # the multiply promotes to ``dtype`` exactly as a cast would
            products = self.data * B[:, j][self.indices]
            if dense_rows:
                np.add.reduceat(products, starts, out=out[:, j])
            else:
                # empty rows stay zero; consecutive non-empty starts are
                # exactly the segment boundaries reduceat needs
                out[rows, j] = np.add.reduceat(products, starts)
        return out

    def rmatmat(
        self, U: FloatArray, out: Optional[FloatArray] = None
    ) -> FloatArray:
        """Compute ``A.T @ U`` for a dense block ``U``.

        Complexity: O(nnz·c) per call — plus the first-call transpose
        build (:attr:`T`), amortized over every later block product.

        Routed through the (lazily cached) transpose so it reuses the
        forward sweep kernel, ``out`` included.
        """
        U = as_value_dtype(U)
        if U.ndim == 1 and out is None:
            return self.rmatvec(U)
        if U.ndim != 2 or U.shape[0] != self.shape[0]:
            raise ValueError("dimension mismatch in rmatmat")
        return self.T.matmat(U, out=out)

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self.matmat(other)
        return NotImplemented

    # ------------------------------------------------------------------
    # Column statistics and row transforms
    # ------------------------------------------------------------------
    def column_means(self) -> FloatArray:
        """Per-column mean — the sample mean vector used for centering."""
        # bincount, not np.add.at (an order of magnitude slower on
        # large nnz)
        sums = np.bincount(
            self.indices,
            weights=self.data.astype(np.float64, copy=False),
            minlength=self.shape[1],
        ).astype(np.float64, copy=False)
        if self.shape[0] == 0:
            return sums
        return sums / self.shape[0]

    def row_norms(self) -> FloatArray:
        """Euclidean norm of each row.

        Each row is rescaled by its largest magnitude before squaring so
        tiny (subnormal-squared) and huge (overflowing) entries keep full
        precision.
        """
        row_ids = self._row_ids
        scale = np.zeros(self.shape[0], dtype=np.float64)
        np.maximum.at(scale, row_ids, np.abs(self.data))
        safe_scale = np.where(scale > 0, scale, 1.0)
        scaled = self.data / safe_scale[row_ids]
        sq = np.bincount(row_ids, weights=scaled**2, minlength=self.shape[0])
        return scale * np.sqrt(sq)

    def normalize_rows(self) -> "CSRMatrix":
        """Return a copy with each non-empty row scaled to unit L2 norm.

        Normalizes in two steps — rescale each row by its largest
        magnitude, then by the (now well-conditioned) norm of the
        rescaled row — so even rows of subnormal values come out exactly
        unit length instead of losing their low mantissa bits to a
        single subnormal division.
        """
        row_ids = self._row_ids
        scale = np.zeros(self.shape[0], dtype=np.float64)
        np.maximum.at(scale, row_ids, np.abs(self.data))
        safe_scale = np.where(scale > 0, scale, 1.0)
        rescaled = self.data / safe_scale[row_ids]
        sq = np.bincount(row_ids, weights=rescaled**2, minlength=self.shape[0])
        norms = np.sqrt(sq)
        safe_norms = np.where(norms > 0, norms, 1.0)
        return CSRMatrix(
            (rescaled / safe_norms[row_ids]).astype(self.dtype, copy=False),
            self.indices.copy(),
            self.indptr.copy(),
            self.shape,
        )

    def take_rows(self, row_indices: IntArray) -> "CSRMatrix":
        """Select rows (with repetition allowed), as fancy indexing does."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        if row_indices.size and (
            row_indices.min() < 0 or row_indices.max() >= self.shape[0]
        ):
            raise IndexError("row index out of range")
        lengths = np.diff(self.indptr)[row_indices]
        new_indptr = np.zeros(row_indices.shape[0] + 1, dtype=np.int64)
        new_indptr[1:] = np.cumsum(lengths)
        total = int(new_indptr[-1])
        # vectorized gather: for each output slot, its source position is
        # (selected row's start) + (offset within the row)
        starts = np.repeat(self.indptr[row_indices], lengths)
        within = np.arange(total) - np.repeat(new_indptr[:-1], lengths)
        gather = starts + within
        return CSRMatrix(
            self.data[gather],
            self.indices[gather],
            new_indptr,
            (row_indices.shape[0], self.shape[1]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.nnz / max(1, self.shape[0] * self.shape[1]):.4f})"
        )


def is_sparse(X) -> bool:
    """True if ``X`` is our CSR type or any scipy.sparse matrix.

    Complexity: O(1) — type inspection only, never touches the data.
    """
    if isinstance(X, CSRMatrix):
        return True
    try:
        from scipy.sparse import issparse

        return bool(issparse(X))
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return False
