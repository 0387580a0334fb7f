"""Matrix-free linear operators.

LSQR (and therefore SRDA's linear-time path) only ever needs two
products: ``A @ B`` and ``A.T @ U`` for dense blocks ``B``/``U``
(``matmat``/``rmatmat``; a mat-vec ``A @ v`` is the width-1 case).
Expressing the data matrix as an *operator* instead of an explicit array
is what makes the paper's two memory tricks implementable without
densifying anything:

- :class:`AppendOnesOperator` realizes the bias-absorption trick of
  Section III-B — appending a constant 1 feature to every sample so the
  fitted intercept replaces explicit centering.
- :class:`CenteringOperator` realizes ``X - 1 μᵀ`` implicitly, for code
  paths (the LDA baseline analysis, tests) that need the centered matrix
  as an operator without allocating a dense copy.

Every operator implements exactly one product per direction, the block
products ``_matmat``/``_rmatmat``; ``matvec(v)`` is the width-1 block
``_matmat(v[:, None])[:, 0]``, so a mat-vec and a one-column block
return the same bits.  Every structural operator forwards whole blocks
to its base so a multi-RHS solve stays matrix-free at block width —
centering becomes one base ``matmat`` plus a rank-one correction
instead of ``k`` corrected mat-vecs.  The one per-column sweep is
:class:`FaultyOperator`'s, whose schedule counts one product per
column.

Every product returns a new array, so a structural operator may finish
its base's result in place: the centering correction and the ones
column are applied to the block the base product just allocated, and
no full-size temporary is formed.  The append-ones adjoint goes one
step further.  Its result is the base adjoint plus one row, so it
allocates the ``(n+1, k)`` block itself and lends rows ``:n`` to the
base (:func:`lend_destination`).  The CSR and sharded products write
straight into lent rows; any other base returns its own array, which
is copied in.  The loan, not a parameter, carries the destination, so
every product keeps its one-operand signature and every wrapper
around it still sees the call.

Operators compose, transpose, and count their products (for the empirical
complexity validation in :mod:`repro.complexity.counter`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro._typing import DTypeLike, FloatArray, FloatDType, MatrixLike
from repro.exceptions import ReproError
from repro.linalg import kernels
from repro.linalg.dense import dense_matmul
from repro.linalg.panels import add_product, column_sums
from repro.linalg.sparse import CSRMatrix, as_value_dtype, is_sparse


class _Loan(threading.local):
    """The destination lent on this thread, and the operator it is for."""

    operator: Optional["LinearOperator"] = None
    out: Optional[FloatArray] = None


_LOAN = _Loan()


@contextmanager
def lend_destination(
    operator: "LinearOperator", out: FloatArray
) -> Iterator[None]:
    """Lend ``out`` to ``operator``'s next block product on this thread.

    Complexity: O(1) — sets and restores one thread-local slot.

    Inside the block, a product of ``operator`` that can write in place
    claims ``out`` through :func:`borrowed_destination` and returns it.
    Any other product leaves it alone, so the lender checks whether the
    result ``is out`` and copies otherwise.  Thread-local, so a shard
    worker thread never sees its caller's loan.
    """
    saved = (_LOAN.operator, _LOAN.out)
    _LOAN.operator, _LOAN.out = operator, out
    try:
        yield
    finally:
        _LOAN.operator, _LOAN.out = saved


def borrowed_destination(
    operator: "LinearOperator", shape: Tuple[int, ...], dtype: FloatDType
) -> Optional[FloatArray]:
    """Claim the destination lent to ``operator``, or ``None``.

    Complexity: O(1).

    Only a loan to this very operator, of exactly the product's shape
    and dtype, is handed out, and only once.
    """
    out = _LOAN.out
    if (
        out is None
        or _LOAN.operator is not operator
        or out.shape != tuple(shape)
        or out.dtype != dtype
    ):
        return None
    _LOAN.operator, _LOAN.out = None, None
    return out


class LinearOperator:
    """Base class: a shape plus ``A @ B`` and ``A.T @ U`` block products.

    Subclasses must set ``self.shape`` and implement ``_matmat`` and
    ``_rmatmat``; ``matvec``/``rmatvec`` run them on a width-1 block.
    The public entry points validate dimensions and keep a product
    count so experiments can report how many passes over the data a
    solver made.
    """

    shape: Tuple[int, int]

    def __init__(self) -> None:
        self.n_matvec = 0
        self.n_rmatvec = 0
        self.n_matmat = 0
        self.n_rmatmat = 0

    @property
    def dtype(self) -> FloatDType:
        """Value dtype of the products (float64 unless data says float32)."""
        return np.dtype(np.float64)

    def _matmat(self, B: FloatArray) -> FloatArray:
        raise NotImplementedError

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        raise NotImplementedError

    def matvec(self, v: FloatArray) -> FloatArray:
        """Compute ``A @ v``."""
        v = as_value_dtype(v)
        if v.shape != (self.shape[1],):
            raise ValueError(
                f"matvec expects length {self.shape[1]}, got {v.shape}"
            )
        self.n_matvec += 1
        return self._matmat(v[:, None])[:, 0]

    def rmatvec(self, u: FloatArray) -> FloatArray:
        """Compute ``A.T @ u``."""
        u = as_value_dtype(u)
        if u.shape != (self.shape[0],):
            raise ValueError(
                f"rmatvec expects length {self.shape[0]}, got {u.shape}"
            )
        self.n_rmatvec += 1
        return self._rmatmat(u[:, None])[:, 0]

    def matmat(self, B: FloatArray) -> FloatArray:
        """Compute ``A @ B`` for a dense block ``B`` in one pass."""
        B = as_value_dtype(B)
        if B.ndim == 1:
            return self.matvec(B)
        if B.shape[0] != self.shape[1]:
            raise ValueError(
                f"matmat expects {self.shape[1]} rows, got {B.shape[0]}"
            )
        if B.shape[1] == 0:
            return np.empty((self.shape[0], 0), dtype=self.dtype)
        self.n_matmat += 1
        return self._matmat(B)

    def rmatmat(self, U: FloatArray) -> FloatArray:
        """Compute ``A.T @ U`` for a dense block ``U`` in one pass."""
        U = as_value_dtype(U)
        if U.ndim == 1:
            return self.rmatvec(U)
        if U.shape[0] != self.shape[0]:
            raise ValueError(
                f"rmatmat expects {self.shape[0]} rows, got {U.shape[0]}"
            )
        if U.shape[1] == 0:
            return np.empty((self.shape[1], 0), dtype=self.dtype)
        self.n_rmatmat += 1
        return self._rmatmat(U)

    @property
    def T(self) -> "LinearOperator":
        """The transposed operator (matvec and rmatvec swapped)."""
        return TransposedOperator(self)

    def to_dense(self) -> FloatArray:
        """Materialize the operator (tests and small problems only)."""
        eye = np.eye(self.shape[1])
        return self.matmat(eye)

    def reset_counts(self) -> None:
        """Zero the product counters."""
        self.n_matvec = 0
        self.n_rmatvec = 0
        self.n_matmat = 0
        self.n_rmatmat = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shape={self.shape})"


class DenseOperator(LinearOperator):
    """Operator view over a dense ndarray.

    The value dtype follows the data: float32 input stays float32
    (halving bandwidth on the single-precision path), anything else is
    promoted to float64.  Every product goes through
    :func:`~repro.linalg.dense.dense_matmul`, which runs float64 blocks
    as ``(Bᵀ·Xᵀ)ᵀ`` and ``(Uᵀ·X)ᵀ``: with the thin block as the GEMM's
    left operand, single-threaded OpenBLAS computes LSQR's two products
    per iteration on a 2108×1024 matrix with 67 columns 1.2× (``X·V``)
    and 2.0× (``Xᵀ·U``) faster than ``X @ B`` and ``X.T @ U``.
    """

    def __init__(self, array: MatrixLike) -> None:
        super().__init__()
        array = as_value_dtype(np.asarray(array))
        if array.ndim != 2:
            raise ValueError("DenseOperator requires a 2-D array")
        self.array: FloatArray = array
        self.shape = array.shape

    @property
    def dtype(self) -> FloatDType:
        return self.array.dtype

    def _matmat(self, B: FloatArray) -> FloatArray:
        return dense_matmul(self.array, B)

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        return dense_matmul(self.array.T, U)


class CSROperator(LinearOperator):
    """Operator view over our :class:`CSRMatrix` or a scipy CSR matrix.

    Products route through the kernel dispatcher
    (:mod:`repro.linalg.kernels`), so the compiled GIL-free backend —
    when built and selected — serves every solver that reaches the data
    through this operator, bitwise-identically to the numpy reference.
    """

    def __init__(self, matrix: Union[CSRMatrix, Any]) -> None:
        super().__init__()
        if isinstance(matrix, CSRMatrix):
            self.matrix = matrix
        elif is_sparse(matrix):
            self.matrix = CSRMatrix.from_scipy(matrix)
        else:
            raise TypeError(f"expected a sparse matrix, got {type(matrix)}")
        self.shape = self.matrix.shape

    @property
    def dtype(self) -> FloatDType:
        return self.matrix.dtype

    def _block_out(self, rows: int, operand: FloatArray) -> Optional[FloatArray]:
        dtype = np.result_type(self.matrix.dtype, operand.dtype)
        return borrowed_destination(self, (rows, operand.shape[1]), dtype)

    def _matmat(self, B: FloatArray) -> FloatArray:
        out = self._block_out(self.shape[0], B)
        return kernels.csr_matmat(self.matrix, B, out=out)

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        out = self._block_out(self.shape[1], U)
        return kernels.csr_rmatmat(self.matrix, U, out=out)


class TransposedOperator(LinearOperator):
    """Lazy transpose of another operator."""

    def __init__(self, base: LinearOperator) -> None:
        super().__init__()
        self.base = base
        self.shape = (base.shape[1], base.shape[0])

    @property
    def dtype(self) -> FloatDType:
        return self.base.dtype

    def _matmat(self, B: FloatArray) -> FloatArray:
        return self.base.rmatmat(B)

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        return self.base.matmat(U)


class CenteringOperator(LinearOperator):
    """Implicit ``X - 1 μᵀ`` where ``μ`` is the column-mean vector.

    The centered data matrix of a sparse ``X`` is dense; the paper notes
    this is exactly what makes classic LDA infeasible on text data.  This
    operator applies the centered matrix without ever forming it:

    - ``(X - 1 μᵀ) v   = X v - (μ·v) 1``
    - ``(X - 1 μᵀ)ᵀ u  = Xᵀ u - (Σᵢ uᵢ) μ``
    """

    def __init__(
        self, base: LinearOperator, column_means: Optional[FloatArray] = None
    ) -> None:
        super().__init__()
        self.base = base
        self.shape = base.shape
        if column_means is None:
            # Probe in the base's value dtype so a float32 base yields
            # float32 means and the operator never upcasts products.
            ones = np.ones(base.shape[0], dtype=base.dtype)
            column_means = base.rmatvec(ones) / base.shape[0]
            base.reset_counts()
        column_means = np.asarray(column_means, dtype=base.dtype)
        if column_means.shape != (base.shape[1],):
            raise ValueError("column_means must have length n_features")
        self.column_means: FloatArray = column_means

    @property
    def dtype(self) -> FloatDType:
        return self.base.dtype

    def _matmat(self, B: FloatArray) -> FloatArray:
        # (X - 1 μᵀ) B = X B - 1 (μᵀ B): one base block product plus a
        # rank-one correction — centering stays matrix-free at block width
        out = self.base.matmat(B)
        out -= (self.column_means @ B)[None, :]
        return out

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        # (X - 1 μᵀ)ᵀ U = Xᵀ U - μ (1ᵀ U), the outer product formed one
        # row panel at a time
        out = self.base.rmatmat(U)
        return add_product(out, self.column_means[:, None], -column_sums(U))


class AppendOnesOperator(LinearOperator):
    """Implicit ``[X | 1]`` — the bias-absorption trick of Section III-B.

    Appending a constant 1 feature lets the regression intercept absorb
    the class-mean offsets, so SRDA can regress on the raw (sparse,
    uncentered) data.  The augmented matrix is never formed:

    - ``[X | 1] v = X v[:-1] + v[-1] 1``
    - ``[X | 1]ᵀ u = (Xᵀ u, Σᵢ uᵢ)``
    """

    def __init__(self, base: LinearOperator) -> None:
        super().__init__()
        self.base = base
        self.shape = (base.shape[0], base.shape[1] + 1)

    @property
    def dtype(self) -> FloatDType:
        return self.base.dtype

    def _matmat(self, B: FloatArray) -> FloatArray:
        # [X | 1] B = X B[:-1] + 1 B[-1]
        out = self.base.matmat(B[:-1])
        out += B[-1]
        return out

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        # [X | 1]ᵀ U = [Xᵀ U; 1ᵀ U]: the base writes rows :n of the one
        # block, the column sums (summed first, so their scratch is gone
        # before the block exists) fill row n
        sums = column_sums(U)
        n = self.base.shape[1]
        out = np.empty(
            (n + 1, U.shape[1]), dtype=np.result_type(self.dtype, U.dtype)
        )
        head = out[:n]
        with lend_destination(self.base, head):
            result = self.base.rmatmat(U)
        if result is not head:
            head[...] = result
        out[n] = sums
        return out


class InjectedFaultError(ReproError, RuntimeError):
    """Raised by :class:`FaultyOperator` when a scheduled fault fires."""


class FaultyOperator(LinearOperator):
    """Fault-injection wrapper: corrupt or abort mat-vecs on schedule.

    Testing scaffolding for the robustness layer — wraps any operator
    and, on selected products, either corrupts the output (NaN/Inf) or
    raises :class:`InjectedFaultError`.  Products are counted across
    both directions in call order, so ``fail_at={3}`` poisons the
    fourth product LSQR requests regardless of direction.  A block
    product runs as one scheduled mat-vec per column, so a ``k``-column
    block counts ``k`` products and a fault poisons one column only.

    Parameters
    ----------
    base:
        The healthy operator to wrap.
    fail_at:
        Iterable of 0-based product indices at which to inject.
    fail_every:
        Alternatively (or additionally), inject on every ``k``-th
        product (indices ``k-1, 2k-1, ...``).
    mode:
        ``"nan"`` / ``"inf"`` corrupt the first output entry;
        ``"raise"`` raises :class:`InjectedFaultError`.

    Attributes
    ----------
    n_faults_injected:
        How many faults actually fired.
    """

    def __init__(
        self,
        base: LinearOperator,
        fail_at: Iterable[int] = (),
        fail_every: Optional[int] = None,
        mode: str = "nan",
    ) -> None:
        super().__init__()
        if mode not in ("nan", "inf", "raise"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if fail_every is not None and fail_every < 1:
            raise ValueError("fail_every must be a positive integer")
        self.base = base
        self.shape = base.shape
        self.fail_at = frozenset(int(i) for i in fail_at)
        self.fail_every = fail_every
        self.mode = mode
        self.n_products = 0
        self.n_faults_injected = 0

    @property
    def dtype(self) -> FloatDType:
        return self.base.dtype

    def _due(self) -> bool:
        index = self.n_products
        self.n_products += 1
        if index in self.fail_at:
            return True
        if self.fail_every is not None and (index + 1) % self.fail_every == 0:
            return True
        return False

    def _inject(self, out: FloatArray, direction: str) -> FloatArray:
        self.n_faults_injected += 1
        if self.mode == "raise":
            raise InjectedFaultError(
                f"injected fault on {direction} product "
                f"#{self.n_products - 1}"
            )
        # Copy in the base's own dtype: a float32 pipeline must see the
        # corruption in float32, not a silently upcast float64 product.
        out = np.array(out, copy=True)
        if out.size:
            out[0] = np.nan if self.mode == "nan" else np.inf
        return out

    def _sweep(
        self,
        product: Callable[[FloatArray], FloatArray],
        operand: FloatArray,
        direction: str,
    ) -> FloatArray:
        # One scheduled product per column, in column order, exactly as
        # a sequential solve would request them: a fault lands on the
        # one column whose product it was scheduled for.
        columns: List[FloatArray] = []
        for j in range(operand.shape[1]):
            due = self._due()
            column = product(operand[:, j])
            columns.append(self._inject(column, direction) if due else column)
        return np.stack(columns, axis=1)

    def _matmat(self, B: FloatArray) -> FloatArray:
        return self._sweep(self.base.matvec, B, "matvec")

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        return self._sweep(self.base.rmatvec, U, "rmatvec")


class StackedOperator(LinearOperator):
    """Vertical stack ``[A; B]`` of two operators with equal column counts.

    Used to express the damped least-squares system ``[X; √α I]`` that
    LSQR solves when regularization is folded into the operator rather
    than handled by LSQR's own ``damp`` parameter (the two paths are
    equivalent; having both lets tests cross-check them).
    """

    def __init__(self, top: LinearOperator, bottom: LinearOperator) -> None:
        super().__init__()
        if top.shape[1] != bottom.shape[1]:
            raise ValueError("stacked operators must share column count")
        self.top = top
        self.bottom = bottom
        self.shape = (top.shape[0] + bottom.shape[0], top.shape[1])

    @property
    def dtype(self) -> FloatDType:
        return np.result_type(self.top.dtype, self.bottom.dtype)

    def _matmat(self, B: FloatArray) -> FloatArray:
        return np.vstack([self.top.matmat(B), self.bottom.matmat(B)])

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        head = U[: self.top.shape[0]]
        tail = U[self.top.shape[0] :]
        return self.top.rmatmat(head) + self.bottom.rmatmat(tail)


class IdentityOperator(LinearOperator):
    """``c * I`` on n-dimensional vectors.

    ``dtype`` declares the value dtype of products; pass the data
    operator's dtype when stacking (``[X; √α I]``) so the stack's
    promoted dtype matches ``X`` instead of defaulting to float64.
    """

    def __init__(
        self, n: int, scale: float = 1.0, dtype: DTypeLike = np.float64
    ) -> None:
        super().__init__()
        self.shape = (n, n)
        self.scale = float(scale)
        self._dtype: FloatDType = np.dtype(dtype)

    @property
    def dtype(self) -> FloatDType:
        return self._dtype

    def _matmat(self, B: FloatArray) -> FloatArray:
        return self.scale * B

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        return self.scale * U


def as_operator(X: MatrixLike) -> LinearOperator:
    """Wrap a dense array, CSRMatrix, scipy sparse matrix, or operator.

    Complexity: O(1) — wrapping only; no data is copied or scanned.

    Dense input keeps its value dtype (float32 stays float32); see
    :func:`repro.linalg.sparse.as_value_dtype`.
    """
    if isinstance(X, LinearOperator):
        return X
    if isinstance(X, CSRMatrix) or is_sparse(X):
        return CSROperator(X)
    return DenseOperator(np.asarray(X))
