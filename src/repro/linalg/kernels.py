"""Kernel dispatch: pure-numpy reference vs GIL-free compiled CSR kernels.

The paper's linear-time claim rests on O(nnz) products ``A @ B`` and
``A.T @ U``, and every solver in this package reaches them through
:class:`~repro.linalg.operators.CSROperator` or the sharded substrate.
There is one hot loop, the forward block product ``csr_matmat``
(``A @ B``); a mat-vec ``A @ v`` is its width-1 case, so the two shapes
return the same bits.  The adjoint ``csr_rmatmat`` runs the same loop
over the matrix's cached transpose
(:attr:`~repro.linalg.sparse.CSRMatrix.T`, built once by
``csr_transpose``), so each output entry of an adjoint is the
storage-order sum of one row of ``A.T``.

Block products return a row-major ``(rows, k)`` block on both
backends: a CSR row's stored entries each feed the ``k`` values of one
output row, and a row-major operand ``B`` (the layout the compiled
kernel reads) needs no copy when it is itself the row-major result of
an earlier product.  ``csr_matmat``/``csr_rmatmat`` also take a
destination ``out=`` of any layout — a shard's row range of the whole
product, a block with a spare row — and write every entry of it, empty
rows as zeros, so the destination needs no zeroing.  Either way the
values are the same bits.

Block LSQR's per-iteration vector work — the ``u``/``v`` updates with
their column norms, the ``x``/``w`` direction update and the column
normalizations — goes through the same seam (``block_add_sumsq``,
``block_advance``, ``block_divide``).  The reference is the numpy row
panel code of :mod:`repro.linalg.panels`; the compiled backend fuses
each update into one pass over the rows, in the same rounding and the
same pinned reduction order.

This module puts a dispatch seam in front of those loops with two
interchangeable backends:

``reference``
    The pure-numpy ``reduceat`` block kernel of
    :class:`~repro.linalg.sparse.CSRMatrix`, kept verbatim.  This is the
    ground truth every other backend is measured against.

``compiled``
    A small self-contained C extension (``repro.linalg._csr_kernels``,
    built by ``python setup.py build_ext --inplace``; no third-party
    runtime deps) whose inner loops run between
    ``Py_BEGIN_ALLOW_THREADS`` — so thread-backend shard workers
    genuinely overlap instead of serializing on the GIL, which is the
    reason BENCH_parallel.json's ``speedup_vs_direct`` can exceed 1.
    Its float64 block product has two paths: a portable lane loop whose
    accumulators sit on the stack, and, on x86-64 CPUs with AVX-512F, a
    register tile that keeps them in ``zmm`` registers for blocks of
    three or more columns.  The extension picks the path once, at
    import, from the CPU's features; :func:`kernel_tile` names it.
    Both run each lane's multiplies and adds in the same order.

**Bitwise contract.** The compiled kernels replay the reference
accumulation order exactly — numpy's pairwise order
(``seg[0] + pairwise(seg[1:])``) of ``np.add.reduceat`` — so the two
backends are interchangeable at the bit level, not merely to
rounding.  The parity suite (``tests/linalg/test_kernels.py``) asserts
``tobytes()`` equality across dtypes and CSR corner cases.  The one bit
outside the contract is the sign of a NaN made by adding two NaNs of
opposite sign, which follows each compiled binary's operand order
(numpy's included); such a result is NaN on both backends.

**Selection.** Per call, the backend is the innermost of:

1. an active :func:`use_backend` context (a ``ContextVar``, so thread
   backends propagate it into workers);
2. the ``REPRO_KERNEL_BACKEND`` environment variable (which spawned
   process workers inherit);
3. the default ``"auto"``.

``auto`` silently prefers the compiled backend when the extension is
importable and falls back to the reference otherwise.  Requesting
``"compiled"`` explicitly when the extension is absent emits a one-time
:class:`~repro.robustness.report.RobustnessWarning` and falls back —
results are identical either way, only the speed differs.

Calls the compiled kernels cannot replicate bit-for-bit (mixed-dtype
operands, non-contiguous storage) are routed to the reference
implementation regardless of the selected backend; the dispatch
functions therefore *never* change numerics, only execution.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import ContextManager, Iterator, Optional, Tuple

import numpy as np

from repro._typing import BoolArray, FloatArray, IntArray
from repro.linalg import panels
from repro.linalg.sparse import CSRMatrix, as_value_dtype, product_block

__all__ = [
    "KERNEL_BACKENDS",
    "KERNEL_BACKEND_ENV",
    "active_backend",
    "block_add_sumsq",
    "block_advance",
    "block_divide",
    "compiled_available",
    "csr_matmat",
    "csr_matmat_operand",
    "csr_rmatmat",
    "csr_transpose",
    "kernel_tile",
    "pinned_backend",
    "requested_backend",
    "use_backend",
]

#: Environment variable selecting the kernel backend for a whole run.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Accepted backend names.
KERNEL_BACKENDS = ("auto", "reference", "compiled")

try:  # pragma: no cover - exercised via both CI legs, not branch counts
    from repro.linalg import _csr_kernels as _compiled
except ImportError:  # pragma: no cover
    _compiled = None  # type: ignore[assignment]
else:  # pragma: no cover
    # numpy seeds pairwise sums of fewer than 8 terms with a zero whose
    # sign differs across releases; seg[0] + pairwise(seg[1:]) of two
    # negative zeros returns that seed, and the C port adopts it.
    _compiled.set_pairwise_seed(
        float(np.add.reduceat(np.array([-0.0, -0.0]), [0])[0])
    )

#: Innermost selection — survives into thread-backend workers because
#: ThreadBackend copies the submitting context into each task.
_BACKEND_OVERRIDE: ContextVar[Optional[str]] = ContextVar(
    "repro_kernel_backend", default=None
)

_warn_lock = threading.Lock()
_warned_missing = False


def compiled_available() -> bool:
    """True when the ``_csr_kernels`` extension imported successfully.

    Complexity: O(1) — the import was attempted once at module load.
    """
    return _compiled is not None


def kernel_tile() -> str:
    """The register tile compiled float64 block products run on.

    ``"avx512f"`` when the extension holds the AVX-512F tile and the CPU
    reports AVX-512F; ``"none"`` for the portable lane loop, or when the
    extension is not built.  Blocks of one or two columns and float32
    blocks take the lane loop either way; the values are the same bits.

    Complexity: O(1) — the CPU was checked once at import.
    """
    return _compiled.kernel_tile() if _compiled is not None else "none"


def _validate_backend(name: str) -> str:
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        )
    return name


def requested_backend() -> str:
    """The backend name currently requested (before availability checks).

    Complexity: O(1) — a ContextVar read plus one environ lookup.
    """
    override = _BACKEND_OVERRIDE.get()
    if override is not None:
        return override
    env = os.environ.get(KERNEL_BACKEND_ENV)
    if env:
        return _validate_backend(env)
    return "auto"


def _warn_missing_once() -> None:
    global _warned_missing
    with _warn_lock:
        if _warned_missing:
            return
        _warned_missing = True
    from repro.robustness.report import RobustnessWarning

    warnings.warn(
        "kernel backend 'compiled' was requested but the "
        "repro.linalg._csr_kernels extension is not built; falling back "
        "to the bitwise-identical pure-numpy reference kernels (build "
        "with `python setup.py build_ext --inplace` to enable it)",
        RobustnessWarning,
        stacklevel=3,
    )


def _reset_missing_warning() -> None:
    """Re-arm the one-time fallback warning (test hook)."""
    global _warned_missing
    with _warn_lock:
        _warned_missing = False


def active_backend() -> str:
    """Resolve the request to the backend that will actually run.

    Complexity: O(1).

    ``"auto"`` prefers ``"compiled"`` when available, silently falling
    back to ``"reference"``; an explicit ``"compiled"`` request without
    the extension warns once (:class:`RobustnessWarning`) and falls
    back.  The return value is always concrete: ``"reference"`` or
    ``"compiled"``.
    """
    requested = requested_backend()
    if requested == "reference":
        return "reference"
    if compiled_available():
        return "compiled"
    if requested == "compiled":
        _warn_missing_once()
    return "reference"


def use_backend(name: Optional[str]) -> ContextManager[None]:
    """Scope a kernel-backend selection to a ``with`` block.

    The selection rides a ``ContextVar``: thread-backend shard workers
    inherit it (each task runs in a copy of the submitting context),
    and nested scopes restore the outer selection on exit.  ``None`` is
    a no-op scope, so call sites can pass an optional config field
    straight through.

    Complexity: O(1) — one ContextVar set/reset pair.
    """
    if name is None:
        return nullcontext()
    return _backend_scope(_validate_backend(name))


def pinned_backend() -> ContextManager[None]:
    """Scope the backend the current selection resolves to.

    Inside the scope every dispatch reads the resolved name from the
    ``ContextVar`` (thread-backend workers included) instead of the
    environment, so a solve that makes many kernel calls resolves its
    backend once.  Per-call routing — dtype, layout — is unchanged.

    Complexity: O(1) — one resolution plus a ContextVar set/reset pair.
    """
    return _backend_scope(active_backend())


@contextmanager
def _backend_scope(name: str) -> Iterator[None]:
    token = _BACKEND_OVERRIDE.set(name)
    try:
        yield
    finally:
        _BACKEND_OVERRIDE.reset(token)


# ----------------------------------------------------------------------
# Compiled-path eligibility
# ----------------------------------------------------------------------


def _storage_ok(matrix: CSRMatrix) -> bool:
    """True when the matrix's arrays satisfy the C kernels' layout."""
    return (
        matrix.data.flags.c_contiguous
        and matrix.indices.flags.c_contiguous
        and matrix.indptr.flags.c_contiguous
    )


# ----------------------------------------------------------------------
# Dispatch functions
# ----------------------------------------------------------------------


def csr_matmat_operand(matrix: CSRMatrix, B: FloatArray) -> FloatArray:
    """``B`` in the layout the selected backend's block product reads.

    Complexity: O(n·c) — at most one copying cast of the ``(n, c)``
    operand; free when it already has the layout.

    The compiled kernel reads the operand row-major (the ``c`` values a
    stored entry multiplies sit together); the reference gathers each
    column wherever it lies, so it takes any layout.  :func:`csr_matmat`
    converts its operand itself; a caller that splits one product over
    several row blocks of ``matrix`` (the sharded operator) converts
    once here, so no block pays the copy again.  A row-major block — the
    result of an earlier product, or a row range of one — is already the
    compiled layout and is returned as is.  Values are unchanged: the
    cast is to the dtype the product computes in anyway.
    """
    B = as_value_dtype(B)
    if B.ndim != 2:
        return B
    dtype = np.result_type(matrix.data, B)
    if (
        active_backend() == "compiled"
        and _storage_ok(matrix)
        and dtype == matrix.dtype
    ):
        return np.ascontiguousarray(B, dtype=dtype)
    return B


def csr_matmat(
    matrix: CSRMatrix, B: FloatArray, out: Optional[FloatArray] = None
) -> FloatArray:
    """``A @ B`` for a dense block through the selected backend.

    Complexity: O(nnz·c) for a ``c``-column block — identical flam to
    ``c`` mat-vecs on either backend.

    The compiled kernel reads the matrix once per product (once per
    24-column panel on the float64 register tile, once per 32-column
    panel on the lane loop) against a row-major ``B`` (copied only when
    ``B`` has another layout).  The result is a new
    row-major block on both backends, or ``out``: an array of exactly
    the product's shape and dtype, in any layout, not overlapping
    ``B``, whose every entry is written (empty rows as zeros).  The
    values are the same bits either way.  A 1-D ``B`` is a mat-vec:
    the width-1 block product, returned 1-D.
    """
    B = as_value_dtype(B)
    if B.ndim == 1 and out is None:
        if B.shape != (matrix.shape[1],):
            raise ValueError(
                f"matvec expects a vector of length {matrix.shape[1]}, "
                f"got shape {B.shape}"
            )
        # A mat-vec is the width-1 block product: one kernel, one order.
        return csr_matmat(matrix, B[:, None])[:, 0]
    if B.ndim != 2 or B.shape[0] != matrix.shape[1]:
        raise ValueError("dimension mismatch in matmat")
    dtype = np.result_type(matrix.data, B)
    if (
        active_backend() != "compiled"
        or not _storage_ok(matrix)
        or dtype != matrix.dtype
    ):
        return matrix.matmat(B, out=out)
    out = product_block((matrix.shape[0], B.shape[1]), dtype, out)
    Bc = np.ascontiguousarray(B, dtype=dtype)
    _compiled.csr_matmat(matrix.data, matrix.indices, matrix.indptr, Bc, out)
    return out


def csr_rmatmat(
    matrix: CSRMatrix, U: FloatArray, out: Optional[FloatArray] = None
) -> FloatArray:
    """``A.T @ U`` for a dense block through the selected backend.

    Complexity: O(nnz·c) per call, plus the one-time transpose build
    (:func:`csr_transpose`), amortized over every later block.

    Routed through the (lazily cached) transpose exactly as the
    reference is, so the forward sweep kernel — whichever backend — is
    reused and the result stays bitwise-stable; ``out`` is
    :func:`csr_matmat`'s destination, ``(n, k)``.
    """
    U = as_value_dtype(U)
    if U.ndim == 1 and out is None:
        if U.shape != (matrix.shape[0],):
            raise ValueError(
                f"rmatvec expects a vector of length {matrix.shape[0]}, "
                f"got shape {U.shape}"
            )
    elif U.ndim != 2 or U.shape[0] != matrix.shape[0]:
        raise ValueError("dimension mismatch in rmatmat")
    return csr_matmat(matrix.T, U, out=out)


def csr_transpose(
    matrix: CSRMatrix,
) -> Tuple[FloatArray, IntArray, IntArray]:
    """``(data, indices, indptr)`` of ``A.T`` through the selected backend.

    Complexity: O(nnz + m + n) — a stable counting sort by column on
    the compiled backend; the reference's stable argsort adds a
    ``log nnz`` factor.

    Both builds return the same bytes.  The compiled one allocates only
    the three output arrays (through numpy) and fills none of the
    matrix's cached column segments or row ids.
    """
    if active_backend() != "compiled" or not _storage_ok(matrix):
        return matrix._transpose_arrays()
    t_data = np.empty(matrix.nnz, dtype=matrix.dtype)
    t_indices = np.empty(matrix.nnz, dtype=np.int64)
    t_indptr = np.empty(matrix.shape[1] + 1, dtype=np.int64)
    _compiled.csr_transpose(
        matrix.data, matrix.indices, matrix.indptr, t_data, t_indices, t_indptr
    )
    return t_data, t_indices, t_indptr


# ----------------------------------------------------------------------
# Block LSQR vector recurrences
# ----------------------------------------------------------------------


def _blocks_compiled(*blocks: FloatArray) -> bool:
    """Whether the compiled loops serve these blocks: one float dtype,
    and not empty."""
    dtype = blocks[0].dtype
    return (
        active_backend() == "compiled"
        and blocks[0].size > 0
        and dtype in (np.float32, np.float64)
        and all(block.dtype == dtype for block in blocks)
    )


def block_add_sumsq(
    A: FloatArray, X: FloatArray, scale: FloatArray, scratch: FloatArray
) -> FloatArray:
    """``A += X * scale`` in place; ``A``'s new column sums of squares.

    Complexity: O(n·k) for ``(n, k)`` blocks — one pass over the rows on
    the compiled backend.

    :func:`repro.linalg.panels.add_sumsq` is the reference; ``scale``
    is float64 and ``scratch`` a float64
    :func:`~repro.linalg.panels.panel_scratch` with at least ``k``
    columns.
    """
    scale = np.ascontiguousarray(scale, dtype=np.float64)
    if not _blocks_compiled(A, X):
        return panels.add_sumsq(A, X, scale, scratch)
    out = np.empty(A.shape[1])
    _compiled.block_add_sumsq(
        A, X, scale, scratch[0], panels.PANEL_ROWS, out
    )
    return out


def block_advance(
    W: FloatArray,
    Xa: FloatArray,
    V: FloatArray,
    t1: FloatArray,
    t2: FloatArray,
    scratch: FloatArray,
) -> FloatArray:
    """LSQR's ``Xa += t1·W`` and ``W = t2·W + V``, in place.

    Complexity: O(n·k) for ``(n, k)`` blocks — one pass over the rows on
    the compiled backend.

    Returns ``W``'s column sums of squares from before the update.
    :func:`repro.linalg.panels.advance_directions` is the reference;
    the compiled loop runs when all three blocks share one dtype.
    """
    if not _blocks_compiled(W, Xa, V):
        return panels.advance_directions(W, Xa, V, t1, t2, scratch)
    out = np.empty(W.shape[1])
    _compiled.block_advance(
        W,
        Xa,
        V,
        np.ascontiguousarray(t1, dtype=W.dtype),
        np.ascontiguousarray(t2, dtype=W.dtype),
        scratch[0],
        panels.PANEL_ROWS,
        out,
    )
    return out


def block_divide(block: FloatArray, d: FloatArray, mask: BoolArray) -> None:
    """``block[:, j] /= d[j]`` in place where ``mask[j]``.

    Complexity: O(n·k).
    """
    if not _blocks_compiled(block):
        panels.divide_columns(block, d, mask)
        return
    # x / 1 is x exactly, so an unmasked column divides by 1.
    _compiled.block_divide(block, np.where(mask, d, 1.0))
