"""Small dense helpers shared across the estimators, baselines and tests."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._typing import Float64Array, FloatArray

#: Bytes of one row block of :func:`normal_gram`: its scratch buffer and
#: the panels the Gram's lower triangle is mirrored in.  256 rows at
#: ``n = 1024``; the block stays cache-sized whatever ``m`` is.
GRAM_BLOCK_BYTES = 2 * 2**20


def dense_matmul(A: FloatArray, B: FloatArray) -> FloatArray:
    """``A @ B`` for a dense data matrix ``A`` and a thin block ``B``.

    Complexity: O(m·n·k) for ``(m, n)`` ``A`` and ``(n, k)`` ``B``.

    The one place the orientation of a dense tall×thin product is
    decided.  When the product computes in float64 it runs as
    ``(Bᵀ·Aᵀ)ᵀ``, so the thin block is the GEMM's left operand.  With
    OpenBLAS 0.3.31 on one thread of a 2-core x86-64 host that form
    computes ``Xᵀ·U`` 1.6–2.3× and ``X·V`` 1.2–1.8× faster than
    ``A @ B`` at SRDA's shapes (``BENCH_dense_products.json``: 2000 to
    7480 rows, 784 or 1024 columns, ``k`` = 9 or 67).  The result is
    the transposed view of a C-ordered ``(k, m)`` array, i.e.
    Fortran-ordered; :func:`~repro.linalg.block_lsqr.block_lsqr` keeps
    its blocks in the layout the products return.
    Float32 products keep the plain ``A @ B``: turned around they ran
    0.6–0.9× as fast forward and 0.9–1.6× on the adjoint, by shape.  1-D
    operands run a GEMV, bit-identical in either orientation.
    """
    if np.result_type(A, B) == np.float64:
        return (B.T @ A.T).T
    return A @ B


def normal_gram(
    X: FloatArray, targets: FloatArray, mean: Optional[FloatArray] = None
) -> Tuple[Float64Array, Float64Array]:
    """Primal normal equations ``(X̄ᵀX̄, X̄ᵀT)``, accumulated by row blocks.

    Complexity: O(m·n^2 + m·n·k) for ``(m, n)`` ``X`` and ``(m, k)``
    ``T``.

    ``X̄`` is ``X - 1μᵀ`` when ``mean`` is given (Eqn 14) and ``[X 1]``
    otherwise (Section III-B), whose Gram is the bordered
    ``[[XᵀX, Xᵀ1], [1ᵀX, m]]`` and right-hand side ``[XᵀT; 1ᵀT]``.
    ``X̄`` is never formed: each block of ``GRAM_BLOCK_BYTES`` is built
    in one reused float64 scratch buffer and added into the Gram's lower
    triangle by ``dsyrk`` and into the right-hand side by ``dgemm``.
    The lower triangle is then mirrored in panels of the same size.
    Working memory beyond the result is one block.  Both products call
    scipy's BLAS: taking the right-hand side through numpy's (a separate
    OpenBLAS) instead made the loop 1.2× slower on one thread and 1.6×
    on two, on a 2-core x86-64 host at ``4080 × 1024``.

    Returns the symmetric ``(w, w)`` Gram (Fortran-ordered, the layout
    the Cholesky factor works in) and the ``(w, k)`` right-hand side,
    with ``w = n`` centered or ``n + 1`` bordered.
    """
    from scipy.linalg import blas

    X = np.asarray(X)
    m, n = X.shape
    width = n if mean is not None else n + 1
    rows = max(1, GRAM_BLOCK_BYTES // (8 * width))
    gram = np.zeros((width, width), order="F")
    rhs = np.zeros((width, targets.shape[1]), order="F")
    scratch = np.empty((min(rows, m), width))
    if mean is None:
        scratch[:, n] = 1.0
    for i in range(0, m, rows):
        block = scratch[: min(rows, m - i)]
        if mean is not None:
            np.subtract(X[i : i + rows], mean, out=block)
        else:
            block[:, :n] = X[i : i + rows]
        # ``block.T`` and ``targets[...].T`` are Fortran-ordered, so
        # f2py passes them through without copying; ``overwrite_c``
        # accumulates into ``gram`` and ``rhs`` in place.
        gram = blas.dsyrk(
            1.0, block.T, beta=1.0, c=gram, trans=0, lower=1, overwrite_c=1
        )
        rhs = blas.dgemm(
            1.0, block.T, targets[i : i + rows].T, beta=1.0, c=rhs,
            trans_b=1, overwrite_c=1,
        )
    for j in range(0, width, rows):
        end = min(j + rows, width)
        diagonal = gram[j:end, j:end]
        diagonal[...] = np.tril(diagonal) + np.tril(diagonal, -1).T
        gram[j:end, end:] = gram[end:, j:end].T
    return gram, rhs


def symmetric_eigh(A: FloatArray) -> Tuple[FloatArray, FloatArray]:
    """Eigendecomposition of a symmetric matrix, sorted descending.

    Complexity: O(n^3) — dense symmetric eigensolve.

    Thin wrapper over ``numpy.linalg.eigh`` that symmetrizes the input
    (guarding against rounding asymmetry in computed Gram matrices) and
    returns eigenvalues in decreasing order — the convention every
    caller in this package wants, since discriminant directions are the
    *leading* eigenvectors.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("symmetric_eigh requires a square matrix")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.T))
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order]


def solve_lstsq(A: FloatArray, b: FloatArray) -> FloatArray:
    """Minimum-norm least-squares solution of ``A x ≈ b``.

    Complexity: O(m·n^2) — dense SVD-backed ``lstsq``.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return x


def ridge_solution(A: FloatArray, b: FloatArray, alpha: float) -> FloatArray:
    """Reference ridge solution ``(AᵀA + αI)⁻¹ Aᵀ b`` for tests.

    Complexity: O(m·n^2 + n^3) — Gram build plus one factorization.

    The normal-equations matrix is factored once by the LAPACK
    Cholesky of :mod:`repro.linalg.cholesky` and the factor is reused
    for every right-hand-side column of ``b`` — the triangular solves
    handle ``b`` as a matrix, so a multi-column call pays one O(n³)
    factorization total.  When the shifted Gram matrix is numerically
    semidefinite (e.g. ``alpha = 0`` on rank-deficient data) it falls
    back to the minimum-norm least-squares solution.
    """
    from repro.linalg.cholesky import (
        NotPositiveDefiniteError,
        cholesky,
        solve_factored,
    )

    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[1]
    gram = A.T @ A + alpha * np.eye(n)
    rhs = A.T @ b
    try:
        L = cholesky(gram)
    except NotPositiveDefiniteError:
        return solve_lstsq(gram, rhs)
    return solve_factored(L, rhs)


def generalized_eigh(
    B: FloatArray, A: FloatArray, regularization: float = 0.0
) -> Tuple[FloatArray, FloatArray]:
    """Solve ``B v = λ A v`` for symmetric ``B`` and SPD (after shift) ``A``.

    Complexity: O(n^3) — Cholesky reduction plus a symmetric eigensolve.

    Reduces to a standard symmetric problem through the Cholesky factor
    of ``A + regularization·I``.  Eigenvalues come back descending.
    """
    from repro.linalg.cholesky import cholesky, solve_triangular

    B = np.asarray(B, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    L = cholesky(A + regularization * np.eye(n))
    # C = L⁻¹ B L⁻ᵀ
    C = solve_triangular(L, B, lower=True)
    C = solve_triangular(L, C.T, lower=True).T
    eigvals, W = symmetric_eigh(C)
    V = solve_triangular(L.T, W, lower=False)
    return eigvals, V
