"""Cholesky factorization and triangular solves.

The normal-equations path of SRDA (Section III-C.1) factors the
regularized Gram matrix ``XᵀX + αI`` (or its ``m×m`` dual ``XXᵀ + αI``
when ``n > m``) as ``L Lᵀ`` with ``L`` lower triangular, at ``n³/6``
flam, and then substitutes each of the ``c-1`` responses at ``n²`` flam
each.

- :func:`cholesky` — LAPACK ``dpotrf`` on the lower triangle of a
  Fortran-ordered copy, with an explicit positive-definiteness and
  finite-pivot check.
- :func:`solve_triangular` — LAPACK triangular solve (``dtrtrs``), vector
  or matrix right-hand sides.
- :func:`solve_cholesky` / :func:`solve_factored` — factor once, solve
  many.

The factorization and the substitutions are LAPACK's, reached through
``scipy.linalg`` (imported on first use, so importing the package still
needs only numpy).  What counts as positive definite stays here: the
leading minor that failed is named in :class:`NotPositiveDefiniteError`,
and so is a NaN or infinite pivot, which ``dpotrf`` itself lets through
with ``info = 0``.  The fallback chain built on that error lives in
:mod:`repro.robustness.guarded`.
"""

from __future__ import annotations

import numpy as np

from repro._typing import ArrayLike, Float64Array
from repro.exceptions import ReproError


class NotPositiveDefiniteError(ReproError, ValueError):
    """Raised when a matrix handed to :func:`cholesky` is not SPD."""


def cholesky(A: ArrayLike) -> Float64Array:
    """Compute the lower-triangular Cholesky factor ``L`` with ``A = L Lᵀ``.

    Complexity: O(n^3) — the dense-baseline cost SRDA's iterative
    regression avoids (``n³/6`` flam).

    ``A`` itself is never written: the factor is computed in one
    Fortran-ordered copy, the layout LAPACK factors without a further
    copy of its own.

    Parameters
    ----------
    A:
        Symmetric positive-definite matrix.  Only the lower triangle is
        read.

    Returns
    -------
    The lower factor (Fortran-ordered, as LAPACK writes it), with the
    strict upper triangle zeroed.

    Raises
    ------
    NotPositiveDefiniteError
        If a non-positive, NaN or infinite pivot is encountered; the
        message names the leading minor it belongs to.
    """
    return _cholesky_in_place(np.array(A, dtype=np.float64, order="F"))


def _cholesky_in_place(matrix: Float64Array) -> Float64Array:
    """Factor a Fortran-ordered float64 ``matrix`` into its own memory.

    The one ``dpotrf`` call of the package: :func:`cholesky` hands it a
    fresh copy, :func:`repro.robustness.guarded_solve` the one shifted
    copy it makes per attempt.  Returns ``matrix``, now holding ``L``.
    """
    from scipy.linalg import lapack

    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("cholesky requires a square matrix")
    L, info = lapack.dpotrf(matrix, lower=True, clean=True, overwrite_a=True)
    if info < 0:  # pragma: no cover - the arguments above are always legal
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    # ``dpotrf`` stops at the first non-positive pivot (``info`` names
    # its minor and leaves the pivot on the diagonal) but passes NaN and
    # infinite pivots through; the first non-finite entry of the factored
    # diagonal is the earliest pivot that failed.
    factored = info - 1 if info > 0 else matrix.shape[0]
    bad = np.flatnonzero(~np.isfinite(np.diagonal(L)[:factored]))
    j = int(bad[0]) if bad.size else info - 1
    if j >= 0:
        raise NotPositiveDefiniteError(
            f"leading minor {j + 1} is not positive definite "
            f"(pivot={L[j, j]!r})"
        )
    return L


def solve_triangular(
    L: ArrayLike, b: ArrayLike, lower: bool = True
) -> Float64Array:
    """Solve ``L x = b`` for triangular ``L`` by LAPACK substitution.

    Complexity: O(n^2) per right-hand side (O(n^2·c) for a ``c``-column
    block).

    Accepts a vector or matrix right-hand side and returns a new array
    of the same shape.  A transposed view such as ``L.T`` costs no
    copy: LAPACK solves the transposed system on the underlying array.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``L`` has a zero on its diagonal.
    """
    return _substitute(L, b, lower, "N")


def solve_cholesky(A: ArrayLike, b: ArrayLike) -> Float64Array:
    """Solve ``A x = b`` for SPD ``A`` via Cholesky (factor once per call).

    Complexity: O(n^3) — dominated by the factorization.
    """
    return solve_factored(cholesky(A), b)


def solve_factored(L: ArrayLike, b: ArrayLike) -> Float64Array:
    """Solve with a precomputed lower factor ``L`` (``A = L Lᵀ``).

    Complexity: O(n^2) per right-hand side — two triangular solves.

    This is the "factor once, solve ``c-1`` right-hand sides" pattern the
    complexity analysis counts: the factorization dominates, each extra
    response costs only two triangular solves, both on ``L`` itself
    (the second as ``Lᵀ x = y``).
    """
    return _substitute(L, _substitute(L, b, True, "N"), True, "T")


def _substitute(
    L: ArrayLike, b: ArrayLike, lower: bool, trans: str
) -> Float64Array:
    """``L x = b`` (``trans="N"``) or ``Lᵀ x = b`` (``trans="T"``)."""
    from scipy import linalg

    factor = np.asarray(L, dtype=np.float64)
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
        raise ValueError("triangular solve requires a square matrix")
    return linalg.solve_triangular(
        factor, np.asarray(b, dtype=np.float64), lower=lower, trans=trans,
        check_finite=False,
    )
