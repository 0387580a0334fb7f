"""Modified Gram–Schmidt orthogonalization.

SRDA's response-generation step (Section III, Eqn 15/16) takes the ``c``
class-indicator eigenvectors of the graph matrix ``W`` together with the
all-ones vector, orthogonalizes them, and discards the all-ones direction.
The paper quotes this step at ``O(m c²)`` flam and ``O(m c)`` memory.
:mod:`repro.core.responses` evaluates its result in closed form from the
class counts instead; this module's :func:`orthonormalize` of
``[1, indicators]`` stays the reference the response tests compare
against.

We use *modified* Gram–Schmidt with one optional re-orthogonalization pass
(the classical variant loses orthogonality catastrophically for nearly
dependent inputs), and detect rank deficiency via a relative tolerance so
the caller can drop dependent vectors instead of dividing by ~0.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro._typing import ArrayLike, Float64Array, IntArray


def orthogonalize_against(
    v: ArrayLike, basis: ArrayLike, reorthogonalize: bool = True
) -> Float64Array:
    """Remove from ``v`` its components along orthonormal ``basis`` columns.

    Complexity: O(m·k) — one (or two, reorthogonalized) sweeps over the
    ``k`` basis columns of length ``m``.

    Parameters
    ----------
    v:
        Vector of length ``m``.
    basis:
        ``(m, k)`` matrix whose columns are orthonormal.
    reorthogonalize:
        Apply the projection twice ("twice is enough" — Kahan/Parlett);
        keeps the result orthogonal to working precision even when ``v``
        is nearly inside the span of ``basis``.
    """
    work = np.asarray(v, dtype=np.float64).copy()
    Q = np.asarray(basis, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != work.shape[0]:
        raise ValueError("basis must be (m, k) with m matching v")
    passes = 2 if reorthogonalize else 1
    for _ in range(passes):
        for j in range(Q.shape[1]):
            column = Q[:, j]
            work -= (column @ work) * column
    return work


def orthonormalize(
    vectors: ArrayLike,
    tol: float = 1e-10,
    reorthogonalize: bool = True,
) -> Tuple[Float64Array, IntArray]:
    """Orthonormalize the columns of ``vectors`` by modified Gram–Schmidt.

    Complexity: O(m·k^2) — the paper's quoted cost for the response
    step with ``k = c`` indicator columns (Table I's cheap half).

    Returns ``(Q, kept)`` where ``Q`` is ``(m, r)`` with orthonormal
    columns spanning the input, and ``kept`` holds the indices of the
    input columns that survived (columns that were linearly dependent on
    earlier ones, relative to ``tol`` times their original norm, are
    dropped).
    """
    V = np.asarray(vectors, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("expected a 2-D array of column vectors")
    m, k = V.shape
    columns: List[Float64Array] = []
    kept: List[int] = []
    for j in range(k):
        v = V[:, j].copy()
        original_norm = np.linalg.norm(v)
        if original_norm == 0.0:
            continue
        if columns:
            basis = np.column_stack(columns)
            v = orthogonalize_against(v, basis, reorthogonalize)
        norm = np.linalg.norm(v)
        if norm <= tol * original_norm:
            continue
        columns.append(v / norm)
        kept.append(j)
    if not columns:
        return np.empty((m, 0)), np.empty(0, dtype=np.int64)
    return np.column_stack(columns), np.asarray(kept, dtype=np.int64)


def orthonormality_error(Q: ArrayLike) -> float:
    """Max-abs deviation of ``QᵀQ`` from the identity (a test helper).

    Complexity: O(m·k^2) — builds the full ``k × k`` Gram matrix.
    """
    dense = np.asarray(Q, dtype=np.float64)
    if dense.shape[1] == 0:
        return 0.0
    gram = dense.T @ dense
    return float(np.abs(gram - np.eye(dense.shape[1])).max())


def gram_schmidt_qr(
    A: ArrayLike, tol: float = 1e-10
) -> Tuple[Float64Array, Float64Array, IntArray]:
    """Thin QR factorization ``A = Q R`` via modified Gram–Schmidt.

    Complexity: O(m·k^2) for a ``(m, k)`` input — twice that of a
    single-pass MGS because of the stability re-projection.

    Used by the IDR/QR baseline, which is defined by a QR factorization
    of the class-centroid matrix.  Returns ``(Q, R, kept)``; when ``A``
    is rank-deficient the dependent columns are dropped from ``Q`` and
    ``kept`` records the survivors, with ``R`` of shape ``(r, k)`` still
    satisfying ``A ≈ Q R``.
    """
    dense = np.asarray(A, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("expected a 2-D array")
    m, k = dense.shape
    Q_cols: List[Float64Array] = []
    kept: List[int] = []
    R = np.zeros((k, k))
    for j in range(k):
        v = dense[:, j].copy()
        original_norm = np.linalg.norm(v)
        for i, q in enumerate(Q_cols):
            # two projection passes for stability
            coeff = q @ v
            v -= coeff * q
            extra = q @ v
            v -= extra * q
            R[i, j] += coeff + extra
        norm = np.linalg.norm(v)
        if original_norm == 0.0 or norm <= tol * max(original_norm, 1.0):
            continue
        R[len(Q_cols), j] = norm
        Q_cols.append(v / norm)
        kept.append(j)
    if not Q_cols:
        return np.empty((m, 0)), np.empty((0, k)), np.empty(0, dtype=np.int64)
    r = len(Q_cols)
    return (
        np.column_stack(Q_cols),
        R[:r, :],
        np.asarray(kept, dtype=np.int64),
    )
