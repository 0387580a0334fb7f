"""Cross-product SVD — the §II-B trick the LDA baseline relies on.

For a tall-or-wide matrix the economical SVD can be computed from the
eigendecomposition of the *smaller* Gram matrix: if ``X`` is ``(m, n)``
with ``m ≤ n``, the left singular vectors of ``X`` are the eigenvectors
of ``X Xᵀ`` (an ``m × m`` symmetric problem) and the right factor is
recovered as ``V = Xᵀ U Σ⁻¹``; symmetrically when ``n < m``.  The paper
counts this route ("the most efficient SVD decomposition algorithm, i.e.
cross-product") at ``(3/2) m n t + t³`` flam with ``t = min(m, n)`` —
this is the cubic term that SRDA removes.

Rank is determined from the eigenvalues of the Gram matrix with a
relative tolerance, so rank-deficient inputs (e.g. centered data, which
always loses one rank) come back with exactly ``r`` components.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.linalg.dense import symmetric_eigh


def cross_product_svd(
    X: np.ndarray, tol: float = 1e-10
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``X = U diag(s) Vᵀ`` via the smaller Gram matrix.

    Complexity: O(m·n^2 + n^3) when ``n ≤ m`` (mirrored otherwise) —
    Gram build, eigensolve on the small side, and back-multiplication.

    Parameters
    ----------
    X:
        Dense ``(m, n)`` matrix.
    tol:
        Relative rank cutoff applied to the Gram-matrix *eigenvalues*:
        eigenvalues below ``tol * max_eigenvalue`` are discarded.  The
        cross-product route squares the condition number, so rounding
        noise in the Gram matrix sits at ``~eps * max_eigenvalue``; the
        cutoff must live in eigenvalue space (σ² ratios), which means
        the smallest resolvable singular-value ratio is ``sqrt(tol)``.

    Returns
    -------
    (U, s, V):
        ``U`` is ``(m, r)``, ``s`` the ``r`` singular values in
        descending order, ``V`` is ``(n, r)``, with
        ``r = numerical rank``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("cross_product_svd requires a 2-D array")
    m, n = X.shape
    if m == 0 or n == 0:
        return np.empty((m, 0)), np.empty(0), np.empty((n, 0))

    if m <= n:
        gram = X @ X.T
        eigvals, eigvecs = symmetric_eigh(gram)
        s, U = _truncate(eigvals, eigvecs, tol)
        V = X.T @ (U / s)
        # The recovered factor inherits rounding from the division by
        # small singular values; one cheap re-normalization pass keeps it
        # orthonormal to working precision.
        V /= np.linalg.norm(V, axis=0)
    else:
        gram = X.T @ X
        eigvals, eigvecs = symmetric_eigh(gram)
        s, V = _truncate(eigvals, eigvecs, tol)
        U = X @ (V / s)
        U /= np.linalg.norm(U, axis=0)
    return U, s, V


def _truncate(
    eigvals: np.ndarray, eigvecs: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert Gram eigenvalues to singular values, dropping the null space."""
    eigvals = np.clip(eigvals, 0.0, None)
    if eigvals.size == 0 or eigvals[0] == 0.0:
        return np.empty(0), eigvecs[:, :0]
    cutoff = tol * eigvals[0]
    keep = eigvals > cutoff
    return np.sqrt(eigvals[keep]), eigvecs[:, keep]
