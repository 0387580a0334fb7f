"""A from-scratch Lanczos eigensolver, complementing the LAPACK wrapper
in :mod:`repro.linalg.dense`.

:func:`lanczos_eigsh` runs the Lanczos iteration with full
reorthogonalization for the *leading* eigenpairs of a large symmetric
operator.  This is what lets the generalized response construction
(:func:`repro.core.graph.graph_responses`) scale past the dense
eigensolve: a k-NN affinity only needs its top few eigenvectors, and
Lanczos touches it through mat-vecs alone.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConvergenceError
from repro.linalg.operators import as_operator


def lanczos_eigsh(
    A,
    k: int,
    max_iter: Optional[int] = None,
    tol: float = 1e-10,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Leading ``k`` eigenpairs of a symmetric operator by Lanczos.

    Complexity: O(iters·(nnz + m·iters)) — one ``matvec`` per Krylov
    step plus full reorthogonalization against the basis built so far.

    Full reorthogonalization keeps the Krylov basis orthonormal (the
    classic three-term recurrence loses orthogonality as Ritz pairs
    converge); for the moderate ``k`` and matrix sizes this package
    needs, the O(m·j) per-step cost is a fine trade for robustness.

    Parameters
    ----------
    A:
        Symmetric matrix or operator of shape ``(m, m)`` (only
        ``matvec`` is used).
    k:
        Number of leading (largest-eigenvalue) pairs to return.
    max_iter:
        Krylov dimension cap; defaults to ``min(m, max(4k, 40))``.
    tol:
        Residual tolerance ``‖A v − λ v‖ ≤ tol·|λ_max|`` for convergence
        of all requested pairs.
    seed:
        Seed for the random starting vector.
    """
    op = as_operator(A)
    m = op.shape[0]
    if op.shape[0] != op.shape[1]:
        raise ValueError("lanczos_eigsh requires a square operator")
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}]")
    if max_iter is None:
        max_iter = min(m, max(4 * k, 40))
    max_iter = min(max_iter, m)

    rng = np.random.default_rng(seed)
    Q = np.zeros((m, max_iter + 1))
    alphas = []
    betas = []
    q = rng.standard_normal(m)
    q /= np.linalg.norm(q)
    Q[:, 0] = q

    def finalize(n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
        T = np.diag(alphas)
        if betas:
            off = np.array(betas)
            T += np.diag(off, 1) + np.diag(off, -1)
        ritz_values, ritz_vectors = np.linalg.eigh(T)
        order = np.argsort(ritz_values)[::-1][: min(k, n_steps)]
        eigenvalues = ritz_values[order]
        eigenvectors = Q[:, :n_steps] @ ritz_vectors[:, order]
        eigenvectors /= np.linalg.norm(eigenvectors, axis=0)
        return eigenvalues, eigenvectors

    tiny = 1e-12
    for j in range(max_iter):
        w = op.matvec(Q[:, j])
        alpha = float(Q[:, j] @ w)
        alphas.append(alpha)
        w -= alpha * Q[:, j]
        if j > 0:
            w -= betas[-1] * Q[:, j - 1]
        # full reorthogonalization (twice for safety)
        for _ in range(2):
            w -= Q[:, : j + 1] @ (Q[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        n_steps = j + 1

        if n_steps == max_iter:
            return finalize(n_steps)

        if beta <= tiny:
            # The Krylov block became an invariant subspace.  A single
            # starting vector can never expose an eigenvalue's further
            # multiplicity (e.g. the LDA graph matrix, a projection,
            # has a 2-dimensional Krylov space) — restart with a fresh
            # direction orthogonal to everything found so far; a zero
            # coupling in T keeps the blocks exactly decoupled.
            w = rng.standard_normal(m)
            for _ in range(2):
                w -= Q[:, :n_steps] @ (Q[:, :n_steps].T @ w)
            norm = float(np.linalg.norm(w))
            if norm <= tiny:  # the whole space is exhausted
                return finalize(n_steps)
            betas.append(0.0)
            Q[:, j + 1] = w / norm
            continue

        if n_steps >= k:
            T = np.diag(alphas)
            if betas:
                off = np.array(betas)
                T += np.diag(off, 1) + np.diag(off, -1)
            ritz_values, ritz_vectors = np.linalg.eigh(T)
            order = np.argsort(ritz_values)[::-1][:k]
            # residual of pair i is |beta * last component of ritz vec|
            residuals = beta * np.abs(ritz_vectors[-1, order])
            scale = max(abs(ritz_values[order[0]]), 1e-30)
            if np.all(residuals <= tol * scale):
                return finalize(n_steps)

        betas.append(beta)
        Q[:, j + 1] = w / beta

    raise ConvergenceError(
        "lanczos_eigsh failed to converge"
    )  # pragma: no cover
