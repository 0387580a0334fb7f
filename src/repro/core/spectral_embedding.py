"""Unsupervised spectral-regression embedding (refs [12], [13], [16]).

The fully unsupervised member of the family: responses come from the
leading non-trivial eigenvectors of a k-NN affinity graph (a Laplacian
eigenmap), and the regression step turns them into *linear* projective
functions that extend the embedding to unseen samples — the regularized
locality-preserving-indexing construction.

The graph eigenproblem is solved exactly on the dense normalized
affinity: LAPACK's ``eigh`` computes only the leading pairs
(``subset_by_index``), and the result is cross-checked against the full
dense solve of :func:`repro.core.graph.graph_responses`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import NotFittedError, as_dense, working_dtype
from repro.core.estimator import ReproEstimator
from repro.core.graph import knn_affinity
from repro.core.solver_config import SolverConfig
from repro.core.srda import solve_ridge
from repro.linalg.dense import dense_matmul
from repro.observability import resolve_tracer
from repro.robustness import FitReport


class SpectralRegressionEmbedding(ReproEstimator):
    """Linear out-of-sample extension of a graph spectral embedding.

    Parameters
    ----------
    n_components:
        Embedding dimensionality.
    alpha:
        Regression regularization.
    n_neighbors:
        k for the affinity graph.
    affinity:
        ``"binary"`` or ``"heat"`` (see :func:`knn_affinity`).
    solver:
        ``"normal"`` or ``"lsqr"`` for the regression step, which is
        SRDA's own (:func:`repro.core.srda.solve_ridge` on the centered
        data); ``fit_report_`` records its diagnostics.
    max_iter, tol:
        LSQR controls.
    """

    def __init__(
        self,
        n_components: int = 2,
        alpha: float = 1.0,
        n_neighbors: int = 5,
        affinity: str = "heat",
        solver: str = "normal",
        max_iter: int = 30,
        tol: float = 1e-10,
    ) -> None:
        if n_components < 1:
            raise ValueError("n_components must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if solver not in ("normal", "lsqr"):
            raise ValueError(f"unknown solver {solver!r}")
        self.n_components = int(n_components)
        self.alpha = float(alpha)
        self.n_neighbors = int(n_neighbors)
        self.affinity = affinity
        self.solver = solver
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.components_: Optional[np.ndarray] = None
        self.intercept_: Optional[np.ndarray] = None
        self.responses_: Optional[np.ndarray] = None
        self.lsqr_iterations_: Optional[List[int]] = None
        self.fit_report_: Optional[FitReport] = None

    def _graph_responses(self, W: np.ndarray) -> np.ndarray:
        """Top non-trivial eigenvectors of D^{-1/2} W D^{-1/2}.

        Complexity: O(m³) — one dense symmetric eigensolve of the
        ``m × m`` graph, which computes only the leading pairs.
        """
        from scipy.linalg import eigh

        degrees = W.sum(axis=1)
        degrees = np.where(degrees > 0, degrees, 1.0)
        inv_sqrt = 1.0 / np.sqrt(degrees)
        S = (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
        S = 0.5 * (S + S.T)
        m = S.shape[0]
        k = min(self.n_components + 1, m)  # +1 for the trivial top pair
        _, vectors = eigh(S, subset_by_index=[m - k, m - 1])
        # eigh returns ascending eigenvalues: reverse to leading-first
        responses = inv_sqrt[:, None] * vectors[:, ::-1][:, 1:k]
        norms = np.linalg.norm(responses, axis=0)
        norms = np.where(norms > 0, norms, 1.0)
        return responses / norms

    def fit(self, X, y=None) -> "SpectralRegressionEmbedding":
        """Learn the linear embedding from unlabeled data."""
        X = as_dense(X)
        m = X.shape[0]
        if self.n_components >= m:
            raise ValueError("n_components must be smaller than n_samples")
        W = knn_affinity(X, n_neighbors=self.n_neighbors, mode=self.affinity)
        responses = self._graph_responses(W)
        self.responses_ = responses

        report = FitReport(requested_solver=self.solver)
        self.fit_report_ = report
        (
            self.components_,
            self.intercept_,
            _,
            self.lsqr_iterations_,
        ) = solve_ridge(
            X,
            responses,
            self.alpha,
            self.solver,
            True,
            SolverConfig(solver=self.solver),
            self.max_iter,
            self.tol,
            report,
            resolve_tracer(None),
        )
        return self

    def transform(self, X) -> np.ndarray:
        """Embed (possibly unseen) samples linearly.

        Follows the :func:`~repro.core.base.working_dtype` contract:
        float32 input yields a float32 embedding.
        """
        if self.components_ is None:
            raise NotFittedError(
                "SpectralRegressionEmbedding must be fitted before use"
            )
        dtype = working_dtype(X)
        X = as_dense(X)
        Z = dense_matmul(X, self.components_) + self.intercept_
        return Z.astype(dtype, copy=False)

    def fit_transform(self, X, y=None) -> np.ndarray:
        """Fit and embed the training data."""
        return self.fit(X).transform(X)
