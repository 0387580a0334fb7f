"""Semi-supervised SRDA — the generalization the paper points to.

Section III notes the approach "can be generalized by constructing the
graph matrix W in the unsupervised or semi-supervised way" (refs
[12]–[16]).  This module provides that estimator: the spectral step runs
on a *blended* graph (LDA blocks on labeled pairs + k-NN affinity over
everything), producing responses for all samples — labeled and
unlabeled — and the regression step is unchanged.

Because the blended graph has no closed-form eigenvectors, the responses
come from a dense eigensolve of the (m, m) normalized affinity — this
estimator therefore targets moderate sample counts; the fully labeled
:class:`repro.core.srda.SRDA` keeps the closed-form fast path.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import LinearEmbedder, as_dense, encode_labels
from repro.core.graph import graph_responses, semi_supervised_affinity
from repro.core.solver_config import SolverConfig
from repro.core.srda import solve_ridge
from repro.linalg import kernels
from repro.observability import Tracer, resolve_tracer
from repro.robustness import FitReport


class SemiSupervisedSRDA(LinearEmbedder):
    """Spectral-regression discriminant analysis with partial labels.

    Parameters
    ----------
    alpha:
        Regression regularization, as in :class:`SRDA`.
    n_neighbors:
        k for the unsupervised affinity component.
    supervised_weight:
        Weight of the LDA-block component on labeled pairs; 0 makes the
        method fully unsupervised (spectral embedding + regression).
    n_components:
        Embedding dimensions; defaults to ``c - 1`` when labels exist,
        else must be given explicitly.
    config:
        A :class:`~repro.core.solver_config.SolverConfig`, as for
        :class:`repro.core.srda.SRDA`; ``config.solver`` must be
        ``"normal"`` (default) or ``"lsqr"``.  The sharding
        (``n_jobs``/``backend``) and ``kernel_backend`` fields steer
        the LSQR path exactly as they do for SRDA.
    max_iter, tol:
        LSQR controls.
    trace:
        Observability control, as :class:`repro.core.srda.SRDA`'s
        parameter of the same name.  When enabled, ``fit`` emits
        ``semi_srda.fit`` with nested affinity/responses/solve/embed
        spans and per-iteration LSQR events on the iterative path.

    The regression step is SRDA's own
    (:func:`repro.core.srda.solve_ridge` on the centered data), so
    ``fit_report_`` records the guarded-solve rungs or per-response
    LSQR codes exactly as for :class:`repro.core.srda.SRDA`.

    Notes
    -----
    ``fit(X, y)`` expects ``y`` with ``-1`` marking unlabeled samples.
    ``predict`` assigns the nearest centroid of the *labeled* training
    samples in the learned embedding.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        n_neighbors: int = 5,
        supervised_weight: float = 1.0,
        n_components: Optional[int] = None,
        config: Optional[SolverConfig] = None,
        max_iter: int = 20,
        tol: float = 1e-10,
        trace=None,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if config is None:
            config = SolverConfig(solver="normal")
        elif not isinstance(config, SolverConfig):
            raise ValueError(
                f"config must be a SolverConfig, got {type(config).__name__}"
            )
        if config.solver not in ("normal", "lsqr"):
            raise ValueError(
                f"unknown solver {config.solver!r}; SemiSupervisedSRDA "
                "supports 'normal' or 'lsqr'"
            )
        self.alpha = float(alpha)
        self.n_neighbors = int(n_neighbors)
        self.supervised_weight = float(supervised_weight)
        self.n_components = n_components
        self.config = config
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.trace = trace
        self.tracer_: Optional[Tracer] = None
        self.components_ = None
        self.intercept_ = None
        self.classes_ = None
        self.centroids_ = None
        self.responses_ = None
        self.lsqr_iterations_: Optional[List[int]] = None
        self.fit_report_: Optional[FitReport] = None

    def fit(self, X, y) -> "SemiSupervisedSRDA":
        """Fit from a partially labeled sample (``y == -1`` = unlabeled)."""
        tracer = resolve_tracer(self.trace)
        self.tracer_ = tracer if tracer.enabled else None
        with kernels.use_backend(self.config.kernel_backend), tracer.span(
            "semi_srda.fit",
            alpha=self.alpha,
            solver=self.config.solver,
            supervised_weight=self.supervised_weight,
        ):
            return self._fit_phases(X, y, tracer)

    def _fit_phases(self, X, y, tracer: Tracer) -> "SemiSupervisedSRDA":
        X = as_dense(X)
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one entry per sample")
        labeled_mask = y != -1
        if not labeled_mask.any():
            raise ValueError(
                "need at least one labeled sample; for the fully "
                "unsupervised variant pass supervised_weight=0 and "
                "label at least the centroid-defining samples"
            )
        classes, encoded = encode_labels(y[labeled_mask])
        if classes.shape[0] < 2:
            raise ValueError("need labeled samples from at least 2 classes")
        self.classes_ = classes
        y_indices = np.full(y.shape[0], -1, dtype=np.int64)
        y_indices[labeled_mask] = encoded

        n_components = self.n_components
        if n_components is None:
            n_components = classes.shape[0] - 1

        # spectral step on the blended graph
        with tracer.span(
            "semi_srda.affinity",
            n_neighbors=self.n_neighbors,
            n_labeled=int(labeled_mask.sum()),
        ):
            W = semi_supervised_affinity(
                X,
                y_indices,
                classes.shape[0],
                n_neighbors=self.n_neighbors,
                supervised_weight=self.supervised_weight,
            )
        with tracer.span(
            "semi_srda.responses", n_components=int(n_components)
        ):
            responses = graph_responses(W, n_components=n_components)
        self.responses_ = responses

        # regression step — SRDA's own, on the centered data
        solver = self.config.solver
        report = FitReport(requested_solver=solver)
        self.fit_report_ = report
        with tracer.span("semi_srda.solve", solver=solver):
            (
                self.components_,
                self.intercept_,
                _,
                self.lsqr_iterations_,
            ) = solve_ridge(
                X,
                responses,
                self.alpha,
                solver,
                True,
                self.config,
                self.max_iter,
                self.tol,
                report,
                tracer,
            )

        with tracer.span("semi_srda.embed"):
            Z_labeled = self.transform(X[labeled_mask])
            self._store_centroids(Z_labeled, encoded)
        return self
