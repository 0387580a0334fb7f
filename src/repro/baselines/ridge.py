"""One-vs-rest ridge classification on SRDA's solver substrate.

SRDA's central move is replacing an eigenproblem with ridge regressions.
This module provides the *plain* regression classifier — one-hot targets,
same solvers — as a control: it runs SRDA's own regression stage
(:func:`repro.core.srda.solve_ridge`, bias absorbed by an appended ones
column) but regresses on raw indicators instead of the spectral
responses, so ablations can isolate what the response construction buys.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import NotFittedError, validate_data, working_dtype
from repro.core.estimator import ReproEstimator
from repro.core.solver_config import SolverConfig
from repro.core.srda import solve_ridge
from repro.linalg import kernels
from repro.linalg.sparse import CSRMatrix, is_sparse
from repro.observability import resolve_tracer
from repro.robustness import FitReport


class RidgeClassifier(ReproEstimator):
    """Multi-class ridge regression on ±1 one-vs-rest targets.

    Parameters
    ----------
    alpha:
        Tikhonov regularization ``α ≥ 0``.  At ``α = 0`` a singular
        Gram matrix degrades through the guarded fallback chain, as in
        :class:`repro.core.srda.SRDA`.
    config:
        A :class:`~repro.core.solver_config.SolverConfig`, as for
        :class:`repro.core.srda.SRDA`; ``config.solver`` must be
        ``"normal"``, ``"lsqr"``, or ``"auto"`` (LSQR for sparse
        input).  The sharding (``n_jobs``/``backend``) and
        ``kernel_backend`` fields steer the LSQR path exactly as they
        do for SRDA.
    max_iter, tol:
        LSQR controls, as in :class:`repro.core.srda.SRDA`.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        config: Optional[SolverConfig] = None,
        max_iter: int = 20,
        tol: float = 1e-10,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if config is None:
            config = SolverConfig()
        elif not isinstance(config, SolverConfig):
            raise ValueError(
                f"config must be a SolverConfig, got {type(config).__name__}"
            )
        if config.solver not in ("auto", "normal", "lsqr"):
            raise ValueError(
                f"unknown solver {config.solver!r}; RidgeClassifier "
                "supports 'auto', 'normal', or 'lsqr'"
            )
        self.alpha = float(alpha)
        self.config = config
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[np.ndarray] = None
        self.classes_: Optional[np.ndarray] = None
        self.lsqr_iterations_: Optional[List[int]] = None
        self.fit_report_: Optional[FitReport] = None

    def fit(self, X, y) -> "RidgeClassifier":
        """Fit one ridge regression per class against ±1 targets."""
        report = FitReport(requested_solver=self.config.solver)
        self.fit_report_ = report
        X, classes, y_indices = validate_data(X, y)
        self.classes_ = classes
        m = y_indices.shape[0]
        n_classes = classes.shape[0]
        targets = -np.ones((m, n_classes))
        targets[np.arange(m), y_indices] = 1.0

        solver = self.config.solver
        if solver == "auto":
            sparse_input = isinstance(X, CSRMatrix) or is_sparse(X)
            solver = "lsqr" if sparse_input else "normal"
        with kernels.use_backend(self.config.kernel_backend):
            solved = solve_ridge(
                X,
                targets,
                self.alpha,
                solver,
                False,
                self.config,
                self.max_iter,
                self.tol,
                report,
                resolve_tracer(None),
            )
        self.coef_, self.intercept_, _, self.lsqr_iterations_ = solved
        return self

    def decision_function(self, X) -> np.ndarray:
        """Per-class regression scores.

        ``(m, c)`` scores; ``argmax`` over a row is the predicted class.
        Follows the :func:`~repro.core.base.working_dtype` contract
        (float32 input yields float32 scores).
        """
        if self.coef_ is None:
            raise NotFittedError("RidgeClassifier must be fitted before use")
        dtype = working_dtype(X)
        coef = np.asarray(self.coef_, dtype=dtype)
        if isinstance(X, CSRMatrix):
            scores = X.matmat(coef)
        elif is_sparse(X):
            scores = np.asarray(X @ coef)
        else:
            X = np.asarray(X)
            if X.dtype != dtype:
                X = X.astype(dtype)
            scores = X @ coef
        scores = scores + np.asarray(self.intercept_, dtype=dtype)
        return scores.astype(dtype, copy=False)

    def transform(self, X) -> np.ndarray:
        """Embed samples into score space.

        The one-vs-rest regression scores *are* the model's learned
        ``c``-dimensional representation; exposing them as ``transform``
        gives the ablation baseline the same embed surface as the
        discriminant estimators.  Identical to
        :meth:`decision_function`.
        """
        return self.decision_function(X)

    def predict(self, X) -> np.ndarray:
        """Class with the highest regression score."""
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]

    def score(self, X, y) -> float:
        """Accuracy of :meth:`predict`."""
        return float(np.mean(self.predict(X) == np.asarray(y)))
