"""Kernel SRDA — the spectral-regression KDA extension (paper ref [14]).

The paper notes its framework generalizes beyond linear projections; the
companion ICDM'07 paper kernelizes the regression step.  The projective
function becomes ``f(x) = Σᵢ γᵢ K(x, xᵢ)``, and each response is fit by
kernel ridge regression:

    γ = argmin_γ ‖K γ - ȳ‖² + α γᵀKγ   ⇒   (K + αI) γ = ȳ

(using the standard RKHS-norm penalty; ``K + αI`` is SPD for α > 0, so
one Cholesky factorization serves all ``c - 1`` responses, exactly
mirroring the linear normal-equations path).

Implemented kernels: linear, RBF (``gamma`` defaults to ``1/n``),
polynomial, and precomputed Gram matrices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import (
    NotFittedError,
    as_dense,
    validate_data,
    working_dtype,
)
from repro.core.estimator import ReproEstimator
from repro.core.responses import generate_responses
from repro.linalg.dense import dense_matmul
from repro.observability import Tracer, resolve_tracer
from repro.robustness import FitReport, guarded_solve


def linear_kernel(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``K[i, j] = xᵢ · yⱼ``."""
    return X @ Y.T


def rbf_kernel(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """``K[i, j] = exp(-γ ‖xᵢ - yⱼ‖²)``."""
    x_sq = np.sum(X**2, axis=1)[:, None]
    y_sq = np.sum(Y**2, axis=1)[None, :]
    d2 = np.clip(x_sq + y_sq - 2.0 * (X @ Y.T), 0.0, None)
    return np.exp(-gamma * d2)


def polynomial_kernel(
    X: np.ndarray, Y: np.ndarray, degree: int, coef0: float, gamma: float
) -> np.ndarray:
    """``K[i, j] = (γ xᵢ·yⱼ + coef0)^degree``."""
    return (gamma * (X @ Y.T) + coef0) ** degree


class KernelSRDA(ReproEstimator):
    """Kernel discriminant analysis via spectral regression.

    Parameters
    ----------
    alpha:
        Regularization for the kernel ridge systems; must be > 0 (the
        kernel matrix is typically singular or near-singular otherwise).
    kernel:
        ``"linear"``, ``"rbf"``, ``"poly"``, or ``"precomputed"`` (then
        ``fit``/``transform`` take Gram matrices: ``(m, m)`` for fit,
        ``(m_test, m_train)`` for transform).
    gamma, degree, coef0:
        Kernel hyperparameters; ``gamma`` defaults to ``1 / n_features``.
    trace:
        Observability control, as :class:`~repro.core.srda.SRDA`'s
        ``trace`` parameter: ``fit`` emits a ``kernel_srda.fit`` span
        with nested validate/responses/gram/solve/embed phases.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        kernel: str = "rbf",
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 1.0,
        trace=None,
    ) -> None:
        if alpha <= 0:
            raise ValueError("KernelSRDA requires alpha > 0")
        if kernel not in ("linear", "rbf", "poly", "precomputed"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.alpha = float(alpha)
        self.kernel = kernel
        self.gamma = gamma
        self.degree = int(degree)
        self.coef0 = float(coef0)
        self.trace = trace
        self.tracer_: Optional[Tracer] = None
        self.dual_coef_: Optional[np.ndarray] = None
        self.X_fit_: Optional[np.ndarray] = None
        self.classes_: Optional[np.ndarray] = None
        self.centroids_: Optional[np.ndarray] = None
        self.fit_report_: Optional[FitReport] = None
        self._train_embedding: Optional[np.ndarray] = None

    def _gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        gamma = self.gamma
        if gamma is None:
            gamma = 1.0 / max(1, X.shape[1])
        if self.kernel == "linear":
            return linear_kernel(X, Y)
        if self.kernel == "rbf":
            return rbf_kernel(X, Y, gamma)
        return polynomial_kernel(X, Y, self.degree, self.coef0, gamma)

    def fit(self, X, y) -> "KernelSRDA":
        """Fit the kernel discriminant embedding."""
        tracer = resolve_tracer(self.trace)
        self.tracer_ = tracer if tracer.enabled else None
        with tracer.span(
            "kernel_srda.fit", alpha=self.alpha, kernel=self.kernel
        ):
            return self._fit_phases(X, y, tracer)

    def _fit_phases(self, X, y, tracer: Tracer) -> "KernelSRDA":
        with tracer.span("kernel_srda.validate"):
            X, classes, y_indices = validate_data(X, y)
        self.classes_ = classes
        with tracer.span(
            "kernel_srda.responses", n_classes=int(classes.shape[0])
        ):
            responses = generate_responses(y_indices, classes.shape[0])

        with tracer.span("kernel_srda.gram") as gram_span:
            if self.kernel == "precomputed":
                K = np.asarray(X, dtype=np.float64)
                if K.shape[0] != K.shape[1]:
                    raise ValueError(
                        "precomputed fit needs a square Gram matrix"
                    )
                self.X_fit_ = None
            else:
                X = as_dense(X)
                self.X_fit_ = X
                K = self._gram(X, X)
            gram_span.set_attribute("gram_rows", int(K.shape[0]))

        # K + αI is SPD in exact arithmetic, but a near-singular kernel
        # with a tiny alpha can still break the factorization — route
        # through the guarded chain and keep the diagnostics.
        report = FitReport(requested_solver="cholesky")
        self.fit_report_ = report
        with tracer.span("kernel_srda.solve") as solve_span:
            result = guarded_solve(
                K, responses, alpha=self.alpha, report=report
            )
            solve_span.set_attribute("solver", result.solver)
        if result.fallbacks:
            report.add_warning(
                f"kernel system solve degraded to {result.solver} "
                f"(effective_alpha={result.effective_alpha:.3g})"
            )
        self.dual_coef_ = result.x
        with tracer.span("kernel_srda.embed"):
            self._train_embedding = dense_matmul(K, self.dual_coef_)
            self._store_centroids(self._train_embedding, y_indices)
        return self

    def _store_centroids(self, Z: np.ndarray, y_indices: np.ndarray) -> None:
        n_classes = self.classes_.shape[0]
        centroids = np.zeros((n_classes, Z.shape[1]))
        for k in range(n_classes):
            centroids[k] = Z[y_indices == k].mean(axis=0)
        self.centroids_ = centroids

    def transform(self, X) -> np.ndarray:
        """Embed samples: ``K(X, X_train) @ dual_coef``.

        The kernel itself is evaluated in float64 (RBF exponentials
        underflow badly at single precision); the returned embedding
        follows the :func:`~repro.core.base.working_dtype` contract —
        float32 input yields a float32 embedding.
        """
        if self.dual_coef_ is None:
            raise NotFittedError("KernelSRDA must be fitted before use")
        dtype = working_dtype(X)
        if self.kernel == "precomputed":
            K = np.asarray(X, dtype=np.float64)
            if K.shape[1] != self.dual_coef_.shape[0]:
                raise ValueError(
                    "precomputed transform needs shape (m_test, m_train)"
                )
        else:
            K = self._gram(as_dense(X), self.X_fit_)
        return dense_matmul(K, self.dual_coef_).astype(dtype, copy=False)

    def fit_transform(self, X, y) -> np.ndarray:
        """Fit and return the training embedding (no extra kernel pass)."""
        self.fit(X, y)
        return self._train_embedding

    def decision_function(self, X) -> np.ndarray:
        """Per-class scores: higher = closer centroid in the embedding.

        Same contract as
        :meth:`repro.core.base.LinearEmbedder.decision_function`:
        ``(m, c)`` scores ``2 z·c_k - ‖c_k‖²``, ``argmax`` is the
        predicted class, float32 input yields float32 scores.
        """
        if self.dual_coef_ is None:
            raise NotFittedError("KernelSRDA must be fitted before use")
        if self.centroids_ is None:
            raise NotFittedError("fit() did not record class centroids")
        Z = self.transform(X)
        C = np.asarray(self.centroids_, dtype=Z.dtype)
        cross = Z @ C.T
        return 2.0 * cross - np.sum(C * C, axis=1)

    def predict(self, X) -> np.ndarray:
        """Nearest-centroid classification in the kernel embedding."""
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def score(self, X, y) -> float:
        """Accuracy of :meth:`predict`."""
        return float(np.mean(self.predict(X) == np.asarray(y)))
