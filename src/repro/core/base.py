"""Shared estimator machinery for SRDA and the LDA baselines.

Every discriminant method in this package follows the same protocol:

- ``fit(X, y)`` learns a linear (or kernel) embedding into at most
  ``c - 1`` dimensions;
- ``transform(X)`` maps new samples into that embedding;
- ``predict(X)`` classifies by nearest class centroid *in the embedding*,
  which is the standard read-out for discriminant projections and the one
  the paper's error-rate tables imply.

Conventions: samples are **rows** (``X`` is ``(m, n)``), the opposite of
the paper's column-sample notation; the mapping is noted where formulas
are transcribed.  ``X`` may be a dense ndarray, a scipy.sparse matrix, or
our :class:`repro.linalg.CSRMatrix`.
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

import numpy as np

from repro._typing import FloatArray

from repro.core.estimator import ReproEstimator
from repro.exceptions import ReproError
from repro.linalg import kernels
from repro.linalg.dense import dense_matmul
from repro.linalg.sparse import CSRMatrix, is_sparse
from repro.robustness import RobustnessWarning


class NotFittedError(ReproError, RuntimeError):
    """Raised when ``transform``/``predict`` is called before ``fit``."""


def encode_labels(y) -> Tuple[FloatArray, FloatArray]:
    """Map arbitrary labels to contiguous indices.

    Returns ``(classes, y_indices)`` where ``classes`` is the sorted array
    of distinct labels and ``y_indices[i]`` is the position of ``y[i]`` in
    it.
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    classes, y_indices = np.unique(y, return_inverse=True)
    return classes, y_indices


def class_counts(y_indices: FloatArray, n_classes: int) -> FloatArray:
    """Number of samples per class (the paper's ``m_k``)."""
    return np.bincount(y_indices, minlength=n_classes)


def _format_indices(indices: FloatArray, limit: int = 5) -> str:
    shown = ", ".join(str(int(i)) for i in indices[:limit])
    if indices.shape[0] > limit:
        shown += f", ... ({indices.shape[0]} total)"
    return "[" + shown + "]"


def _nonfinite_message(rows: FloatArray, cols: FloatArray, count: int) -> str:
    return (
        f"X contains {count} NaN/infinity entries in rows "
        f"{_format_indices(rows)} and columns {_format_indices(cols)}"
    )


def _sparse_nonfinite_location(X) -> Tuple[FloatArray, FloatArray, int]:
    """(bad rows, bad cols, count) for a CSR-like matrix's data array."""
    csr = X if isinstance(X, CSRMatrix) else X.tocsr()
    bad = np.flatnonzero(~np.isfinite(csr.data))
    rows = np.unique(np.searchsorted(csr.indptr, bad, side="right") - 1)
    cols = np.unique(np.asarray(csr.indices)[bad])
    return rows, cols, int(bad.shape[0])


def _handle_nonfinite(X, on_invalid: str):
    """Raise with located indices, or warn and return a sanitized copy."""
    if isinstance(X, CSRMatrix) or is_sparse(X):
        rows, cols, count = _sparse_nonfinite_location(X)
    else:
        bad = ~np.isfinite(X)
        rows = np.flatnonzero(bad.any(axis=1))
        cols = np.flatnonzero(bad.any(axis=0))
        count = int(bad.sum())
    message = _nonfinite_message(rows, cols, count)
    if on_invalid == "raise":
        raise ValueError(message)
    warnings.warn(
        message + "; replacing them with 0", RobustnessWarning, stacklevel=3
    )
    if isinstance(X, CSRMatrix):
        return CSRMatrix(
            np.nan_to_num(X.data, nan=0.0, posinf=0.0, neginf=0.0),
            np.array(X.indices, copy=True),
            np.array(X.indptr, copy=True),
            X.shape,
        )
    if is_sparse(X):
        X = X.copy().tocsr()
        X.data = np.nan_to_num(X.data, nan=0.0, posinf=0.0, neginf=0.0)
        return X
    return np.nan_to_num(X, nan=0.0, posinf=0.0, neginf=0.0)


def validate_data(
    X, y, *, on_invalid: str = "raise", min_classes: int = 2
) -> Tuple[object, FloatArray, FloatArray]:
    """Validate a training pair and encode the labels.

    Returns ``(X, classes, y_indices)``.  ``X`` passes through unchanged
    when sparse; dense inputs are coerced to float64 2-D arrays.

    Parameters
    ----------
    on_invalid:
        ``"raise"`` (default) rejects non-finite features with an error
        naming the offending rows and columns; ``"warn"`` emits a
        :class:`~repro.robustness.RobustnessWarning` and returns a copy
        with NaN/Inf entries replaced by 0 — the documented degradation
        for pipelines that must keep running on dirty data.
    min_classes:
        Minimum distinct labels required.  Estimators with a degenerate
        single-class path pass ``min_classes=1``.
    """
    if on_invalid not in ("raise", "warn"):
        raise ValueError("on_invalid must be 'raise' or 'warn'")
    if isinstance(X, CSRMatrix) or is_sparse(X):
        m = X.shape[0]
        if not np.all(np.isfinite(X.data)):
            X = _handle_nonfinite(X, on_invalid)
    else:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            X = _handle_nonfinite(X, on_invalid)
        m = X.shape[0]
    classes, y_indices = encode_labels(y)
    if y_indices.shape[0] != m:
        raise ValueError(
            f"X has {m} samples but y has {y_indices.shape[0]} labels"
        )
    if classes.shape[0] < max(min_classes, 1):
        raise ValueError(
            "discriminant analysis needs at least 2 classes, "
            f"got {classes.shape[0]}"
        )
    if np.min(np.bincount(y_indices)) < 1:
        raise ValueError("every class must have at least one sample")
    return X, classes, y_indices


def as_dense(X) -> FloatArray:
    """Densify sparse inputs (for baselines that cannot avoid it)."""
    if isinstance(X, CSRMatrix):
        return X.to_dense()
    if is_sparse(X):
        return np.asarray(X.todense(), dtype=np.float64)
    return np.asarray(X, dtype=np.float64)


def working_dtype(X) -> np.dtype:
    """The prediction-surface dtype contract, shared by every estimator.

    float32 input stays float32 end-to-end through
    ``transform``/``decision_function`` (the fitted arrays are cast
    once per call, the products run at single precision — half the
    memory traffic, which is what the serving path batches for);
    every other input computes in float64, as training does.
    """
    dtype = getattr(X, "dtype", None)
    if dtype is not None and np.dtype(dtype) == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


class LinearEmbedder(ReproEstimator):
    """Base class for linear discriminant embeddings.

    Inherits the shared parameter protocol
    (:class:`~repro.core.estimator.ReproEstimator`); subclasses
    implement ``fit`` and set:

    - ``components_`` — ``(n, d)`` projection matrix;
    - ``intercept_`` — length-``d`` offset added after projection
      (absorbs centering);
    - ``classes_`` and ``centroids_`` — labels and their class centroids
      in the embedded space, used by :meth:`predict`.
    """

    components_: Optional[FloatArray] = None
    intercept_: Optional[FloatArray] = None
    classes_: Optional[FloatArray] = None
    centroids_: Optional[FloatArray] = None

    def _check_fitted(self) -> None:
        if self.components_ is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before use"
            )

    def fit(self, X, y) -> "LinearEmbedder":
        raise NotImplementedError

    def transform(self, X) -> FloatArray:
        """Project samples into the discriminant subspace.

        Returns an ``(m, d)`` embedding in :func:`working_dtype`'s
        contract: float32 input yields a float32 embedding, everything
        else float64.
        """
        self._check_fitted()
        dtype = working_dtype(X)
        components = np.asarray(self.components_, dtype=dtype)
        if isinstance(X, CSRMatrix):
            Z = kernels.csr_matmat(X, components)
        elif is_sparse(X):
            Z = np.asarray(X @ components)
        else:
            X = np.asarray(X)
            if X.ndim != 2:
                raise ValueError(f"X must be 2-D, got shape {X.shape}")
            if X.shape[1] != components.shape[0]:
                raise ValueError(
                    f"X has {X.shape[1]} features, model expects "
                    f"{components.shape[0]}"
                )
            if X.dtype != dtype:
                X = X.astype(dtype)
            Z = dense_matmul(X, components)
        if self.intercept_ is not None:
            # Z is the product's own new array, already of ``dtype``
            Z += np.asarray(self.intercept_, dtype=dtype)
        return Z

    def fit_transform(self, X, y) -> FloatArray:
        """Fit the model and return the training embedding."""
        return self.fit(X, y).transform(X)

    def _store_centroids(self, Z_train: FloatArray, y_indices: FloatArray) -> None:
        """Record per-class centroids of the training embedding."""
        n_classes = self.classes_.shape[0]
        d = Z_train.shape[1]
        centroids = np.zeros((n_classes, d))
        for k in range(n_classes):
            centroids[k] = Z_train[y_indices == k].mean(axis=0)
        self.centroids_ = centroids

    def decision_function(self, X) -> FloatArray:
        """Per-class scores: higher = closer centroid in the embedding.

        Returns ``(m, c)`` scores ``2 z·c_k - ‖c_k‖²``, the negated
        squared centroid distance with the per-row ``‖z‖²`` constant
        dropped; ``argmax`` over a row is the predicted class.  Follows
        the :func:`working_dtype` contract (float32 in → float32 out).
        """
        self._check_fitted()
        if self.centroids_ is None:
            raise NotFittedError("fit() did not record class centroids")
        Z = self.transform(X)
        C = np.asarray(self.centroids_, dtype=Z.dtype)
        cross = Z @ C.T
        return 2.0 * cross - np.sum(C * C, axis=1)

    def predict(self, X) -> FloatArray:
        """Nearest-centroid classification in the embedded space.

        Exactly ``argmax`` of :meth:`decision_function` — the scores are
        the IEEE negation of the squared centroid distances, so ties
        break identically to the historical ``argmin`` read-out.
        """
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def score(self, X, y) -> float:
        """Accuracy of :meth:`predict` against true labels."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))
