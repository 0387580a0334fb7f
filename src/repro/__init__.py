"""repro — reproduction of "Training Linear Discriminant Analysis in
Linear Time" (Deng Cai, Xiaofei He, Jiawei Han; ICDE 2008).

The package implements Spectral Regression Discriminant Analysis (SRDA)
together with every substrate and baseline the paper's evaluation needs:

- :class:`SRDA` — the paper's algorithm (normal-equations and LSQR
  solvers, warm-started refits) and the rest of the spectral-regression
  family: :class:`KernelSRDA`, :class:`SparseSRDA`,
  :class:`SemiSupervisedSRDA`, :class:`SpectralRegressionEmbedding`;
- :class:`LDA`, :class:`RLDA`, :class:`IDRQR` (with ``partial_fit``),
  :class:`PCA`, :class:`RidgeClassifier` — the comparison methods;
- :mod:`repro.linalg` — from-scratch LSQR, Cholesky, Gram–Schmidt,
  cross-product SVD, CSR matrices and matrix-free operators;
- :mod:`repro.datasets` — synthetic stand-ins for PIE / Isolet / MNIST /
  20Newsgroups matched to Table II;
- :mod:`repro.eval` — the split/timing/error protocol of Section IV;
- :mod:`repro.complexity` — the Table-I cost model and its validation.

Quickstart::

    from repro import SRDA
    model = SRDA(alpha=1.0)
    model.fit(X_train, y_train)       # dense ndarray or sparse CSR
    Z = model.transform(X_test)       # (m, c-1) discriminant embedding
    labels = model.predict(X_test)    # nearest-centroid read-out
"""

from repro.baselines import IDRQR, LDA, PCA, RLDA, RidgeClassifier
from repro.exceptions import (
    ContractViolationError,
    ConvergenceError,
    InvariantViolationError,
    ReproError,
)
from repro.core import (
    KernelSRDA,
    SemiSupervisedSRDA,
    SolverConfig,
    SparseSRDA,
    SpectralRegressionEmbedding,
    SRDA,
    srda_alpha_path,
)
from repro.core.estimator import ReproEstimator, all_estimators, clone
from repro.datasets import CorruptCacheError, Dataset
from repro.linalg import CSRMatrix
from repro.observability import configure as configure_observability
from repro.observability import trace_span
from repro.robustness import FitReport, RobustnessWarning, guarded_solve

__version__ = "1.0.0"

__all__ = [
    "CSRMatrix",
    "ContractViolationError",
    "ConvergenceError",
    "CorruptCacheError",
    "Dataset",
    "FitReport",
    "InvariantViolationError",
    "ReproError",
    "ReproEstimator",
    "IDRQR",
    "KernelSRDA",
    "LDA",
    "PCA",
    "RLDA",
    "RidgeClassifier",
    "RobustnessWarning",
    "SRDA",
    "SemiSupervisedSRDA",
    "SolverConfig",
    "SparseSRDA",
    "SpectralRegressionEmbedding",
    "__version__",
    "all_estimators",
    "clone",
    "configure_observability",
    "guarded_solve",
    "srda_alpha_path",
    "trace_span",
]
