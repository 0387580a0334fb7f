"""Model selection for the regularization parameter α.

Figure 5's conclusion is that SRDA is flat over a wide α range, so
"parameter selection is not a very crucial problem" — but a library
still needs the tool.  :func:`grid_search_alpha` runs the paper's own
protocol (random per-class splits of the *training* data) over an α
grid, and :func:`alpha_grid` reproduces the α/(1+α) parameterization of
the figure's x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.datasets.splits import per_class_split, split_seeds
from repro.eval.metrics import error_rate


def alpha_grid(n_points: int = 9) -> np.ndarray:
    """α values whose ``α/(1+α)`` are evenly spaced in (0, 1) — Fig 5's axis."""
    if n_points < 1:
        raise ValueError("n_points must be positive")
    ratios = np.linspace(0.0, 1.0, n_points + 2)[1:-1]
    return ratios / (1.0 - ratios)


@dataclass
class AlphaSearchResult:
    """Outcome of :func:`grid_search_alpha`."""

    alphas: np.ndarray
    mean_errors: np.ndarray
    std_errors: np.ndarray

    @property
    def best_alpha(self) -> float:
        """The α with the lowest mean validation error."""
        return float(self.alphas[int(np.argmin(self.mean_errors))])

    @property
    def best_error(self) -> float:
        return float(self.mean_errors.min())

    def flatness(self) -> float:
        """Max − min mean error across the grid (Fig 5's 'wide range')."""
        return float(self.mean_errors.max() - self.mean_errors.min())


def grid_search_alpha(
    model_factory: Callable[[float], Any],
    X: Any,
    y: Any,
    alphas: Optional[Sequence[float]] = None,
    n_splits: int = 5,
    validation_per_class: Optional[int] = None,
    seed: int = 0,
) -> AlphaSearchResult:
    """Estimate validation error per α by repeated per-class splits.

    Parameters
    ----------
    model_factory:
        ``alpha -> unfitted estimator`` (e.g. ``lambda a: SRDA(alpha=a)``).
    X, y:
        The training data to search within.  ``X`` may be sparse; rows
        are selected through fancy indexing / ``take_rows``.
    alphas:
        Grid to evaluate; defaults to :func:`alpha_grid`.
    n_splits:
        Random split repetitions per α.
    validation_per_class:
        Held-out samples per class; defaults to half the smallest class.
    seed:
        Base seed (each split derives its own stream).
    """
    from repro.linalg.sparse import CSRMatrix

    y = np.asarray(y)
    if alphas is None:
        alphas = alpha_grid()
    alpha_values = np.asarray(list(alphas), dtype=np.float64)
    counts = np.bincount(np.unique(y, return_inverse=True)[1])
    if validation_per_class is None:
        validation_per_class = max(1, int(counts.min()) // 2)
    train_per_class = int(counts.min()) - validation_per_class
    if train_per_class < 1:
        raise ValueError(
            "not enough samples per class to hold out "
            f"{validation_per_class} for validation"
        )

    def take(indices: np.ndarray) -> Any:
        if isinstance(X, CSRMatrix):
            return X.take_rows(indices)
        return X[indices]

    errors = np.zeros((len(alpha_values), n_splits))
    for j, split_seed in enumerate(split_seeds(seed, n_splits)):
        rng = np.random.default_rng(int(split_seed))
        fit_idx, val_idx = per_class_split(y, train_per_class, rng)
        X_fit, y_fit = take(fit_idx), y[fit_idx]
        X_val, y_val = take(val_idx), y[val_idx]
        for i, alpha in enumerate(alpha_values):
            model = model_factory(float(alpha))
            model.fit(X_fit, y_fit)
            errors[i, j] = error_rate(y_val, model.predict(X_val))

    return AlphaSearchResult(
        alphas=alpha_values,
        mean_errors=errors.mean(axis=1),
        std_errors=errors.std(axis=1),
    )


def grid_search_alpha_srda(
    X: Any,
    y: Any,
    alphas: Optional[Sequence[float]] = None,
    n_splits: int = 5,
    validation_per_class: Optional[int] = None,
    seed: int = 0,
    max_iter: int = 20,
    tol: float = 1e-10,
    centering: Union[None, str, bool] = None,
) -> AlphaSearchResult:
    """α grid search for SRDA paying one data pass per split.

    Same protocol and result type as :func:`grid_search_alpha` with a
    ``lambda a: SRDA(alpha=a, config=SolverConfig(solver="lsqr"))``
    factory, but instead of refitting per α it routes each split through
    :func:`repro.core.srda.srda_alpha_path`: the Golub–Kahan basis of
    the split's training data is bidiagonalized once and replayed for
    every α, so a 9-point grid costs one fit's worth of operator
    products instead of nine.

    Parameters
    ----------
    X, y, alphas, n_splits, validation_per_class, seed:
        As :func:`grid_search_alpha`.
    max_iter, tol:
        LSQR iteration cap and tolerance forwarded to the shared solve.
    centering:
        ``"auto"`` (default when ``None``), ``True``, or ``False`` — as
        the :class:`~repro.core.srda.SRDA` constructor.
    """
    from repro.core.srda import srda_alpha_path
    from repro.linalg.sparse import CSRMatrix

    y = np.asarray(y)
    if alphas is None:
        alphas = alpha_grid()
    alpha_values = np.asarray(list(alphas), dtype=np.float64)
    counts = np.bincount(np.unique(y, return_inverse=True)[1])
    if validation_per_class is None:
        validation_per_class = max(1, int(counts.min()) // 2)
    train_per_class = int(counts.min()) - validation_per_class
    if train_per_class < 1:
        raise ValueError(
            "not enough samples per class to hold out "
            f"{validation_per_class} for validation"
        )

    def take(indices: np.ndarray) -> Any:
        if isinstance(X, CSRMatrix):
            return X.take_rows(indices)
        return X[indices]

    errors = np.zeros((len(alpha_values), n_splits))
    for j, split_seed in enumerate(split_seeds(seed, n_splits)):
        rng = np.random.default_rng(int(split_seed))
        fit_idx, val_idx = per_class_split(y, train_per_class, rng)
        X_fit, y_fit = take(fit_idx), y[fit_idx]
        X_val, y_val = take(val_idx), y[val_idx]
        models = srda_alpha_path(
            X_fit,
            y_fit,
            alpha_values,
            centering="auto" if centering is None else centering,
            max_iter=max_iter,
            tol=tol,
        )
        for i, model in enumerate(models):
            errors[i, j] = error_rate(y_val, model.predict(X_val))

    return AlphaSearchResult(
        alphas=alpha_values,
        mean_errors=errors.mean(axis=1),
        std_errors=errors.std(axis=1),
    )
