"""Fit diagnostics — the :class:`FitReport` attached to every estimator.

The regularization literature around LDA treats ill-conditioning as the
expected case, not the exception.  Accordingly, every fit in this
package either succeeds with a documented degradation path or fails
with a structured diagnosis — and the record of which of those happened
lives here.  After ``fit``, estimators expose ``fit_report_``:

- which solver actually ran, and every fallback step taken to get there;
- a condition estimate of the system that was ultimately factored;
- the effective regularization (base ``α`` plus any rescue jitter);
- LSQR termination codes, iteration counts, and final residuals per
  response column;
- per-response and per-input warnings (singleton classes, zero-variance
  features, sanitized non-finite entries, ...).

Degradations that change the numerical result (a triggered fallback, a
non-converged LSQR run) also emit a :class:`RobustnessWarning` so long
sweeps surface them without the caller polling reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional


class RobustnessWarning(UserWarning):
    """Emitted when a fit degrades gracefully instead of failing."""


@dataclass
class FitReport:
    """Structured diagnostics recorded during one ``fit`` call.

    Attributes
    ----------
    solver:
        The solver that produced the final coefficients
        (``"cholesky"``, ``"cholesky+jitter"``, ``"lsqr"``, or
        ``"lsqr-rescue"``).
    requested_solver:
        The solver the caller asked for (constructor argument, after
        ``"auto"`` resolution).
    fallbacks:
        Ordered log of fallback steps taken, e.g.
        ``["cholesky failed (leading minor 3 ...)",
        "jitter retry k=1 (alpha=1e-12) failed", ...]``.  Empty when the
        primary solver succeeded first try.
    condition_estimate:
        Estimated 2-norm condition number of the system that was
        factored (``inf`` when no factorization succeeded).
    effective_alpha:
        The regularization actually applied: the base ``α`` plus any
        escalated jitter added by the fallback chain.
    lsqr_istop:
        Per-response LSQR termination codes (see
        :data:`repro.linalg.block_lsqr.ISTOP_REASONS`); ``None`` off the LSQR
        path.
    lsqr_iterations:
        Per-response LSQR iteration counts.
    lsqr_residuals:
        Per-response final ``r2norm`` values.
    warnings:
        Human-readable degradation notes accumulated during fit.
    converged:
        False when any response column terminated on a failure code
        (divergence, stagnation) or the fallback chain was exhausted.
    backend:
        Execution backend the operator products ran on (``"serial"``
        or ``"thread"``; ``None`` on the direct single-core path).
    incremental:
        ``None`` for a cold ``fit``.  A ``partial_fit`` records how the
        batch was absorbed: batch count, new/total row counts, the
        cumulative class count and any labels first seen this batch,
        and whether the solve warm-started from the previous
        coefficients.
    """

    solver: Optional[str] = None
    requested_solver: Optional[str] = None
    fallbacks: List[str] = field(default_factory=list)
    condition_estimate: Optional[float] = None
    effective_alpha: Optional[float] = None
    lsqr_istop: Optional[List[int]] = None
    lsqr_iterations: Optional[List[int]] = None
    lsqr_residuals: Optional[List[float]] = None
    warnings: List[str] = field(default_factory=list)
    converged: bool = True
    backend: Optional[str] = None
    incremental: Optional[dict] = None

    @property
    def degraded(self) -> bool:
        """True when the fit deviated from the primary, clean path."""
        return bool(self.fallbacks or self.warnings or not self.converged)

    def record_fallback(self, step: str) -> None:
        """Append one fallback step to the ordered log."""
        self.fallbacks.append(step)

    def add_warning(self, message: str, emit: bool = True) -> None:
        """Record a degradation note, optionally emitting it as a warning."""
        self.warnings.append(message)
        if emit:
            warnings.warn(message, RobustnessWarning, stacklevel=3)

    def summary(self) -> str:
        """One-line digest suitable for logs and CLI output."""
        parts = [f"solver={self.solver}"]
        if self.requested_solver and self.requested_solver != self.solver:
            parts.append(f"requested={self.requested_solver}")
        if self.effective_alpha is not None:
            parts.append(f"effective_alpha={self.effective_alpha:.3g}")
        if self.condition_estimate is not None:
            parts.append(f"cond~{self.condition_estimate:.3g}")
        if self.fallbacks:
            parts.append(f"fallbacks={len(self.fallbacks)}")
        if self.lsqr_istop is not None:
            parts.append(f"lsqr_istop={self.lsqr_istop}")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.incremental is not None:
            parts.append(
                f"incremental=batch{self.incremental.get('batches')}"
                f"/{self.incremental.get('rows_total')}rows"
            )
        if self.warnings:
            parts.append(f"warnings={len(self.warnings)}")
        parts.append(f"converged={self.converged}")
        return "FitReport(" + ", ".join(parts) + ")"

    def __str__(self) -> str:
        return self.summary()
