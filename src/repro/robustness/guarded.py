"""The guarded SPD solve: Cholesky → jittered retries → LSQR rescue.

The normal-equations path of SRDA (and of every baseline sharing its
substrate) ultimately solves ``(G + αI) x = b`` for a Gram-type matrix
``G``.  With a well-chosen ``α`` that system is SPD and one Cholesky
factorization serves all right-hand sides — but rank-deficient data,
``α = 0``, or heavy feature correlation make ``G + αI`` numerically
singular, and the raw factorization raises
:class:`~repro.linalg.cholesky.NotPositiveDefiniteError` mid-sweep.

:func:`guarded_solve` replaces that hard failure with a bounded
fallback chain, each step recorded so the caller's
:class:`~repro.robustness.report.FitReport` can name exactly what
happened:

1. **Cholesky** on ``G + αI`` — the fast path, taken verbatim when the
   matrix is comfortably SPD.
2. **Jittered retries** — escalating ridge boosts ``α·10^k``
   (``k = 1..max_jitter_retries``; an ``eps``-scaled base when
   ``α = 0``) until a factorization succeeds.  The added jitter is the
   documented degradation: the solution is the ridge solution at the
   recorded ``effective_alpha``, which converges to the minimum-norm
   least-squares solution as the jitter shrinks.
3. **LSQR rescue** — matrix-free iteration on the (possibly singular)
   system, which converges to the minimum-norm solution without ever
   factoring anything.  Termination codes are surfaced, never swallowed.

If even the rescue produces non-finite values, :class:`SolverFailure`
carries the full attempt log — a structured diagnosis instead of a bare
linear-algebra traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from repro._typing import FloatArray

from repro.exceptions import ReproError
from repro.linalg.cholesky import (
    NotPositiveDefiniteError,
    _cholesky_in_place,
    solve_factored,
)
from repro.linalg.block_lsqr import block_lsqr
from repro.observability import current_tracer
from repro.robustness.report import FitReport

#: Default number of escalating-jitter Cholesky retries.
DEFAULT_JITTER_RETRIES = 6


class SolverFailure(ReproError, RuntimeError):
    """Every step of the guarded fallback chain failed.

    Attributes
    ----------
    attempts:
        The ordered log of what was tried and how each step failed.
    """

    def __init__(self, message: str, attempts: List[str]) -> None:
        super().__init__(
            message + "; attempts: " + " -> ".join(attempts)
        )
        self.attempts = list(attempts)


@dataclass
class GuardedSolveResult:
    """Outcome of one :func:`guarded_solve` call.

    Attributes
    ----------
    x:
        Solution, same trailing shape as the right-hand side.
    solver:
        ``"cholesky"``, ``"cholesky+jitter"``, or ``"lsqr-rescue"``.
    effective_alpha:
        The diagonal shift actually applied (base ``alpha`` + jitter).
    condition_estimate:
        Estimated 2-norm condition number of the factored system
        (``inf`` when no factorization succeeded).
    fallbacks:
        Ordered log of failed attempts preceding the successful one.
    lsqr_istop, lsqr_iterations, lsqr_residuals:
        Per-column LSQR diagnostics when the rescue ran, else ``None``.
    """

    x: FloatArray
    solver: str
    effective_alpha: float
    condition_estimate: float
    fallbacks: List[str] = field(default_factory=list)
    lsqr_istop: Optional[List[int]] = None
    lsqr_iterations: Optional[List[int]] = None
    lsqr_residuals: Optional[List[float]] = None

    def merge_into(self, report: FitReport) -> None:
        """Copy this solve's diagnostics onto a fit-level report."""
        report.solver = self.solver
        report.effective_alpha = self.effective_alpha
        report.condition_estimate = self.condition_estimate
        for step in self.fallbacks:
            report.record_fallback(step)
        if self.lsqr_istop is not None:
            report.lsqr_istop = self.lsqr_istop
            report.lsqr_iterations = self.lsqr_iterations
            report.lsqr_residuals = self.lsqr_residuals


def estimate_condition(
    system: FloatArray, L: Optional[FloatArray] = None, iterations: int = 8
) -> float:
    """Cheap 2-norm condition estimate of an SPD system.

    Power iteration (deterministic start) estimates the largest
    eigenvalue; when a Cholesky factor ``L`` is available, inverse
    iteration through the factor estimates the smallest.  Without a
    factor the estimate is ``inf`` — the honest answer for a matrix
    that refused to factor.
    """
    return _shifted_condition(system, 0.0, L, iterations)


def _shifted_condition(
    gram: FloatArray,
    shift: float,
    L: Optional[FloatArray] = None,
    iterations: int = 8,
) -> float:
    """:func:`estimate_condition` of ``gram + shift·I``, never formed.

    The power iteration applies ``gram @ v + shift * v``, so the caller
    needs no shifted copy of ``gram`` beside the one its factor
    overwrote.
    """
    n = gram.shape[0]
    if n == 0:
        return 1.0
    v = np.ones(n) / np.sqrt(n)
    lam_max = 0.0
    for _ in range(iterations):
        w = gram @ v
        if shift:
            w += shift * v
        lam_max = float(np.linalg.norm(w))
        if lam_max == 0.0 or not np.isfinite(lam_max):
            break
        v = w / lam_max
    if L is None:
        return float("inf")
    u = np.ones(n) / np.sqrt(n)
    inv_norm = 0.0
    for _ in range(iterations):
        w = solve_factored(L, u)
        inv_norm = float(np.linalg.norm(w))
        if inv_norm == 0.0 or not np.isfinite(inv_norm):
            return float("inf")
        u = w / inv_norm
    return lam_max * inv_norm


def _jitter_schedule(
    alpha: float, diag_scale: float, max_retries: int
) -> List[float]:
    """Escalating diagonal boosts ``base·10^k`` for ``k = 1..retries``."""
    eps = np.finfo(np.float64).eps
    base = alpha if alpha > 0 else eps * max(diag_scale, 1.0)
    return [base * 10.0**k for k in range(1, max_retries + 1)]


def guarded_solve(
    gram: FloatArray,
    rhs: FloatArray,
    alpha: float = 0.0,
    max_jitter_retries: int = DEFAULT_JITTER_RETRIES,
    rescue_iter_lim: Optional[int] = None,
    report: Optional[FitReport] = None,
) -> GuardedSolveResult:
    """Solve ``(gram + alpha·I) x = rhs`` with the guarded fallback chain.

    ``gram`` is only read.  Each Cholesky attempt makes one
    Fortran-ordered copy of it, shifts that copy's diagonal and lets
    LAPACK factor it in place; a failed attempt's copy is released
    before the next one is made, and the condition estimate iterates on
    ``gram @ v + shift·v``.  So a solve holds ``gram`` and at most one
    ``n × n`` copy beside it (the LSQR rescue's shifted system, when
    ``alpha > 0``, is that copy).

    Parameters
    ----------
    gram:
        Symmetric positive *semi*-definite matrix (Gram or kernel);
        ``alpha`` is added to its diagonal here, so pass the raw matrix.
    rhs:
        Right-hand side, ``(n,)`` or ``(n, k)``.
    alpha:
        Base Tikhonov shift.  ``alpha = 0`` is allowed — singularity is
        exactly what the chain is for.
    max_jitter_retries:
        Bound on escalating-jitter Cholesky retries before the LSQR
        rescue.
    rescue_iter_lim:
        Iteration cap for the LSQR rescue (default ``min(2n, 500)``,
        at least 50).
    report:
        When given, the solve's diagnostics are merged into this
        :class:`FitReport` before returning.

    Raises
    ------
    SolverFailure
        When every step — including the rescue — fails to produce a
        finite solution.
    """
    gram = np.asarray(gram, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n = gram.shape[0]
    # Observability rides the ambient tracer (a no-op unless the caller
    # or the process configured one): the chain's decisions — which
    # rung succeeded, every rung that failed — become span attributes,
    # span events, and counters.
    tracer = current_tracer()
    with tracer.span(
        "guarded_solve", alpha=float(alpha), n=int(n)
    ) as span:
        result = _solve_chain(
            gram,
            rhs,
            alpha,
            max_jitter_retries,
            rescue_iter_lim,
            tracer,
            span,
        )
    if report is not None:
        result.merge_into(report)
    return result


def _solve_chain(
    gram: FloatArray,
    rhs: FloatArray,
    alpha: float,
    max_jitter_retries: int,
    rescue_iter_lim: Optional[int],
    tracer: Any,
    span: Any,
) -> GuardedSolveResult:
    """The fallback chain itself; ``span`` collects its decisions."""
    n = gram.shape[0]
    attempts: List[str] = []
    diag = np.diagonal(gram)
    diag_scale = float(np.mean(np.abs(diag))) if n else 1.0

    def _finish(result: GuardedSolveResult) -> GuardedSolveResult:
        span.set_attribute("solver", result.solver)
        span.set_attribute("effective_alpha", result.effective_alpha)
        span.set_attribute("fallback_steps", len(result.fallbacks))
        if tracer.enabled:
            tracer.metrics.counter(f"guarded_solve.{result.solver}").add()
        return result

    def _fallback(step: str) -> None:
        attempts.append(step)
        tracer.event("guarded_solve.fallback", step=step)

    def _try_cholesky(shift: float, label: str):
        # The attempt's one copy of ``gram``: shifted, then overwritten
        # by its own factor; ``gram`` itself is only read.
        system = np.array(gram, order="F")
        if shift:
            system[np.diag_indices_from(system)] += shift
        try:
            L = _cholesky_in_place(system)
        except NotPositiveDefiniteError as exc:
            _fallback(f"{label} failed ({exc})")
            return None
        x = solve_factored(L, rhs)
        if not np.all(np.isfinite(x)):
            _fallback(f"{label} produced non-finite solution")
            return None
        return L, x

    # Step 1: plain Cholesky at the base alpha.
    outcome = _try_cholesky(alpha, "cholesky")
    if outcome is not None:
        L, x = outcome
        return _finish(
            GuardedSolveResult(
                x=x,
                solver="cholesky",
                effective_alpha=alpha,
                condition_estimate=_shifted_condition(gram, alpha, L),
                fallbacks=attempts,
            )
        )

    # Step 2: escalating-jitter retries.
    for k, jitter in enumerate(
        _jitter_schedule(alpha, diag_scale, max_jitter_retries), start=1
    ):
        effective = alpha + jitter
        outcome = _try_cholesky(
            effective, f"jitter retry k={k} (effective_alpha={effective:.3g})"
        )
        if outcome is not None:
            L, x = outcome
            return _finish(
                GuardedSolveResult(
                    x=x,
                    solver="cholesky+jitter",
                    effective_alpha=effective,
                    condition_estimate=_shifted_condition(gram, effective, L),
                    fallbacks=attempts,
                )
            )

    # Step 3: LSQR rescue — minimum-norm solve of the (singular) system.
    if rescue_iter_lim is None:
        rescue_iter_lim = max(50, min(2 * n, 500))
    system = gram
    if alpha:
        system = gram.copy()
        system[np.diag_indices_from(system)] += alpha
    columns = rhs.reshape(n, -1)
    # All rescue columns ride one blocked Golub–Kahan iteration: the
    # (dense) system streams through memory once per iteration instead
    # of once per column, and per-column istop codes are preserved.
    blocked = block_lsqr(
        system,
        columns,
        atol=1e-12,
        btol=1e-12,
        iter_lim=rescue_iter_lim,
        on_iteration=tracer.iteration_hook(span),
    )
    x = np.asarray(blocked.X, dtype=columns.dtype)
    istops: List[int] = [int(v) for v in blocked.istop]
    iterations: List[int] = [int(v) for v in blocked.itn]
    residuals: List[float] = [float(v) for v in blocked.r2norm]
    if not np.all(np.isfinite(x)) or 8 in istops:
        # istop=8 means LSQR aborted on non-finite quantities; its x is
        # only the last finite iterate, not a rescue.
        _fallback(
            "lsqr rescue produced non-finite solution"
            if not np.all(np.isfinite(x))
            else "lsqr rescue hit non-finite products (istop=8)"
        )
        if tracer.enabled:
            tracer.metrics.counter("guarded_solve.failure").add()
        raise SolverFailure(
            "guarded_solve exhausted its fallback chain", attempts
        )
    return _finish(
        GuardedSolveResult(
            x=x[:, 0] if rhs.ndim == 1 else x,
            solver="lsqr-rescue",
            effective_alpha=alpha,
            condition_estimate=float("inf"),
            fallbacks=attempts,
            lsqr_istop=istops,
            lsqr_iterations=iterations,
            lsqr_residuals=residuals,
        )
    )
