"""The package-wide exception taxonomy.

PR 1's guarded-solver layer made a promise the fallback chains depend
on: every failure raised from the numerical substrate is one of *our*
types, so ``except`` clauses in the robustness layer can be precise
instead of over-broad.  This module is the root of that taxonomy.

Every repro-specific exception derives from :class:`ReproError`.  The
concrete classes keep their historical builtin bases too (``RuntimeError``
for solver failures, ``ValueError`` for data problems), so existing
callers that catch the builtin types keep working — the taxonomy is
additive, never breaking.

The static analyzer enforces the other direction: rule ``RPR003``
forbids raising bare ``RuntimeError``/``Exception`` from the numerical
packages (``linalg``, ``core``, ``robustness``), which is what keeps the
taxonomy exhaustive as the code grows.

Concrete members defined elsewhere (and re-based onto
:class:`ReproError`):

- :class:`repro.linalg.cholesky.NotPositiveDefiniteError`
- :class:`repro.linalg.operators.InjectedFaultError`
- :class:`repro.robustness.guarded.SolverFailure`
- :class:`repro.core.base.NotFittedError`
- :class:`repro.datasets.cache.CorruptCacheError`
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this package on purpose."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver exhausted its budget without converging.

    Raised where silently returning a half-iterated answer would poison
    downstream results.  LSQR does *not* raise this — its istop codes
    report convergence state per column and callers decide; see
    :data:`repro.linalg.block_lsqr.FAILURE_ISTOPS`.
    """


class InvariantViolationError(ReproError, RuntimeError):
    """An internal mathematical invariant failed to hold.

    This is "should be impossible" territory — e.g. the all-ones vector
    falling out of the response basis, or the indicator span
    degenerating with non-empty classes.  It indicates a bug (or
    memory corruption), never bad user input.
    """


class ContractViolationError(ReproError):
    """An operator failed a runtime numeric contract.

    Raised by :func:`repro.analysis.contracts.verify_operator` when an
    operator breaks the adjoint identity ``⟨Ax, u⟩ = ⟨x, Aᵀu⟩``, returns
    products of the wrong shape or dtype, or disagrees between its
    blocked and per-column products.

    Attributes
    ----------
    failures:
        Human-readable description of each failed check.
    """

    def __init__(self, message: str, failures: "list[str] | None" = None):
        super().__init__(message)
        self.failures = list(failures or [])
