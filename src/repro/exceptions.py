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
    downstream results (e.g. the Lanczos eigensolver).  LSQR does *not*
    raise this — its istop codes report convergence state per column and
    callers decide; see :data:`repro.linalg.lsqr.FAILURE_ISTOPS`.
    """


class InvariantViolationError(ReproError, RuntimeError):
    """An internal mathematical invariant failed to hold.

    This is "should be impossible" territory — e.g. the all-ones vector
    falling out of the response basis, or the indicator span
    degenerating with non-empty classes.  It indicates a bug (or
    memory corruption), never bad user input.
    """


class TransportError(ReproError, ConnectionError):
    """A distributed-transport operation failed.

    Root of the transport sub-taxonomy used by :mod:`repro.distributed`.
    Keeps ``ConnectionError`` as a builtin base so callers that treat
    network trouble generically (including the CLI's ``OSError``
    handler) see these without knowing the repro taxonomy.
    """


class ProtocolError(TransportError):
    """A wire frame violated the protocol contract.

    Raised on bad magic bytes, an unsupported protocol version, an
    oversized length prefix, or a CRC mismatch between the frame header
    and its payload.  A protocol error poisons the whole byte stream
    (framing can no longer be trusted), so the supervisor treats the
    connection — not just the message — as failed.
    """


class WorkerCrashError(TransportError):
    """A worker process died while it held in-flight work.

    Used by the distributed supervisor to classify a dead worker before
    reassigning its shards.
    """


class ClusterUnhealthyError(TransportError):
    """The distributed cluster can no longer serve products.

    Raised when every worker is dead, or the bounded
    retry/reassignment budget is exhausted.  The sharded-operator layer
    catches this to degrade gracefully to a local backend (recorded in
    ``fit_report_``); ``on_unhealthy="raise"`` propagates it instead.
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
