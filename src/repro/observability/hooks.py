"""Per-iteration solver hook protocol.

Solvers (:func:`repro.linalg.block_lsqr.block_lsqr` and
``SharedBidiagonalization.solve``) accept an optional ``on_iteration``
callback.  When provided, the solver invokes it with one
:class:`IterationEvent` per block iteration — the hook firing count
always equals the iteration count the solver reports
(``max(result.itn)``, which is ``result.itn[0]`` for a one-column
solve).  When ``None`` (the default), no per-iteration work happens
at all.  Every estimator's regression stage
(:func:`repro.core.srda.solve_ridge`) passes its tracer's hook, so with
tracing enabled the events land on the span enclosing the solve
(``srda.solve``, ``semi_srda.solve``).

Hooks must be cheap and must not raise: an exception from a hook
propagates out of the solver, by design — observability callbacks that
swallow solver state errors silently are worse than a loud failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass
class IterationEvent:
    """Snapshot of solver state after one iteration.

    Attributes
    ----------
    solver:
        ``"block_lsqr"`` or ``"shared_bidiagonalization"``.
    itn:
        1-based iteration number, equal to the solver's own counter.
    r2norm:
        Damped residual norm ``sqrt(||b - Ax||^2 + damp^2 ||x||^2)``.
        For block solvers this is the maximum over still-active columns.
    arnorm:
        Normal-equation residual norm ``||A' r||`` (max over active
        columns for block solvers).
    istop:
        The solver's stop flag *as of this iteration* — 0 while still
        running, non-zero on the iteration that triggered a stop.
    active:
        Indices (into the original RHS block) of the columns still
        iterating when this event fired; ``None`` when not given.
    """

    solver: str
    itn: int
    r2norm: float
    arnorm: float
    istop: int = 0
    active: Optional[Sequence[int]] = None

    def to_attributes(self) -> Dict[str, Any]:
        """Flatten into JSON-friendly span-event attributes."""
        attributes: Dict[str, Any] = {
            "solver": self.solver,
            "itn": self.itn,
            "r2norm": float(self.r2norm),
            "arnorm": float(self.arnorm),
            "istop": int(self.istop),
        }
        if self.active is not None:
            attributes["active"] = [int(j) for j in self.active]
        return attributes


#: Signature solvers accept: ``on_iteration: Optional[IterationHook]``.
IterationHook = Callable[[IterationEvent], None]


@dataclass
class IterationRecorder:
    """Collects every event — the simplest useful hook, used in tests.

    >>> recorder = IterationRecorder()
    >>> result = lsqr(A, b, on_iteration=recorder)   # doctest: +SKIP
    >>> len(recorder.events) == result.itn           # doctest: +SKIP
    True
    """

    events: List[IterationEvent] = field(default_factory=list)

    def __call__(self, event: IterationEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def last(self) -> Optional[IterationEvent]:
        return self.events[-1] if self.events else None
