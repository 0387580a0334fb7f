"""Grouped solver knobs — the ``SolverConfig`` dataclass.

The fit-time execution surface of :class:`~repro.core.srda.SRDA` grew
one keyword at a time across releases: ``solver``, then the sketch
(``sketch_size``/``sketch_seed``), then the parallel substrate
(``n_jobs``/``backend``).  Loosely coupled knobs on every signature
made each new entry point (``srda_alpha_path``, the CLI, the serving
layer) repeat the same parameters and the same validations.

``SolverConfig`` folds them into one validated, immutable value:

- constructed eagerly, so an invalid combination fails at *construction*
  rather than deep inside a fit;
- frozen, so a config can be shared between estimators, stored in a
  model registry, and compared by value (``clone`` round-trips);
- the one spelling: estimators take no flat solver keywords; read a
  setting from ``estimator.config`` and change it with
  ``set_params(config=estimator.config.replace(...))``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.parallel import Backend, effective_n_jobs
from repro.parallel.backends import check_backend_name

__all__ = ["SOLVER_NAMES", "SolverConfig"]

#: Every solver an estimator in this package understands.  ``"auto"``
#: resolves per input (see the :class:`~repro.core.srda.SRDA` module
#: docstring); the rest name a concrete engine.
SOLVER_NAMES = ("auto", "normal", "lsqr", "sketched_lsqr")


@dataclass(frozen=True)
class SolverConfig:
    """Validated bundle of solver-execution knobs.

    Parameters
    ----------
    solver:
        ``"auto"`` (default), ``"normal"``, ``"lsqr"``, or
        ``"sketched_lsqr"`` — the regression engine.
    sketch_size:
        Row count of the CountSketch behind ``solver="sketched_lsqr"``;
        ``None`` picks :func:`repro.linalg.sketch.default_sketch_size`.
    sketch_seed:
        Seed of the sketch draw (fixed seed → bitwise-reproducible
        sketched fits).
    n_jobs:
        Worker count for the LSQR path's operator products (``None``/1
        direct, ``-1`` every core).
    backend:
        Execution backend for sharded products: ``None``, a name
        (``"serial"``/``"thread"``), or a live
        :class:`repro.parallel.Backend`.  Unknown names fail here, at
        construction.
    kernel_backend:
        CSR kernel backend for operator products: ``None`` (defer to
        the ``REPRO_KERNEL_BACKEND`` environment variable, default
        ``"auto"``), ``"auto"``, ``"reference"`` (pure numpy), or
        ``"compiled"`` (the GIL-free C extension; falls back to the
        bitwise-identical reference with a one-time
        :class:`~repro.robustness.report.RobustnessWarning` when the
        extension is not built).  See :mod:`repro.linalg.kernels`.
    """

    solver: str = "auto"
    sketch_size: Optional[int] = None
    sketch_seed: int = 0
    n_jobs: Optional[int] = None
    backend: Union[str, Backend, None] = None
    kernel_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver not in SOLVER_NAMES:
            raise ValueError(
                f"unknown solver {self.solver!r}; expected one of "
                f"{SOLVER_NAMES}"
            )
        if self.sketch_size is not None and self.sketch_size < 1:
            raise ValueError("sketch_size must be positive or None")
        object.__setattr__(self, "sketch_seed", int(self.sketch_seed))
        effective_n_jobs(self.n_jobs)  # validates; value stored verbatim
        check_backend_name(self.backend)
        if self.kernel_backend is not None:
            from repro.linalg.kernels import KERNEL_BACKENDS

            if self.kernel_backend not in KERNEL_BACKENDS:
                raise ValueError(
                    f"unknown kernel_backend {self.kernel_backend!r}; "
                    f"expected None or one of {KERNEL_BACKENDS}"
                )

    def replace(self, **changes: Any) -> "SolverConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
