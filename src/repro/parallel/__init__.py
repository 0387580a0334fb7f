"""Sharded execution: row-partitioned operators on pluggable backends.

The paper's solver touches data only through operator products, and
those products decompose along rows — so this package splits the data
operator into contiguous row shards
(:class:`~repro.parallel.sharded.ShardedOperator`) and fans the
per-shard kernels out on an execution
:class:`~repro.parallel.backends.Backend`: serial (the default, a pure
refactoring) or threads (the CSR kernels release the GIL).

Entry points most callers want:

- ``SRDA(config=SolverConfig(n_jobs=4))`` (likewise
  ``srda_alpha_path(..., config=...)``) — parallel products inside
  one fit;
- ``run_experiment(..., n_jobs=4)`` — parallel grid cells, bitwise
  identical to the serial grid;
- :func:`~repro.parallel.backends.resolve_backend` +
  :class:`ShardedOperator` for direct operator-level control.

See ``docs/PARALLEL.md`` for backend selection and the determinism
guarantees.
"""

from repro.parallel.backends import (
    Backend,
    SerialBackend,
    ThreadBackend,
    effective_n_jobs,
    resolve_backend,
)
from repro.parallel.sharded import (
    ShardedOperator,
    csr_row_slice,
    default_shard_count,
    nnz_shard_bounds,
    shard_bounds,
)

__all__ = [
    "Backend",
    "SerialBackend",
    "ShardedOperator",
    "ThreadBackend",
    "csr_row_slice",
    "default_shard_count",
    "effective_n_jobs",
    "nnz_shard_bounds",
    "resolve_backend",
    "shard_bounds",
]
