"""Execution backends for the sharded solver layer.

One protocol, two in-host implementations:

- :class:`SerialBackend` — runs tasks inline in submission order.  The
  default everywhere; a :class:`~repro.parallel.sharded.ShardedOperator`
  on the serial backend is a pure refactoring of the unsharded product.
- :class:`ThreadBackend` — a persistent ``ThreadPoolExecutor``.  The CSR
  kernels spend their time inside GIL-free compiled loops or numpy
  ufuncs (``bincount``, ``reduceat``, fancy gather, elementwise
  multiply), all of which drop the GIL on large arrays, so row shards
  genuinely overlap without copying any data.  Tasks run inside a
  *copy* of the caller's ``contextvars`` context, so ambient tracers
  (and therefore spans opened in a worker) nest under the span that was
  open at the fan-out point.

Determinism: a backend never changes *what* is computed, only *where*.
``map`` always returns results in submission order, and the sharded
kernels are written so their output depends only on the shard layout —
the same ``n_shards`` gives bitwise-identical results on every backend
at any worker count.

Failure semantics: ``map`` propagates the first raised exception (in
submission order) after letting already-submitted tasks finish; pools
are never left wedged, so an :class:`InjectedFaultError` in one shard
surfaces to the solver exactly as it would serially.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Type, Union

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "check_backend_name",
    "effective_n_jobs",
    "resolve_backend",
]

#: Accepted string spellings for :func:`resolve_backend`.
BACKEND_NAMES = ("serial", "thread")

#: Names of deleted backends, rejected with a pointer to ``"thread"``.
_REMOVED_BACKENDS = ("process", "distributed")


def effective_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` parameter to a positive worker count.

    ``None`` means 1 (no parallelism); ``-1`` means every available
    core: the cores this process may run on (its CPU-affinity mask)
    where the platform reports one, else ``os.cpu_count()``.  Positive
    integers pass through.  Zero and other negatives are rejected —
    there is no sklearn-style ``-2`` arithmetic here.
    """
    if n_jobs is None:
        return 1
    count = int(n_jobs)
    if count == -1:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    if count < 1:
        raise ValueError(f"n_jobs must be a positive integer or -1, got {n_jobs}")
    return count


class Backend:
    """The execution-backend protocol.

    Subclasses provide :meth:`map`; everything else has working
    defaults.  Backends are reusable across many products and must be
    :meth:`close`\\ d when owned (context-manager support is provided).
    """

    #: Display name ("serial" / "thread").
    name: str = "backend"

    #: Worker count this backend fans out to.
    n_workers: int = 1

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item; results in submission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pools and shared resources.  Idempotent."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(
        self, exc_type: Optional[Type[BaseException]], exc: object, tb: object
    ) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class SerialBackend(Backend):
    """Inline execution — the zero-behaviour-change default."""

    name = "serial"
    n_workers = 1

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        return [fn(item) for item in items]


class ThreadBackend(Backend):
    """A persistent thread pool; tasks inherit the caller's context."""

    name = "thread"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        self.n_workers = effective_n_jobs(-1 if n_workers is None else n_workers)
        self._executor: Optional[ThreadPoolExecutor] = None

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_workers,
                thread_name_prefix="repro-shard",
            )
        return self._executor

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        tasks = list(items)
        if len(tasks) <= 1:
            return [fn(item) for item in tasks]
        # Each task runs in its own copy of the caller's context: a
        # single Context cannot be entered concurrently, and without
        # copies worker threads would start from an *empty* context —
        # losing the ambient tracer and breaking span nesting.
        ctx = contextvars.copy_context()
        copies = [ctx.run(contextvars.copy_context) for _ in tasks]
        pool = self._pool()
        futures = [
            pool.submit(copy.run, fn, item)
            for copy, item in zip(copies, tasks)
        ]
        # Collect in submission order: the first failing future's
        # exception propagates after every task has been submitted, so
        # the pool drains instead of deadlocking.
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def check_backend_name(backend: Union[None, str, Backend]) -> None:
    """Reject a backend spelling :func:`resolve_backend` cannot build.

    ``None`` and :class:`Backend` instances always pass; anything else
    must be one of the strings in :data:`BACKEND_NAMES`.  The removed
    ``"process"`` and ``"distributed"`` backends get a message naming
    their replacement, ``"thread"``.
    """
    if backend is None or isinstance(backend, Backend):
        return
    if backend in _REMOVED_BACKENDS:
        raise ValueError(
            f"the {backend} backend was removed; use backend='thread'"
        )
    if backend not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKEND_NAMES} "
            "or a Backend instance"
        )


def resolve_backend(
    backend: Union[None, str, Backend],
    n_jobs: Optional[int] = None,
) -> Backend:
    """Turn user-facing ``backend``/``n_jobs`` parameters into a Backend.

    - a :class:`Backend` instance passes through unchanged (the caller
      keeps ownership and is responsible for closing it);
    - ``None`` picks :class:`SerialBackend` for one job and
      :class:`ThreadBackend` otherwise;
    - ``"serial"``/``"thread"`` select explicitly,
      sized by ``n_jobs``; any other name raises ``ValueError`` (see
      :func:`check_backend_name`).
    """
    check_backend_name(backend)
    if isinstance(backend, Backend):
        return backend
    jobs = effective_n_jobs(n_jobs)
    if backend is None:
        return SerialBackend() if jobs <= 1 else ThreadBackend(jobs)
    if backend == "serial":
        return SerialBackend()
    return ThreadBackend(jobs)
