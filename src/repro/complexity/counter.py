"""Empirical validation of the cost model.

:class:`FlamCountingOperator` wraps any linear operator and charges the
Table-I unit price for each product (``nnz`` flam per mat-vec — one
multiply-add per stored entry), so a real LSQR run can be compared
against the model's ``k·(2·m·s + 3m + 5n)`` prediction.

:func:`loglog_slope` fits the scaling exponent of measured times — the
benchmark that demonstrates the linear-time claim reports slopes ≈ 1 for
SRDA-LSQR against both ``m`` and ``n``, and ≥ 2 for LDA against
``t = min(m, n)``.

:func:`measure_seconds` and :func:`measure_scaling` are the scaling-probe
primitives behind :mod:`repro.analysis.complexity.harness`: best-of-
repeats autoranged wall time at one size, and the same swept over a
geometric size ladder with the fitted log–log slope attached.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    LinearOperator,
)
from repro.linalg.sparse import CSRMatrix
from repro.observability.metrics import MetricsRegistry


class FlamCountingOperator(LinearOperator):
    """Wraps an operator, accumulating flam charged at nnz per product.

    Attributes
    ----------
    flam:
        Total multiply-add pairs charged so far.

    When a ``metrics`` registry is supplied, every charge also
    increments the ``metric`` counter there, so flam lands in the same
    trace as the wall-time spans (the observability contract: time and
    flam in one record stream).

    Without an explicit ``nnz`` the price per column is
    :func:`operator_nnz` of ``base``.
    """

    def __init__(
        self,
        base: LinearOperator,
        nnz: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric: str = "flam",
    ) -> None:
        super().__init__()
        self.base = base
        self.shape = base.shape
        self.nnz = operator_nnz(base) if nnz is None else int(nnz)
        self.flam = 0
        self._flam_lock = threading.Lock()
        self._counter = (
            metrics.counter(metric) if metrics is not None else None
        )

    def _charge(self, amount: int) -> None:
        # flam += is a read-modify-write on an unbounded int — unlike
        # the float metrics, concurrent charges (thread-backend shards,
        # user threading) can drop increments without the lock.
        with self._flam_lock:
            self.flam += amount
        if self._counter is not None:
            self._counter.add(float(amount))

    @property
    def dtype(self) -> np.dtype:
        return self.base.dtype

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        # A block product touches every stored entry once per column:
        # the flam bill is identical to k mat-vecs, only the wall time
        # differs.  That equality is what makes flam-per-second a fair
        # metric for the blocked-vs-sequential benchmark.
        self._charge(self.nnz * B.shape[1])
        return self.base.matmat(B)

    def _rmatmat(self, U: np.ndarray) -> np.ndarray:
        self._charge(self.nnz * U.shape[1])
        return self.base.rmatmat(U)

    def reset(self) -> None:
        """Zero the accumulated flam (and the product counters)."""
        self.flam = 0
        self.reset_counts()


def operator_nnz(op: LinearOperator) -> int:
    """Entries one column of a product with ``op`` multiplies.

    A CSR-backed operator (``CSROperator``, a CSR ``ShardedOperator``)
    costs its stored entries.  The structural wrappers the SRDA fit
    solves with see through to the data: ``[X | 1]`` adds the ``m``
    entries of its ones column, and centering adds none (its rank-one
    correction is vector work, like LSQR's own updates).  Any other
    operator is charged as dense, ``m·n``.
    """
    if isinstance(op, AppendOnesOperator):
        return operator_nnz(op.base) + op.shape[0]
    if isinstance(op, CenteringOperator):
        return operator_nnz(op.base)
    matrix = getattr(op, "matrix", None)
    if isinstance(matrix, CSRMatrix):
        return matrix.nnz
    return op.shape[0] * op.shape[1]


def loglog_slope(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size).

    A slope of p means time ~ size^p over the measured range.  Requires
    strictly positive inputs and at least two points.
    """
    size_arr = np.asarray(sizes, dtype=np.float64)
    time_arr = np.asarray(times, dtype=np.float64)
    if size_arr.shape != time_arr.shape or size_arr.size < 2:
        raise ValueError("need at least two matching (size, time) pairs")
    if np.any(size_arr <= 0) or np.any(time_arr <= 0):
        raise ValueError("sizes and times must be strictly positive")
    log_s = np.log(size_arr)
    log_t = np.log(time_arr)
    slope, _ = np.polyfit(log_s, log_t, 1)
    return float(slope)


def predicted_lsqr_flam(
    m: int, n: int, iterations: int, nnz: Optional[int] = None
) -> float:
    """Model prediction for one LSQR solve, for counter cross-checks."""
    if nnz is None:
        nnz = m * n
    return iterations * (2.0 * nnz + 3.0 * m + 5.0 * n)


def measure_seconds(
    fn: Callable[[], object],
    repeats: int = 3,
    min_time: float = 0.02,
    max_number: int = 4096,
) -> float:
    """Best-of-``repeats`` wall seconds for one call of ``fn``.

    Timeit-style autoranging: the inner call count doubles until one
    batch takes at least ``min_time``, so per-call overhead (~µs) does
    not swamp fast kernels; taking the *minimum* over repeats rejects
    scheduler noise, which only ever adds time.  The floor of 1 ns
    keeps downstream log–log fits defined even for degenerate clocks.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = float("inf")
    number = 1
    for _ in range(repeats):
        while True:
            start = perf_counter()
            for _ in range(number):
                fn()
            elapsed = perf_counter() - start
            if elapsed >= min_time or number >= max_number:
                break
            number *= 2
        best = min(best, elapsed / number)
    return max(best, 1e-9)


@dataclass(frozen=True)
class ScalingMeasurement:
    """Per-size costs of one kernel plus the fitted scaling exponent."""

    sizes: Tuple[int, ...]
    costs: Tuple[float, ...]

    @property
    def slope(self) -> float:
        """Fitted log–log slope: cost ~ size^slope over the sweep."""
        return loglog_slope(self.sizes, self.costs)


def measure_scaling(
    make: Callable[[int], Callable[[], object]],
    sizes: Sequence[int],
    repeats: int = 3,
    min_time: float = 0.02,
) -> ScalingMeasurement:
    """Time ``make(size)()`` at each size of a geometric ladder.

    ``make`` does the (untimed) problem setup and returns the thunk to
    measure, so construction cost — often a different complexity class
    than the kernel, e.g. the O(nnz log nnz) transpose build versus the
    O(nnz) product — never pollutes the fitted slope.
    """
    resolved = [int(s) for s in sizes]
    if len(resolved) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    costs = tuple(
        measure_seconds(make(size), repeats=repeats, min_time=min_time)
        for size in resolved
    )
    return ScalingMeasurement(sizes=tuple(resolved), costs=costs)
