"""Times on a shared host, rescaled to the host's speed at the moment.

A shared host's speed drifts with what its other tenants run.  On the
2-core reference host one ``news_lsqr`` predict took 63 ms, and two
minutes later, in the same process on the same input, 134 ms; a run of
the benchmark lasts seconds, so two runs of identical code could differ
by that much.

:class:`HostSpeed` times a fixed piece of numpy work right before each
timed call, and reports the call's time multiplied by
``REFERENCE_S / calibration``: seconds on a host running at the speed
the reference host had when quiet.  The work has three parts of about
equal time, because the drift does not slow all work alike (in one
slow spell the first part slowed by 90%, the second by 40%):

- a gather, multiply and segmented sum over a CSR-sized array, which is
  memory-bound like the CSR products and ``predict``;
- a dense Gram product, which is compute-bound like the normal
  equations;
- a loop of small numpy and LAPACK calls, which is interpreter- and
  dispatch-bound like a fit's fixed per-call overhead.

Over the drift above, ``predict``'s ratio to the first part held within
5%.  Equal weights did as well as the best of the mixes tried, and
better than any part alone (see the README).

The calibration is this benchmark's own code on inputs fixed here, not
drawn from ``--seed``, and calls nothing from the program, so a change
to the program moves a reported time in full.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

import numpy as np

#: Sizes of the three parts: nonzeros, columns and rows of the sparse
#: part (a 20NG training split has ~510k nonzeros), the dense matrix,
#: and the small matrix and its number of solves.
SPARSE_NNZ, SPARSE_COLUMNS, SPARSE_ROWS = 600_000, 26_214, 6_600
SPARSE_PASSES = 2
DENSE_SHAPE = (2_000, 256)
SMALL_SHAPE, SMALL_SOLVES = (12, 8), 100

#: Median calibration time on the reference host (2 shared x86-64
#: cores, OpenBLAS on one thread) in a quiet period.  A constant scale:
#: it sets the unit of reported times and nothing else.
REFERENCE_S = 0.0110


class HostSpeed:
    """The fixed calibration work and the times rescaled by it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20_121_008)
        self._data = rng.random(SPARSE_NNZ)
        self._indices = rng.integers(0, SPARSE_COLUMNS, SPARSE_NNZ)
        starts = np.sort(rng.choice(SPARSE_NNZ, SPARSE_ROWS, replace=False))
        starts[0] = 0
        self._starts = starts
        self._columns = [rng.random(SPARSE_COLUMNS) for _ in range(SPARSE_PASSES)]
        self._dense = rng.random(DENSE_SHAPE)
        self._small = rng.random(SMALL_SHAPE)

    def calibrate(self) -> float:
        """Seconds the calibration work takes now."""
        start = time.perf_counter()
        for column in self._columns:
            np.add.reduceat(self._data * column[self._indices], self._starts)
        self._dense.T @ self._dense
        for _ in range(SMALL_SOLVES):
            gram = self._small.T @ self._small
            gram[np.diag_indices_from(gram)] += 1.0
            np.linalg.norm(np.linalg.solve(gram, self._small[0]))
        return time.perf_counter() - start

    def timed(self, fn: Callable[[], Any]) -> Tuple[float, float, Any]:
        """``(seconds, reference seconds, result)`` of one call of ``fn``."""
        calibration = self.calibrate()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return seconds, seconds * REFERENCE_S / calibration, result
