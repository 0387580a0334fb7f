"""Shared provenance block for every ``BENCH_*.json`` artifact.

A recorded number is only interpretable next to the machine and kernel
configuration that produced it, and a *gate* (an asserted threshold, not
just a recorded column) is only meaningful if the artifact says whether
it actually ran.  Every bench script stamps its payload with
:func:`provenance`:

- ``cpu_count`` — what the runner had; a 1.0x thread speedup on a
  single-core runner is expected, not a regression.
- ``kernel_backend`` / ``compiled_kernels_available`` — which CSR
  kernel backend produced the numbers (see
  :mod:`repro.linalg.kernels`).
- ``kernel_tile`` — which compiled lane path float64 block products of
  three or more columns ran on: ``"avx512f"`` (the register tile) or
  ``"none"`` (the portable lane loop; also without the extension).
- ``numpy_version`` / ``blas`` / ``blas_threads`` — which BLAS build
  ran every dense product, and the thread-count environment it ran
  under: dense timings (and the GEMM orientation
  :func:`repro.linalg.dense.dense_matmul` picks) are properties of
  the BLAS, not of this package.
- ``gates_enforced`` — whether this run *asserted* its
  timing/throughput gates or merely recorded the measurements
  (mirroring ``bench_serving``'s ``timing_assertions_enforced``).
  Multicore speedup gates are skipped, not failed, below
  :data:`MULTICORE_GATE_MIN_CPUS` cores.

It also holds the two timing helpers every bench script shares,
:func:`timed` and :func:`best_of`; both return ``(seconds, value)``.
"""

import os
import time

import numpy as np

from repro.linalg import kernels

#: Environment variables that set the BLAS thread count.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Multicore speedup gates assert only at (at least) this many cores —
#: below it the numbers are recorded with ``gates_enforced: false``.
MULTICORE_GATE_MIN_CPUS = 4


def multicore_gates_enforced() -> bool:
    """True when the runner has enough cores to assert speedup gates."""
    return (os.cpu_count() or 1) >= MULTICORE_GATE_MIN_CPUS


def timed(fn):
    """``(seconds, value)`` of one call of ``fn``."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def best_of(repeats, fn):
    """Best wall time over ``repeats`` calls of ``fn``, plus the last value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        seconds, value = timed(fn)
        best = min(best, seconds)
    return best, value


def provenance(gates_enforced: bool) -> dict:
    """The provenance block merged into every bench payload."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "kernel_backend": kernels.active_backend(),
        "compiled_kernels_available": kernels.compiled_available(),
        "kernel_tile": kernels.kernel_tile(),
        "numpy_version": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "gates_enforced": bool(gates_enforced),
    }
