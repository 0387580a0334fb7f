"""Sharded-backend benchmark — emits ``BENCH_parallel.json``.

Measures what the parallel layer claims and what it must not break:

1. **Wall time** of :func:`repro.linalg.block_lsqr.block_lsqr` through a
   :class:`repro.parallel.ShardedOperator` on the serial and thread
   backends at several worker counts, against the direct (unsharded)
   path on the paper's 20Newsgroups-like shape
   (m=20000, n=26000, c=20).
2. **Parity**: every sharded CSR variant must be *bitwise identical* to
   the direct path (``max_rel_diff_vs_direct == 0``) and so to the
   sharded serial run (``max_rel_diff_vs_serial == 0``).  Both are
   asserted, not just recorded.
3. **Weak scaling**: the thread-backend solve with ``m`` grown in
   proportion to the worker count, as total and per-iteration seconds
   next to the direct solve of the same problem (bitwise equal to it).
4. **Serial overhead**: a single-shard ShardedOperator is a passthrough
   and must cost <2% over the direct path.
5. **Experiment grids**: ``run_experiment(n_jobs=...)`` error grids must
   be bitwise identical across worker counts.
6. **Kernel microbench**: compiled vs reference CSR kernels
   (``matvec``, ``rmatvec``, ``matmat``, ``rmatmat``, first
   ``transpose``), single-threaded and bitwise-checked; when the
   extension is built the compiled ``matvec``/``matmat`` must be ≥1.5×
   the reference.

Speedups are recorded together with the provenance block
(``cpu_count``/``kernel_backend``/``gates_enforced``) — on a
single-core CI runner the threaded numbers honestly show ~1x with
``gates_enforced: false``; on a ≥4-core runner the thread-x4
``speedup_vs_direct > 1`` gate is *asserted*.  The parity columns are
the part that must hold everywhere.

Run from the repo root::

    PYTHONPATH=src:. python benchmarks/bench_parallel.py            # full
    PYTHONPATH=src:. python benchmarks/bench_parallel.py --smoke    # CI

The JSON schema is documented in ``docs/PARALLEL.md``.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.core.srda import SRDA
from repro.datasets import Dataset
from repro.eval.experiment import run_experiment
from repro.linalg import kernels
from repro.linalg.block_lsqr import block_lsqr
from repro.linalg.operators import as_operator
from repro.linalg.sparse import CSRMatrix
from repro.parallel import ShardedOperator

try:
    from benchmarks._provenance import (
        best_of,
        multicore_gates_enforced,
        provenance,
    )
except ImportError:  # run as `python benchmarks/bench_parallel.py`
    from _provenance import best_of, multicore_gates_enforced, provenance

FULL_CASE = dict(m=20000, n=26000, classes=20, row_nnz=80)
SMOKE_CASE = dict(m=1200, n=900, classes=5, row_nnz=30)

FULL_WORKERS = [1, 2, 4, 8]
SMOKE_WORKERS = [2]

#: Weak scaling: rows per worker (``m = ROWS_PER_WORKER × workers``);
#: ``n``, classes and nnz per row are the solver case's.
FULL_ROWS_PER_WORKER = 5000
SMOKE_ROWS_PER_WORKER = 300
SMOKE_WEAK_WORKERS = [1, 2]

#: Single-threaded per-kernel microbench problem — large enough that
#: the O(nnz) loop dominates python call overhead on both backends.
MICRO_CASE = dict(m=20000, n=2000, row_nnz=32)
SMOKE_MICRO_CASE = dict(m=4000, n=800, row_nnz=16)

#: The compiled backend must beat the numpy reference by at least this
#: factor on matvec and matmat, single-threaded (asserted whenever the
#: extension is importable — no core count required).
MIN_KERNEL_SPEEDUP = 1.5


def make_problem(m, n, row_nnz, seed=0):
    """Sparse text-like data with sorted row indices (bench_block_lsqr's)."""
    rng = np.random.default_rng(seed)
    indices = np.empty(m * row_nnz, dtype=np.int64)
    for i in range(m):
        indices[i * row_nnz : (i + 1) * row_nnz] = np.sort(
            rng.choice(n, size=row_nnz, replace=False)
        )
    data = rng.standard_normal(m * row_nnz)
    indptr = np.arange(0, (m + 1) * row_nnz, row_nnz, dtype=np.int64)
    return CSRMatrix(data, indices, indptr, shape=(m, n))


def make_rhs(m, classes, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, classes - 1))


def rel_diff(X, reference):
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(X - reference)) / scale)


def assert_bitwise_direct(label, vs_direct):
    assert vs_direct == 0.0, (
        f"{label} drifted {vs_direct:.3e} from the direct path; every "
        "sharded CSR product must equal the direct one bit for bit"
    )


def solve(op, B, iter_lim, repeats):
    return best_of(
        repeats,
        lambda: block_lsqr(op, B, damp=1.0, atol=0.0, btol=0.0,
                           iter_lim=iter_lim).X,
    )


def run_solver_grid(case, iter_lim, repeats, worker_counts):
    """Direct vs sharded serial, and sharded threads at each worker count."""
    matrix = make_problem(case["m"], case["n"], case["row_nnz"])
    B = make_rhs(case["m"], case["classes"])

    direct_seconds, direct_x = solve(
        as_operator(matrix), B, iter_lim, repeats
    )

    with ShardedOperator(matrix, backend="serial") as op:
        n_shards = op.n_shards
        serial_seconds, serial_x = solve(op, B, iter_lim, repeats)

    variants = []
    for workers in worker_counts:
        with ShardedOperator(matrix, backend="thread", n_jobs=workers) as op:
            seconds, X = solve(op, B, iter_lim, repeats)
        vs_serial = rel_diff(X, serial_x)
        vs_direct = rel_diff(X, direct_x)
        assert vs_serial == 0.0, (
            f"thread x{workers} diverged from the sharded serial run "
            f"(max_rel_diff={vs_serial:.3e}); sharded results must not "
            "depend on the backend"
        )
        assert_bitwise_direct(f"thread x{workers}", vs_direct)
        variants.append(
            {
                "backend": "thread",
                "n_workers": workers,
                "seconds": seconds,
                "speedup_vs_serial": serial_seconds / seconds,
                "speedup_vs_direct": direct_seconds / seconds,
                "max_rel_diff_vs_serial": vs_serial,
                "max_rel_diff_vs_direct": vs_direct,
            }
        )

    serial_vs_direct = rel_diff(serial_x, direct_x)
    assert_bitwise_direct("sharded serial", serial_vs_direct)
    return {
        **case,
        "nnz": matrix.nnz,
        "iter_lim": iter_lim,
        "n_shards": n_shards,
        "direct": {"seconds": direct_seconds},
        "sharded_serial": {
            "seconds": serial_seconds,
            "overhead_vs_direct": serial_seconds / direct_seconds - 1.0,
            "max_rel_diff_vs_direct": serial_vs_direct,
        },
        "variants": variants,
    }


def run_weak_scaling(case, rows_per_worker, iter_lim, repeats, worker_counts):
    """The thread-backend solve with ``m`` grown by the worker count.

    Total and per-iteration seconds at ``m = rows_per_worker × workers``
    — a flat per-iteration time means the sharded layer scales with its
    workers — beside the direct solve of the same problem, which the
    sharded one must equal bit for bit.
    """
    entries = []
    for workers in worker_counts:
        m = rows_per_worker * workers
        matrix = make_problem(m, case["n"], case["row_nnz"])
        B = make_rhs(m, case["classes"])
        direct_seconds, direct_x = solve(
            as_operator(matrix), B, iter_lim, repeats
        )
        with ShardedOperator(matrix, backend="thread", n_jobs=workers) as op:
            n_shards = op.n_shards
            seconds, X = solve(op, B, iter_lim, repeats)
        vs_direct = rel_diff(X, direct_x)
        assert_bitwise_direct(f"weak-scaling thread x{workers}", vs_direct)
        entries.append(
            {
                "n_workers": workers,
                "m": m,
                "nnz": matrix.nnz,
                "n_shards": n_shards,
                "total_seconds": seconds,
                "seconds_per_iteration": seconds / iter_lim,
                "direct_seconds": direct_seconds,
                "max_rel_diff_vs_direct": vs_direct,
            }
        )
    return {
        "rows_per_worker": rows_per_worker,
        "n": case["n"],
        "classes": case["classes"],
        "row_nnz": case["row_nnz"],
        "iter_lim": iter_lim,
        "entries": entries,
    }


def run_kernel_microbench(case, repeats, min_speedup=MIN_KERNEL_SPEEDUP):
    """Compiled vs reference kernels, single-threaded, bitwise-checked.

    Records per-kernel best-of times for both backends; when the
    compiled extension is importable, asserts its raison d'être —
    ``matvec`` and ``matmat`` at least ``min_speedup``× the reference
    (``rmatvec``, ``rmatmat`` and ``transpose`` are recorded).
    ``rmatvec``/``rmatmat`` reuse the cached transpose (built up front);
    ``transpose`` times the first ``.T`` of a fresh matrix, which is
    what a fit pays once.
    """
    matrix = make_problem(case["m"], case["n"], case["row_nnz"])
    rng = np.random.default_rng(3)
    v = rng.standard_normal(case["n"])
    u = rng.standard_normal(case["m"])
    B = rng.standard_normal((case["n"], 5))
    U = rng.standard_normal((case["m"], 5))
    matrix.rmatvec(u)  # build the cached transpose up front

    def first_transpose():
        fresh = CSRMatrix(
            matrix.data, matrix.indices, matrix.indptr, matrix.shape
        )
        transpose = fresh.T
        return transpose.data, transpose.indices, transpose.indptr

    names = ("matvec", "rmatvec", "matmat", "rmatmat", "transpose")
    backends = ("reference",) + (
        ("compiled",) if kernels.compiled_available() else ()
    )
    times, outputs = {}, {}
    for backend in backends:
        with kernels.use_backend(backend):
            runs = (
                # a 1-D operand is the mat-vec, the width-1 block product
                best_of(repeats, lambda: kernels.csr_matmat(matrix, v)),
                best_of(repeats, lambda: kernels.csr_rmatmat(matrix, u)),
                best_of(repeats, lambda: kernels.csr_matmat(matrix, B)),
                best_of(repeats, lambda: kernels.csr_rmatmat(matrix, U)),
                best_of(repeats, first_transpose),
            )
        times[backend] = {
            f"{name}_seconds": seconds
            for name, (seconds, _) in zip(names, runs)
        }
        outputs[backend] = [value for _, value in runs]

    section = {
        **case,
        "nnz": matrix.nnz,
        "repeats": repeats,
        "min_speedup": min_speedup,
        "compiled_available": kernels.compiled_available(),
        "backends": times,
    }
    if kernels.compiled_available():
        for name, ref, comp in zip(
            names, outputs["reference"], outputs["compiled"]
        ):
            same = (
                all(r.tobytes() == c.tobytes() for r, c in zip(ref, comp))
                if name == "transpose"
                else ref.tobytes() == comp.tobytes()
            )
            assert same, (
                f"kernel backends diverged bitwise on {name} in the "
                "microbench"
            )
        speedups = {
            name: (
                times["reference"][f"{name}_seconds"]
                / times["compiled"][f"{name}_seconds"]
            )
            for name in names
        }
        section["speedup"] = speedups
        for name in ("matvec", "matmat"):
            assert speedups[name] >= min_speedup, (
                f"compiled {name} is only {speedups[name]:.2f}x the "
                f"reference (need >= {min_speedup}x); the compiled "
                "backend has lost its reason to exist"
            )
    return section


def run_serial_passthrough(case, iter_lim, repeats):
    """Single-shard sharding must be free: the pre-PR path, refactored.

    Asserted at <2% (plus timer-jitter slack): ``SRDA()`` without
    ``n_jobs`` never pays for the parallel layer's existence.  The two
    sides alternate, direct then passthrough, once per repeat, so host
    drift lands on both; each side keeps its best time.
    """
    matrix = make_problem(case["m"], case["n"], case["row_nnz"])
    B = make_rhs(case["m"], case["classes"])
    direct = as_operator(matrix)

    direct_seconds = passthrough_seconds = float("inf")
    with ShardedOperator(matrix, n_shards=1, backend="serial") as op:
        for _ in range(max(repeats, 5)):
            seconds, _ = solve(direct, B, iter_lim, 1)
            direct_seconds = min(direct_seconds, seconds)
            seconds, _ = solve(op, B, iter_lim, 1)
            passthrough_seconds = min(passthrough_seconds, seconds)

    overhead = passthrough_seconds / direct_seconds - 1.0
    assert passthrough_seconds <= direct_seconds * 1.02 + 1e-4, (
        f"single-shard passthrough added {overhead:.1%} over the direct "
        "path; the serial backend must stay within 2%"
    )
    return {
        "direct_seconds": direct_seconds,
        "passthrough_seconds": passthrough_seconds,
        "overhead": overhead,
        "max_overhead": 0.02,
    }


def run_experiment_parity(seed=7):
    """Error grids must be bitwise identical across ``n_jobs``."""
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.standard_normal((40, 16)) + 3.0 * k for k in range(4)]
    )
    y = np.repeat(np.arange(4), 40)
    dataset = Dataset(
        "bench-grid",
        X,
        y,
        metadata={
            "split_protocol": "per_class_within",
            "train_sizes": [5, 10],
        },
    )
    algorithms = {"SRDA": lambda: SRDA(alpha=1.0)}

    grids = {}
    for jobs in (1, 2, 4):
        result = run_experiment(
            dataset, algorithms, n_splits=3, seed=seed, n_jobs=jobs
        )
        grids[jobs] = {
            key: tuple(cell.errors) for key, cell in result.cells.items()
        }
    identical = all(grids[jobs] == grids[1] for jobs in grids)
    assert identical, "experiment grids diverged across n_jobs"
    return {
        "n_jobs_checked": sorted(grids),
        "n_cells": len(grids[1]),
        "bitwise_identical": identical,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI — validates parity, not throughput",
    )
    parser.add_argument(
        "--out", default="BENCH_parallel.json", help="output JSON path"
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    case = SMOKE_CASE if args.smoke else FULL_CASE
    worker_counts = SMOKE_WORKERS if args.smoke else FULL_WORKERS
    iter_lim = 10 if args.smoke else 15
    repeats = args.repeats or (2 if args.smoke else 3)

    solver = run_solver_grid(
        case,
        iter_lim=iter_lim,
        repeats=repeats,
        worker_counts=worker_counts,
    )
    print(
        f"m={case['m']} n={case['n']} c={case['classes']} "
        f"shards={solver['n_shards']}: direct "
        f"{solver['direct']['seconds']:.3f}s, sharded serial "
        f"{solver['sharded_serial']['seconds']:.3f}s "
        f"({solver['sharded_serial']['overhead_vs_direct']:+.1%})"
    )
    for variant in solver["variants"]:
        print(
            f"  {variant['backend']:>7} x{variant['n_workers']}: "
            f"{variant['seconds']:.3f}s "
            f"(vs serial {variant['speedup_vs_serial']:.2f}x, "
            f"rel diff {variant['max_rel_diff_vs_serial']:.1e} serial / "
            f"{variant['max_rel_diff_vs_direct']:.1e} direct)"
        )

    gates_enforced = multicore_gates_enforced()
    thread_x4 = [
        variant
        for variant in solver["variants"]
        if variant["backend"] == "thread" and variant["n_workers"] == 4
    ]
    if gates_enforced and thread_x4:
        speedup = thread_x4[0]["speedup_vs_direct"]
        assert speedup > 1.0, (
            f"thread x4 speedup_vs_direct is {speedup:.2f}x on a "
            f"{os.cpu_count()}-core runner; the GIL-free kernels must "
            "make the parallel backend beat the direct path"
        )
    elif thread_x4:
        print(
            f"multicore gate skipped (cpu_count={os.cpu_count()} < 4): "
            f"thread x4 recorded {thread_x4[0]['speedup_vs_direct']:.2f}x"
        )

    weak = run_weak_scaling(
        case,
        SMOKE_ROWS_PER_WORKER if args.smoke else FULL_ROWS_PER_WORKER,
        iter_lim=iter_lim,
        repeats=repeats,
        worker_counts=SMOKE_WEAK_WORKERS if args.smoke else FULL_WORKERS,
    )
    for entry in weak["entries"]:
        print(
            f"  weak scaling x{entry['n_workers']} (m={entry['m']}): "
            f"{entry['total_seconds']:.3f}s total, "
            f"{entry['seconds_per_iteration'] * 1e3:.2f}ms/iteration "
            f"(direct {entry['direct_seconds']:.3f}s)"
        )

    micro = run_kernel_microbench(
        SMOKE_MICRO_CASE if args.smoke else MICRO_CASE,
        repeats=max(repeats * 3, 5),
    )
    for backend_name, entry in micro["backends"].items():
        print(
            f"  kernels[{backend_name}]: "
            + "  ".join(
                f"{key[: -len('_seconds')]} {seconds * 1e3:.3f}ms"
                for key, seconds in entry.items()
            )
        )
    if "speedup" in micro:
        print(
            "  compiled speedup: "
            + "  ".join(
                f"{k} {v:.2f}x" for k, v in micro["speedup"].items()
            )
        )

    passthrough = run_serial_passthrough(
        SMOKE_CASE, iter_lim=iter_lim, repeats=repeats
    )
    print(
        f"single-shard passthrough overhead: "
        f"{passthrough['overhead']:+.2%}"
    )

    grid = run_experiment_parity()
    print(
        f"experiment grids over n_jobs={grid['n_jobs_checked']}: "
        f"bitwise identical across {grid['n_cells']} cells"
    )

    payload = {
        "benchmark": "parallel",
        "mode": "smoke" if args.smoke else "full",
        **provenance(gates_enforced),
        "repeats": repeats,
        "kernel_microbench": micro,
        "solver": solver,
        "weak_scaling": weak,
        "serial_passthrough": passthrough,
        "experiment_grid": grid,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return payload


if __name__ == "__main__":
    main()
