"""Blocked-vs-sequential LSQR benchmark — emits ``BENCH_block_lsqr.json``.

Measures the three quantities the perf trajectory tracks from PR 2
onward:

1. **Wall time** of :func:`repro.linalg.block_lsqr.block_lsqr` run one
   column at a time (a 1-D right-hand side per call, the "sequential"
   baseline) vs one call over the same ``c - 1`` right-hand sides, at
   several ``(m, n, c, s)`` points, and
   the ``tracemalloc`` peak of one blocked solve (``peak_mb``, next to
   the size of one ``(n, c - 1)`` block, ``block_mb``), measured after
   the timed repeats so the matrix's cached transpose is not in it.
2. **Flam** (multiply-add pairs charged at nnz per product column, via
   :class:`repro.complexity.FlamCountingOperator`) for both paths —
   identical by construction, which is what makes flam/second a fair
   throughput metric: the blocked path does the *same arithmetic*
   faster.
3. **Alpha-sweep reuse**: a grid of damping values solved by refitting
   per alpha vs one :class:`~repro.linalg.block_lsqr.SharedBidiagonalization`
   replayed per alpha, with operator-product counts proving the shared
   path touches the data once.

Run from the repo root::

    PYTHONPATH=src:. python benchmarks/bench_block_lsqr.py            # full
    PYTHONPATH=src:. python benchmarks/bench_block_lsqr.py --smoke    # CI

The JSON schema is documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc

import numpy as np

from repro.complexity.counter import FlamCountingOperator
from repro.linalg.block_lsqr import SharedBidiagonalization, block_lsqr
from repro.linalg.operators import as_operator
from repro.linalg.sparse import CSRMatrix

try:
    from benchmarks._provenance import best_of, provenance, timed
except ImportError:  # run as `python benchmarks/bench_block_lsqr.py`
    from _provenance import best_of, provenance, timed

#: (m, n, classes, nnz-per-row, dtype) points for the full run.  The
#: flagship case mirrors the paper's 20Newsgroups shape: tall sparse
#: text-like data with c = 20 classes.
FULL_CASES = [
    dict(m=20000, n=26000, classes=20, row_nnz=80, dtype="float64"),
    dict(m=8000, n=10000, classes=11, row_nnz=50, dtype="float64"),
    dict(m=8000, n=10000, classes=11, row_nnz=50, dtype="float32"),
    dict(m=8000, n=10000, classes=2, row_nnz=50, dtype="float64"),
]

SMOKE_CASES = [
    dict(m=400, n=300, classes=11, row_nnz=20, dtype="float64"),
    dict(m=400, n=300, classes=2, row_nnz=20, dtype="float64"),
]


#: Largest allowed ``max_rel_diff`` between blocked and per-column LSQR.
PARITY_BOUNDS = {"float64": 1e-12, "float32": 1e-5}


def make_problem(m, n, row_nnz, dtype, seed=0):
    """Sparse data + responses-like RHS block with sorted row indices."""
    rng = np.random.default_rng(seed)
    indices = np.empty(m * row_nnz, dtype=np.int64)
    for i in range(m):
        indices[i * row_nnz : (i + 1) * row_nnz] = np.sort(
            rng.choice(n, size=row_nnz, replace=False)
        )
    data = rng.standard_normal(m * row_nnz).astype(dtype)
    indptr = np.arange(0, (m + 1) * row_nnz, row_nnz, dtype=np.int64)
    return CSRMatrix(data, indices, indptr, shape=(m, n))


def make_rhs(m, classes, dtype, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, classes - 1)).astype(dtype)


def peak_mb(fn):
    """Peak MiB ``tracemalloc`` sees allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_case(case, iter_lim, damp, repeats):
    matrix = make_problem(
        case["m"], case["n"], case["row_nnz"], case["dtype"]
    )
    B = make_rhs(case["m"], case["classes"], case["dtype"])
    op = FlamCountingOperator(as_operator(matrix))
    k = B.shape[1]

    def sequential():
        return np.column_stack(
            [
                block_lsqr(op, B[:, j], damp=damp, atol=0.0, btol=0.0,
                           iter_lim=iter_lim).X[:, 0]
                for j in range(k)
            ]
        )

    def blocked():
        return block_lsqr(
            op, B, damp=damp, atol=0.0, btol=0.0, iter_lim=iter_lim
        ).X

    op.reset()
    seq_seconds, seq_x = best_of(repeats, sequential)
    seq_flam = op.flam / repeats

    op.reset()
    blk_seconds, blk_x = best_of(repeats, blocked)
    blk_flam = op.flam / repeats
    blk_peak = peak_mb(blocked)

    scale = max(1.0, float(np.max(np.abs(seq_x))))
    max_rel_diff = float(np.max(np.abs(seq_x - blk_x)) / scale)
    label = f"{case['m']}x{case['n']} c={case['classes']} {case['dtype']}"
    assert blk_flam == seq_flam, (
        f"{label}: blocked LSQR did {blk_flam:.0f} flam, per-column "
        f"{seq_flam:.0f}; blocking must not change the arithmetic done"
    )
    bound = PARITY_BOUNDS[case["dtype"]]
    assert max_rel_diff <= bound, (
        f"{label}: blocked LSQR drifted {max_rel_diff:.2e} from per-column "
        f"solves (bound {bound:g})"
    )
    return {
        **case,
        "iter_lim": iter_lim,
        "damp": damp,
        "nnz": matrix.nnz,
        "sequential": {"seconds": seq_seconds, "flam": seq_flam},
        "blocked": {
            "seconds": blk_seconds,
            "flam": blk_flam,
            "peak_mb": blk_peak,
        },
        "block_mb": B.dtype.itemsize * case["n"] * k / 2**20,
        "speedup": seq_seconds / blk_seconds,
        "max_rel_diff": max_rel_diff,
        "parity_bound": bound,
    }


def run_alpha_sweep(case, iter_lim, alphas, repeats):
    """Per-alpha cold solves vs one shared bidiagonalization."""
    matrix = make_problem(
        case["m"], case["n"], case["row_nnz"], case["dtype"]
    )
    B = make_rhs(case["m"], case["classes"], case["dtype"])
    op = FlamCountingOperator(as_operator(matrix))
    damps = [float(np.sqrt(a)) for a in alphas]

    def per_alpha():
        return [
            block_lsqr(op, B, damp=d, atol=0.0, btol=0.0,
                       iter_lim=iter_lim).X
            for d in damps
        ]

    def shared():
        basis = SharedBidiagonalization(op, B, iter_lim=iter_lim)
        return [
            basis.solve(damp=d, atol=0.0, btol=0.0).X for d in damps
        ]

    op.reset()
    cold_seconds, cold_xs = best_of(repeats, per_alpha)
    cold_products = (op.n_matmat + op.n_rmatmat) / repeats

    op.reset()
    shared_seconds, shared_xs = best_of(repeats, shared)
    shared_products = (op.n_matmat + op.n_rmatmat) / repeats

    diff = max(
        float(np.max(np.abs(a - b))) for a, b in zip(cold_xs, shared_xs)
    )
    # One rmatmat to start, then a matmat and an rmatmat per iteration:
    # per alpha for cold solves, once for the shared basis.
    per_solve = 2 * iter_lim + 1
    assert cold_products == len(alphas) * per_solve, (
        f"per-alpha solves made {cold_products} products, expected "
        f"{len(alphas)}x{per_solve}"
    )
    assert shared_products == per_solve, (
        f"shared bidiagonalization made {shared_products} products, "
        f"expected {per_solve}"
    )
    assert diff == 0.0, (
        f"shared-basis solves drifted {diff:.3e} from cold block_lsqr; "
        "replaying the recorded basis must reproduce them bit for bit"
    )
    return {
        "m": case["m"],
        "n": case["n"],
        "classes": case["classes"],
        "row_nnz": case["row_nnz"],
        "iter_lim": iter_lim,
        "n_alphas": len(alphas),
        "per_alpha": {
            "seconds": cold_seconds,
            "operator_products": cold_products,
        },
        "shared_bidiagonalization": {
            "seconds": shared_seconds,
            "operator_products": shared_products,
        },
        "speedup": cold_seconds / shared_seconds,
        "max_abs_diff": diff,
    }


def run_observability_overhead(case, iter_lim, repeats):
    """Tracing overhead on the blocked path, disabled and enabled.

    The contract the observability layer ships under: with tracing
    *disabled* (the default for every fit), the instrumented call path
    — resolve the tracer, ask it for an iteration hook, pass the
    resulting ``None`` to the solver — must cost less than 2% over the
    bare solver call.  Asserted here so a regression fails the
    benchmark run, not just a code review.

    The plain and disabled-hook calls run interleaved, alternating
    which goes first, and each keeps its best time: a slow stretch of
    the host then lands on both sides instead of on one back-to-back
    block, so the gate measures the hook rather than the host.
    """
    from repro.observability import DISABLED_TRACER, InMemorySink, Tracer

    matrix = make_problem(
        case["m"], case["n"], case["row_nnz"], case["dtype"]
    )
    B = make_rhs(case["m"], case["classes"], case["dtype"])
    op = as_operator(matrix)

    def plain():
        return block_lsqr(
            op, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=iter_lim
        ).X

    def disabled_trace():
        hook = DISABLED_TRACER.iteration_hook()  # None — the default path
        return block_lsqr(
            op, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=iter_lim,
            on_iteration=hook,
        ).X

    def enabled_trace():
        tracer = Tracer(sink=InMemorySink())
        with tracer.span("bench.block_lsqr") as span:
            result = block_lsqr(
                op, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=iter_lim,
                on_iteration=tracer.iteration_hook(span),
            ).X
        return result

    reps = max(repeats, 5)
    best = {plain: float("inf"), disabled_trace: float("inf")}
    for rep in range(reps):
        for fn in (plain, disabled_trace)[:: 1 if rep % 2 == 0 else -1]:
            best[fn] = min(best[fn], timed(fn)[0])
    plain_seconds, disabled_seconds = best[plain], best[disabled_trace]
    enabled_seconds, _ = best_of(reps, enabled_trace)

    overhead = disabled_seconds / plain_seconds - 1.0
    # Small absolute slack keeps timer jitter on smoke-sized problems
    # from failing a structurally-zero-cost path.
    assert disabled_seconds <= plain_seconds * 1.02 + 1e-4, (
        f"disabled tracing added {overhead:.1%} to block_lsqr "
        f"({plain_seconds:.6f}s -> {disabled_seconds:.6f}s); "
        "the observability layer must be free when off"
    )
    return {
        "m": case["m"],
        "n": case["n"],
        "classes": case["classes"],
        "iter_lim": iter_lim,
        "repeats": reps,
        "plain_seconds": plain_seconds,
        "disabled_trace_seconds": disabled_seconds,
        "enabled_trace_seconds": enabled_seconds,
        "disabled_overhead": overhead,
        "enabled_overhead": enabled_seconds / plain_seconds - 1.0,
        "max_disabled_overhead": 0.02,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI — validates the harness, not throughput",
    )
    parser.add_argument(
        "--out", default="BENCH_block_lsqr.json", help="output JSON path"
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    cases = SMOKE_CASES if args.smoke else FULL_CASES
    iter_lim = 10 if args.smoke else 15
    repeats = args.repeats or (2 if args.smoke else 3)
    alphas = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0]

    results = []
    for case in cases:
        result = run_case(case, iter_lim=iter_lim, damp=1.0, repeats=repeats)
        results.append(result)
        print(
            f"m={case['m']} n={case['n']} c={case['classes']} "
            f"s={case['row_nnz']} {case['dtype']}: "
            f"seq {result['sequential']['seconds']:.3f}s "
            f"blk {result['blocked']['seconds']:.3f}s "
            f"speedup {result['speedup']:.2f}x "
            f"(max rel diff {result['max_rel_diff']:.2e}), "
            f"peak {result['blocked']['peak_mb']:.1f} MiB = "
            f"{result['blocked']['peak_mb'] / result['block_mb']:.2f} blocks"
        )

    sweep = run_alpha_sweep(
        cases[0], iter_lim=iter_lim, alphas=alphas, repeats=repeats
    )
    print(
        f"alpha sweep x{sweep['n_alphas']}: "
        f"per-alpha {sweep['per_alpha']['seconds']:.3f}s "
        f"({sweep['per_alpha']['operator_products']:.0f} products) vs "
        f"shared {sweep['shared_bidiagonalization']['seconds']:.3f}s "
        f"({sweep['shared_bidiagonalization']['operator_products']:.0f} "
        f"products), speedup {sweep['speedup']:.2f}x"
    )

    observability = run_observability_overhead(
        cases[-1], iter_lim=iter_lim, repeats=repeats
    )
    print(
        f"observability overhead: disabled "
        f"{observability['disabled_overhead']:+.2%}, enabled "
        f"{observability['enabled_overhead']:+.2%} "
        f"(plain {observability['plain_seconds']:.4f}s)"
    )

    payload = {
        "benchmark": "block_lsqr",
        "mode": "smoke" if args.smoke else "full",
        # this artifact's gates (blocked-vs-per-column parity and equal
        # flam, the alpha sweep's product counts and zero drift, and the
        # disabled-tracing bound) are core-count independent and always
        # asserted
        **provenance(gates_enforced=True),
        "repeats": repeats,
        "cases": results,
        "alpha_sweep": sweep,
        "observability": observability,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return payload


if __name__ == "__main__":
    main()
