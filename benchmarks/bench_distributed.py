"""Distributed-backend benchmark — emits ``BENCH_distributed.json``.

Measures what the distributed layer claims and what it must not break:

1. **Traffic shape**: shard payloads ship once; after that, each block
   iteration moves only operand/result vectors.  Recorded as
   ``ship_bytes`` (one-time) vs ``bytes_per_iteration`` (steady state),
   and the ratio between them — the wire-level restatement of the
   paper's "touch the data once per iteration" argument.
2. **Parity**: the distributed solve must be *bitwise identical* to the
   sharded serial run (``max_rel_diff_vs_serial == 0``) and within the
   adjoint fold tolerance of the direct path (``<= 1e-12``).  Both are
   asserted, not just recorded.
3. **Recovery**: a worker SIGKILLed mid-solve (seeded
   :class:`~repro.distributed.chaos.ChaosPlan`) must still produce the
   bitwise-serial result; the wall-clock penalty and the supervisor's
   recovery counters (deaths, reassignments, retries) are recorded.
4. **Degradation**: losing *every* worker must fall back to the local
   serial backend — bitwise identical again — with the ladder recorded.

Run from the repo root::

    PYTHONPATH=src:. python benchmarks/bench_distributed.py           # full
    PYTHONPATH=src:. python benchmarks/bench_distributed.py --smoke   # CI

The JSON schema is documented in ``docs/DISTRIBUTED.md``.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from benchmarks._provenance import provenance, timed
from benchmarks.bench_parallel import make_problem, make_rhs, rel_diff
from repro.distributed import ChaosBackend, ChaosPlan, DistributedBackend
from repro.linalg.block_lsqr import block_lsqr
from repro.linalg.operators import as_operator
from repro.parallel import ShardedOperator

FULL_CASE = dict(m=8000, n=6000, classes=10, row_nnz=60)
SMOKE_CASE = dict(m=1200, n=900, classes=5, row_nnz=30)


def _solve(op, B, iter_lim):
    return timed(
        lambda: block_lsqr(
            op, B, damp=1.0, atol=0.0, btol=0.0, iter_lim=iter_lim
        ).X
    )


def _assert_parity(X, serial_x, direct_x, label):
    vs_serial = rel_diff(X, serial_x)
    vs_direct = rel_diff(X, direct_x)
    assert vs_serial == 0.0, (
        f"{label} diverged from the sharded serial run "
        f"(max_rel_diff={vs_serial:.3e}); results must not depend on "
        "which process does the arithmetic"
    )
    assert vs_direct <= 1e-12, (
        f"{label} drifted {vs_direct:.3e} from the direct path; "
        "adjoint fold tolerance is 1e-12"
    )
    return {
        "max_rel_diff_vs_serial": vs_serial,
        "max_rel_diff_vs_direct": vs_direct,
    }


def run_traffic_and_parity(case, iter_lim, n_workers):
    """Clean distributed solve: traffic accounting + parity columns."""
    matrix = make_problem(case["m"], case["n"], case["row_nnz"])
    B = make_rhs(case["m"], case["classes"])

    direct_seconds, direct_x = _solve(as_operator(matrix), B, iter_lim)
    with ShardedOperator(matrix, backend="serial") as op:
        n_shards = op.n_shards
        serial_seconds, serial_x = _solve(op, B, iter_lim)

    backend = DistributedBackend(n_workers=n_workers, heartbeat_interval=0.0)
    try:
        with ShardedOperator(matrix, backend=backend) as op:
            ship_stats = backend.stats()
            seconds, X = _solve(op, B, iter_lim)
            run_stats = backend.stats()
    finally:
        backend.close()

    parity = _assert_parity(X, serial_x, direct_x, "distributed")
    # block_lsqr does one forward + one adjoint block product per
    # iteration, plus the initial A.T @ u product.
    n_products = 2 * iter_lim + 1
    iter_sent = run_stats["bytes_sent"] - ship_stats["bytes_sent"]
    iter_received = run_stats["bytes_received"] - ship_stats["bytes_received"]
    rhs_floats = case["m"] * (case["classes"] - 1)
    return {
        **case,
        "nnz": matrix.nnz,
        "iter_lim": iter_lim,
        "n_shards": n_shards,
        "n_workers": n_workers,
        "direct_seconds": direct_seconds,
        "sharded_serial_seconds": serial_seconds,
        "distributed_seconds": seconds,
        "ship_bytes": ship_stats["bytes_sent"],
        "bytes_per_iteration": iter_sent / iter_lim,
        "bytes_received_per_iteration": iter_received / iter_lim,
        "bytes_per_product": iter_sent / n_products,
        "rhs_bytes": rhs_floats * 8,
        "ship_to_iteration_ratio": (
            ship_stats["bytes_sent"] / max(1.0, iter_sent / iter_lim)
        ),
        **parity,
    }


def run_recovery(case, iter_lim, n_workers):
    """SIGKILL worker 0 mid-solve; recovery must restore exact numbers."""
    matrix = make_problem(case["m"], case["n"], case["row_nnz"])
    B = make_rhs(case["m"], case["classes"])

    direct_seconds, direct_x = _solve(as_operator(matrix), B, iter_lim)
    with ShardedOperator(matrix, backend="serial") as op:
        _, serial_x = _solve(op, B, iter_lim)

    clean = DistributedBackend(n_workers=n_workers, heartbeat_interval=0.0)
    try:
        with ShardedOperator(matrix, backend=clean) as op:
            clean_seconds, _ = _solve(op, B, iter_lim)
    finally:
        clean.close()

    inner = DistributedBackend(
        n_workers=n_workers, heartbeat_interval=0.5, task_timeout=10.0
    )
    chaotic = ChaosBackend(inner, ChaosPlan(kill_at={5: 0}))
    try:
        with ShardedOperator(matrix, backend=chaotic) as op:
            chaos_seconds, X = _solve(op, B, iter_lim)
            stats = inner.stats()
    finally:
        chaotic.close()

    parity = _assert_parity(X, serial_x, direct_x, "post-kill recovery")
    assert stats["worker_deaths"] == 1, "the scheduled kill did not land"
    assert stats["reassignments"] >= 1, "orphaned shards were not adopted"
    return {
        "kill_at_product": 5,
        "clean_seconds": clean_seconds,
        "with_kill_seconds": chaos_seconds,
        "recovery_seconds": max(0.0, chaos_seconds - clean_seconds),
        "worker_deaths": stats["worker_deaths"],
        "reassignments": stats["reassignments"],
        "retries": stats["retries"],
        "surviving_workers": stats["live_workers"],
        **parity,
    }


def run_degradation(case, iter_lim, n_workers):
    """Kill everything; the local fallback must be bitwise-serial."""
    matrix = make_problem(case["m"], case["n"], case["row_nnz"])
    B = make_rhs(case["m"], case["classes"])

    direct_seconds, direct_x = _solve(as_operator(matrix), B, iter_lim)
    with ShardedOperator(matrix, backend="serial") as op:
        _, serial_x = _solve(op, B, iter_lim)

    inner = DistributedBackend(
        n_workers=n_workers, heartbeat_interval=0.0, task_timeout=2.0,
        max_retries=1,
    )
    victims = tuple(range(n_workers))
    chaotic = ChaosBackend(inner, ChaosPlan(kill_at={3: victims}))
    try:
        with ShardedOperator(matrix, backend=chaotic) as op:
            seconds, X = _solve(op, B, iter_lim)
            degraded_from = op.degraded_from
            reason = op.degradation_reason
            fallback = op.backend.name
    finally:
        chaotic.close()

    parity = _assert_parity(X, serial_x, direct_x, "degraded fallback")
    assert degraded_from == "chaos(distributed)", (
        f"expected a degradation, got degraded_from={degraded_from!r}"
    )
    return {
        "kill_at_product": 3,
        "seconds": seconds,
        "degraded_from": degraded_from,
        "fallback_backend": fallback,
        "reason": reason,
        **parity,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI — validates parity and recovery, "
        "not throughput",
    )
    parser.add_argument(
        "--out", default="BENCH_distributed.json", help="output JSON path"
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    case = SMOKE_CASE if args.smoke else FULL_CASE
    iter_lim = 10 if args.smoke else 15

    traffic = run_traffic_and_parity(case, iter_lim, args.workers)
    print(
        f"m={case['m']} n={case['n']} c={case['classes']} "
        f"shards={traffic['n_shards']} workers={args.workers}: "
        f"ship {traffic['ship_bytes'] / 1e6:.2f} MB once, then "
        f"{traffic['bytes_per_iteration'] / 1e3:.1f} kB/iteration "
        f"(ratio {traffic['ship_to_iteration_ratio']:.0f}x)"
    )
    print(
        f"  parity: serial {traffic['max_rel_diff_vs_serial']:.1e}, "
        f"direct {traffic['max_rel_diff_vs_direct']:.1e}; "
        f"distributed {traffic['distributed_seconds']:.3f}s vs sharded "
        f"serial {traffic['sharded_serial_seconds']:.3f}s"
    )

    recovery = run_recovery(case, iter_lim, args.workers)
    print(
        f"kill worker 0 at product {recovery['kill_at_product']}: "
        f"recovered in +{recovery['recovery_seconds']:.3f}s "
        f"({recovery['worker_deaths']} death, "
        f"{recovery['reassignments']} reassignments, "
        f"{recovery['retries']} retries), result bitwise-serial"
    )

    degradation = run_degradation(case, iter_lim, args.workers)
    print(
        f"kill all workers at product {degradation['kill_at_product']}: "
        f"degraded {degradation['degraded_from']} -> "
        f"{degradation['fallback_backend']}, result bitwise-serial"
    )

    payload = {
        "benchmark": "distributed",
        "mode": "smoke" if args.smoke else "full",
        # recovery/degradation parity gates are core-count independent
        # and always asserted
        **provenance(gates_enforced=True),
        "n_workers": args.workers,
        "traffic_and_parity": traffic,
        "recovery": recovery,
        "degradation": degradation,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return payload


if __name__ == "__main__":
    main()
