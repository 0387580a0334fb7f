"""Dense tall×thin products — emits ``BENCH_dense_products.json``.

Every dense product of SRDA's regression stage multiplies the data
matrix ``X`` (or ``Xᵀ``) by a thin block of ``k = c - 1`` columns:
LSQR's ``X·V`` and ``Xᵀ·U`` per iteration, the normal-equation
right-hand side ``Xᵀ·Ȳ``, the dual back-substitution and ``predict``.
:func:`repro.linalg.dense.dense_matmul` runs the float64 ones as
``(Bᵀ·Aᵀ)ᵀ`` (thin block as the GEMM's left operand) and the float32
ones as plain ``A @ B``.  This script times both forms at both dtypes
on fitbench's dense shapes, so the rule rests on a recorded number:

- ``serve_faces``: the LSQR ``partial_fit`` of the served PIE model,
  2108×1024, ``k = 67``;
- ``pie_normal_rhs``: the primal right-hand side ``Xᵀ·Ȳ``, 4080×1024;
- ``pie_normal_predict``: ``predict`` on the test split, 7480×1024;
- ``mnist_dual_train`` / ``mnist_dual_predict``: the dual path's
  back-substitution on 300×784 and ``predict`` on 2000×784, ``k = 9``.

Each case times both products, ``X·V`` (``forward``) and ``Xᵀ·U``
(``adjoint``), with ``X`` C-ordered and the block F-ordered, as
``block_lsqr`` keeps it.

Gates, asserted on every run: at float64 ``dense_matmul`` agrees with
``A @ B`` to 1e-12 of the largest entry and returns an F-ordered
array; at float32 it returns ``A @ B`` byte for byte.  Timings are
recorded, not asserted: they are properties of the BLAS, which the
provenance block names.  Run from the repo root, on one BLAS thread
as ``fitbench`` runs its workloads::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:. \\
        python benchmarks/bench_dense_products.py            # full
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:. \\
        python benchmarks/bench_dense_products.py --smoke    # CI

The JSON schema is documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.linalg.dense import dense_matmul

try:
    from benchmarks._provenance import best_of, provenance
except ImportError:  # run as `python benchmarks/bench_dense_products.py`
    from _provenance import best_of, provenance

FULL_CASES = [
    {"name": "serve_faces", "m": 2108, "n": 1024, "k": 67},
    {"name": "pie_normal_rhs", "m": 4080, "n": 1024, "k": 67},
    {"name": "pie_normal_predict", "m": 7480, "n": 1024, "k": 67},
    {"name": "mnist_dual_train", "m": 300, "n": 784, "k": 9},
    {"name": "mnist_dual_predict", "m": 2000, "n": 784, "k": 9},
]
SMOKE_CASES = [
    {"name": "smoke_wide_block", "m": 400, "n": 256, "k": 67},
    {"name": "smoke_narrow_block", "m": 300, "n": 784, "k": 9},
]
DTYPES = ("float64", "float32")

#: Largest allowed ``max|dense_matmul - A @ B| / max|A @ B|`` at float64.
PARITY_BOUND = 1e-12


def operands(case, dtype, seed):
    """``X`` (C-ordered) and the two F-ordered thin blocks ``V``, ``U``."""
    rng = np.random.default_rng(seed)
    m, n, k = case["m"], case["n"], case["k"]
    X = rng.standard_normal((m, n)).astype(dtype)
    V = np.asfortranarray(rng.standard_normal((n, k)).astype(dtype))
    U = np.asfortranarray(rng.standard_normal((m, k)).astype(dtype))
    return {"forward": (X, V), "adjoint": (X.T, U)}


def run_product(label, A, B, repeats):
    """Plain vs oriented timings of one product, plus the parity gate."""
    plain_seconds, plain = best_of(repeats, lambda: A @ B)
    oriented_seconds, oriented = best_of(repeats, lambda: (B.T @ A.T).T)
    routed = dense_matmul(A, B)
    scale = float(np.max(np.abs(plain)))
    rel_diff = float(np.max(np.abs(routed - plain))) / scale
    if routed.dtype == np.float32:
        assert routed.tobytes() == plain.tobytes(), (
            f"{label}: float32 dense_matmul is not A @ B byte for byte"
        )
    else:
        assert rel_diff <= PARITY_BOUND, (
            f"{label}: dense_matmul drifted {rel_diff:.2e} from A @ B "
            f"(bound {PARITY_BOUND:g})"
        )
        assert routed.flags.f_contiguous, (
            f"{label}: float64 dense_matmul result is not F-ordered"
        )
    return {
        "plain_seconds": plain_seconds,
        "oriented_seconds": oriented_seconds,
        "oriented_speedup": plain_seconds / oriented_seconds,
        "oriented_max_rel_diff": float(
            np.max(np.abs(oriented - plain)) / scale
        ),
        "dense_matmul_form": "oriented" if routed.dtype == np.float64
        else "plain",
        "dense_matmul_max_rel_diff": rel_diff,
    }


def run_case(case, repeats, seed):
    result = dict(case)
    for dtype in DTYPES:
        products = operands(case, dtype, seed)
        result[dtype] = {
            kind: run_product(f"{case['name']} {kind} {dtype}", A, B, repeats)
            for kind, (A, B) in products.items()
        }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI — validates the gates, not throughput",
    )
    parser.add_argument(
        "--out", default="BENCH_dense_products.json", help="output JSON path"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--seed", type=int, default=0, help="operand-generation seed"
    )
    args = parser.parse_args(argv)

    cases = SMOKE_CASES if args.smoke else FULL_CASES
    repeats = args.repeats or (3 if args.smoke else 9)
    results = []
    for case in cases:
        result = run_case(case, repeats, args.seed)
        results.append(result)
        for dtype in DTYPES:
            for kind, timing in result[dtype].items():
                print(
                    f"{case['name']} {case['m']}x{case['n']} k={case['k']} "
                    f"{dtype} {kind}: plain "
                    f"{timing['plain_seconds'] * 1e3:.2f} ms, oriented "
                    f"{timing['oriented_seconds'] * 1e3:.2f} ms "
                    f"({timing['oriented_speedup']:.2f}x), dense_matmul "
                    f"runs {timing['dense_matmul_form']}"
                )

    payload = {
        "benchmark": "dense_products",
        "mode": "smoke" if args.smoke else "full",
        # the asserted gates are value parity (float64) and byte
        # equality (float32); timings are recorded, never asserted
        **provenance(gates_enforced=True),
        "repeats": repeats,
        "parity_bound": PARITY_BOUND,
        "cases": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return payload


if __name__ == "__main__":
    main()
