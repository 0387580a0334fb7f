"""Ablation A1 — the two SRDA solvers (Section III-C.1 vs III-C.2).

DESIGN.md calls out the solver choice as the central design decision:
normal equations (exact, cubic factor in t) versus LSQR (iterative,
linear).  We verify the two produce interchangeable models on dense data
and measure where the wall-clock crossover falls as dimensionality
grows.
"""

import time

import numpy as np

from benchmarks._harness import once
from benchmarks.conftest import record_report
from repro import SRDA, SolverConfig
from repro.eval.metrics import error_rate


def make_problem(m, n, c, rng):
    centers = 2.0 * rng.standard_normal((c, n))
    y = np.arange(m) % c
    X = centers[y] + rng.standard_normal((m, n))
    return X, y


def test_solver_agreement_and_crossover(benchmark):
    rng = np.random.default_rng(61)

    def run():
        lines = [
            "Ablation A1 — SRDA solver comparison (alpha=1, 20 LSQR iters)",
            f"{'m':>6} {'n':>6} {'normal (s)':>12} {'lsqr (s)':>12} "
            f"{'emb. diff':>10} {'pred agree':>11}",
            "-" * 62,
        ]
        rows = []
        # the normal path's cubic factor bites only when BOTH dimensions
        # are large (the dual trick caps the system at min(m, n)); the
        # sweep holds m fixed and widens n to traverse the crossover
        for m, n in [(2000, 100), (2000, 500), (2000, 1000), (2000, 2000)]:
            X, y = make_problem(m, n, 8, rng)
            t0 = time.perf_counter()
            normal = SRDA(
                alpha=1.0, config=SolverConfig(solver="normal")
            ).fit(X, y)
            normal_time = time.perf_counter() - t0
            t0 = time.perf_counter()
            iterative = SRDA(
                alpha=1.0,
                config=SolverConfig(solver="lsqr"),
                max_iter=20,
                tol=0.0,
            ).fit(X, y)
            lsqr_time = time.perf_counter() - t0
            Z_normal = normal.transform(X)
            Z_lsqr = iterative.transform(X)
            diff = np.linalg.norm(Z_normal - Z_lsqr) / np.linalg.norm(Z_normal)
            agree = float(
                np.mean(normal.predict(X) == iterative.predict(X))
            )
            lines.append(
                f"{m:>6} {n:>6} {normal_time:>12.3f} {lsqr_time:>12.3f} "
                f"{diff:>10.2e} {agree:>11.3f}"
            )
            rows.append((m, n, normal_time, lsqr_time, diff, agree))
        return "\n".join(lines), rows

    text, rows = once(benchmark, run)
    record_report("ablation_solvers", text)

    for m, n, normal_time, lsqr_time, diff, agree in rows:
        # 20 iterations give an interchangeable model
        assert diff < 0.05, (m, n, diff)
        assert agree > 0.97, (m, n, agree)

    # crossover: LSQR must win by the widest problem (its cost is linear
    # in n; the normal path pays the m×m dual factor + dense gram)
    last = rows[-1]
    assert last[3] < last[2], last
