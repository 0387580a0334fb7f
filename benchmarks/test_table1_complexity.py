"""Table I — the complexity model, analytic and empirical.

Regenerates the operation-count and memory table for the paper's dataset
shapes and validates the model's claims: maximum normal-equations speedup
of 9 at ``m = n``, cubic LDA vs linear SRDA-LSQR, and the exact match
between the model's LSQR cost and an instrumented run.
"""

import numpy as np

from benchmarks._harness import once
from benchmarks.conftest import record_report
from repro.complexity import (
    FlamCountingOperator,
    lda_flam,
    lda_memory,
    max_normal_speedup,
    srda_lsqr_flam,
    srda_lsqr_memory,
    srda_normal_flam,
    srda_normal_memory,
    table1,
)
from repro.linalg.block_lsqr import block_lsqr
from repro.linalg.operators import as_operator

# Table II shapes: (name, m, n, c, s or None) — m is the full dataset.
SHAPES = [
    ("PIE", 11560, 1024, 68, None),
    ("Isolet", 6237, 617, 26, None),
    ("MNIST", 4000, 784, 10, None),
    ("20Newsgroups", 18941, 26214, 20, 90.0),
]


def render_table1() -> str:
    lines = [
        "Table I — predicted flam / memory (floats) per Table-II shape",
        f"{'dataset':14} {'algorithm':26} {'flam':>14} {'memory':>14}",
        "-" * 72,
    ]
    for name, m, n, c, s in SHAPES:
        rows = table1(m, n, c, k=20, s=s)
        for algo, row in rows.items():
            lines.append(
                f"{name:14} {algo:26} {row['flam']:14.3e} {row['memory']:14.3e}"
            )
    lines.append("")
    lines.append(
        f"max speedup of SRDA(normal) over LDA at m = n: "
        f"{max_normal_speedup():.2f} (paper: 9)"
    )
    return "\n".join(lines)


def test_table1_model(benchmark):
    text = once(benchmark, render_table1)
    record_report("table1_complexity", text)

    # claim: maximum speedup 9 at m = n
    assert max_normal_speedup() == 9.0

    # claim: SRDA-NE beats LDA on every Table-II shape
    for _, m, n, c, _ in SHAPES:
        assert srda_normal_flam(m, n, c) < lda_flam(m, n, c)

    # claim: only sparse SRDA-LSQR fits 20NG in 2 GB
    m, n, c, s = 18941, 26214, 20, 90.0
    budget = 2 * 1024**3 / 8  # floats
    assert lda_memory(m, n, c) > budget
    assert srda_lsqr_memory(m, n, c, s=s) < budget / 100


def test_empirical_lsqr_cost_matches_model(benchmark, rng=None):
    """An instrumented LSQR run must hit the model's data-touching term
    exactly: 2·nnz per iteration plus one setup product."""
    rng = np.random.default_rng(7)
    m, n, iters = 400, 150, 15

    def run():
        op = FlamCountingOperator(as_operator(rng.standard_normal((m, n))))
        result = block_lsqr(op, rng.standard_normal(m), iter_lim=iters,
                            atol=0, btol=0).column(0)
        return op, result

    op, result = once(benchmark, run)
    assert op.flam == (2 * result.itn + 1) * m * n
    predicted = srda_lsqr_flam(m, n, 2, k=result.itn)
    data_term = result.itn * 2 * m * n
    # the model's per-response data term matches what the counter saw
    assert abs(predicted - (data_term + result.itn * (3 * m + 5 * n)
                            + m * 4)) < 1e-6


def test_model_scaling_exponents(benchmark):
    """Cubic LDA vs linear SRDA-LSQR, measured on the model itself."""
    from repro.complexity import loglog_slope

    def slopes():
        ts = np.array([500, 1000, 2000, 4000])
        lda = [lda_flam(t, t, 10) for t in ts]
        lsqr_m = [srda_lsqr_flam(int(t), 800, 10, k=20) for t in ts]
        lsqr_n = [srda_lsqr_flam(800, int(t), 10, k=20) for t in ts]
        return (
            loglog_slope(ts, lda),
            loglog_slope(ts, lsqr_m),
            loglog_slope(ts, lsqr_n),
        )

    lda_slope, lsqr_m_slope, lsqr_n_slope = once(benchmark, slopes)
    assert lda_slope > 2.5
    assert 0.9 < lsqr_m_slope < 1.1
    assert 0.5 < lsqr_n_slope <= 1.05
