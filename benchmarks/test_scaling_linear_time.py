"""Ablation A4 — the title claim: training in linear time.

Measures wall-clock fit time as the problem grows and fits log–log
slopes: SRDA-LSQR must scale ~linearly in the number of samples (and in
the number of features at fixed nnz per row), while LDA's slope against
t = min(m, n) on square problems reflects its cubic term.
"""

import time

import numpy as np

from benchmarks._harness import once
from benchmarks.conftest import record_report
from repro import LDA, SRDA, SolverConfig
from repro.complexity import loglog_slope
from repro.datasets import make_text
from repro.linalg.sparse import CSRMatrix


def timed_fit(model, X, y, repeats=1):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        model.fit(X, y)
        best = min(best, time.perf_counter() - start)
    return best


def test_srda_lsqr_linear_in_samples(benchmark):
    base = make_text(n_docs=16000, vocab_size=26214, seed=64)

    def run():
        sizes = [2000, 4000, 8000, 16000]
        times = []
        for m in sizes:
            idx = np.arange(m)
            X, y = base.subset(idx)
            model = SRDA(
                alpha=1.0,
                config=SolverConfig(solver="lsqr"),
                max_iter=15,
                tol=0.0,
            )
            times.append(timed_fit(model, X, y, repeats=2))
        return sizes, times

    sizes, times = once(benchmark, run)
    slope = loglog_slope(sizes, times)
    record_report(
        "scaling_srda_vs_m",
        "\n".join(
            ["Scaling — SRDA-LSQR fit time vs number of documents"]
            + [f"  m={m:>6}: {t:8.3f} s" for m, t in zip(sizes, times)]
            + [f"log-log slope: {slope:.2f} (linear time → 1.0)"]
        ),
    )
    assert slope < 1.4, (slope, times)


def test_srda_lsqr_subquadratic_in_features(benchmark):
    """With nnz per row fixed, growing the vocabulary must cost far less
    than linearly in n·m (the 5n vector term is all that grows)."""
    rng = np.random.default_rng(65)

    def run():
        m, s, c = 3000, 80, 10
        y = np.arange(m) % c
        vocab_sizes = [8000, 16000, 32000, 64000]
        times = []
        for n in vocab_sizes:
            rows = []
            for i in range(m):
                cols = rng.choice(n, s, replace=False)
                vals = rng.random(s) + (y[i] == cols % c)
                rows.append((cols, vals))
            X = CSRMatrix.from_rows(rows, n)
            model = SRDA(
                alpha=1.0,
                config=SolverConfig(solver="lsqr"),
                max_iter=15,
                tol=0.0,
            )
            times.append(timed_fit(model, X, y))
        return vocab_sizes, times

    vocab_sizes, times = once(benchmark, run)
    slope = loglog_slope(vocab_sizes, times)
    record_report(
        "scaling_srda_vs_n",
        "\n".join(
            ["Scaling — SRDA-LSQR fit time vs vocabulary size (fixed nnz)"]
            + [f"  n={n:>6}: {t:8.3f} s" for n, t in zip(vocab_sizes, times)]
            + [f"log-log slope: {slope:.2f} (sub-linear expected)"]
        ),
    )
    assert slope < 0.8, (slope, times)


def test_lda_superlinear_in_t(benchmark):
    rng = np.random.default_rng(66)

    def run():
        sizes = [256, 512, 1024, 2048]
        times = []
        for t in sizes:
            y = np.arange(t) % 8
            X = rng.standard_normal((t, t)) + rng.standard_normal((8, t))[y]
            times.append(timed_fit(LDA(), X, y))
        return sizes, times

    sizes, times = once(benchmark, run)
    slope = loglog_slope(sizes, times)
    record_report(
        "scaling_lda_vs_t",
        "\n".join(
            ["Scaling — LDA fit time vs t = m = n (square problems)"]
            + [f"  t={t:>5}: {s:8.3f} s" for t, s in zip(sizes, times)]
            + [f"log-log slope: {slope:.2f} (cubic term → approaches 3)"]
        ),
    )
    assert slope > 1.7, (slope, times)
