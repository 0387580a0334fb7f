"""Scaling study — measure the linear-time claim on your own machine.

Run with::

    python examples/scaling_study.py

Times SRDA-LSQR against growing corpora and classic LDA against growing
square problems, fits log-log slopes, and prints them next to the
Table-I model's predictions.
"""

import time

import numpy as np

from repro import LDA, SRDA, SolverConfig
from repro.complexity import (
    lda_flam,
    loglog_slope,
    srda_lsqr_flam,
)
from repro.datasets import make_text


def main() -> None:
    # ------------------------------------------------------------------
    # SRDA-LSQR vs corpus size
    # ------------------------------------------------------------------
    base = make_text(n_docs=12000, vocab_size=26214, seed=9)
    sizes = [1500, 3000, 6000, 12000]
    times = []
    print("SRDA (LSQR, 15 iters) on sparse text:")
    for m in sizes:
        X, y = base.subset(np.arange(m))
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
        )
        start = time.perf_counter()
        model.fit(X, y)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        print(f"  m = {m:>6}: {elapsed:6.2f} s")
    slope = loglog_slope(sizes, times)
    model_slope = loglog_slope(
        sizes, [srda_lsqr_flam(m, 26214, 20, k=15, s=90) for m in sizes]
    )
    print(f"  measured slope {slope:.2f} vs model {model_slope:.2f} "
          "(1.0 = linear)")

    # ------------------------------------------------------------------
    # LDA vs problem size (square, dense)
    # ------------------------------------------------------------------
    rng = np.random.default_rng(10)
    sizes = [512, 1024, 2048]
    times = []
    print("\nclassic LDA on dense square problems:")
    # warm up BLAS/allocator so the first measurement isn't inflated
    warm_y = np.arange(128) % 10
    LDA().fit(rng.standard_normal((128, 128)), warm_y)
    for t in sizes:
        y = np.arange(t) % 10
        X = rng.standard_normal((t, t)) + rng.standard_normal((10, t))[y]
        start = time.perf_counter()
        LDA().fit(X, y)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        print(f"  t = {t:>5}: {elapsed:6.2f} s")
    slope = loglog_slope(sizes, times)
    model_slope = loglog_slope(sizes, [lda_flam(t, t, 10) for t in sizes])
    print(f"  measured slope {slope:.2f} vs model {model_slope:.2f} "
          "(cubic term pushes this toward 3)")


if __name__ == "__main__":
    main()
