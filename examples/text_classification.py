"""Sparse text classification — the paper's headline use case.

Run with::

    python examples/text_classification.py

Builds a 20Newsgroups-like sparse corpus (never densified), trains SRDA
through the LSQR path with the paper's settings (α = 1, 15 iterations),
and shows why the dense alternatives cannot scale: the predicted memory
of classic LDA on the same data versus what SRDA actually touches.
"""

import time

import numpy as np

from repro import SRDA, SolverConfig
from repro.complexity import lda_memory, srda_lsqr_memory
from repro.datasets import make_text, ratio_split
from repro.eval.metrics import error_rate


def main() -> None:
    rng = np.random.default_rng(3)

    # a mid-size corpus: 6,000 documents over the full 26,214-term vocabulary
    dataset = make_text(n_docs=6000, vocab_size=26214, seed=3)
    X, y = dataset.X, dataset.y
    s = X.mean_nnz_per_row()
    print(f"corpus: {X.shape[0]} docs x {X.shape[1]} terms, "
          f"avg {s:.0f} distinct terms/doc "
          f"(density {X.nnz / (X.shape[0] * X.shape[1]):.4%})")

    # the paper's protocol: a stratified fraction of each class trains
    train_idx, test_idx = ratio_split(y, train_ratio=0.3, rng=rng)
    X_train, y_train = dataset.subset(train_idx)
    X_test, y_test = dataset.subset(test_idx)

    # SRDA with LSQR — the linear-time path; 15 iterations as in Table X
    model = SRDA(
        alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
    )
    start = time.perf_counter()
    model.fit(X_train, y_train)
    fit_seconds = time.perf_counter() - start

    error = error_rate(y_test, model.predict(X_test))
    print(f"SRDA (LSQR, 15 iters): error {100 * error:.1f}%, "
          f"fit {fit_seconds:.2f}s")
    print(f"LSQR iterations per response: {model.lsqr_iterations_[:5]}...")

    # why the dense baselines cannot follow (Table I memory model):
    m, n, c = X_train.shape[0], X_train.shape[1], dataset.n_classes
    lda_gb = lda_memory(m, n, c) * 8 / 1e9
    srda_mb = srda_lsqr_memory(m, n, c, s=s) * 8 / 1e6
    print(f"predicted LDA working set:  {lda_gb:.2f} GB "
          "(dense SVD factors of the centered matrix)")
    print(f"predicted SRDA working set: {srda_mb:.1f} MB "
          "(the sparse matrix plus a few vectors)")

    # scaling: double the training documents, time roughly doubles
    bigger = make_text(n_docs=12000, vocab_size=26214, seed=4)
    train_idx, _ = ratio_split(bigger.y, train_ratio=0.3, rng=rng)
    Xb, yb = bigger.subset(train_idx)
    start = time.perf_counter()
    SRDA(
        alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
    ).fit(Xb, yb)
    doubled = time.perf_counter() - start
    print(f"2x documents -> fit time {fit_seconds:.2f}s -> {doubled:.2f}s "
          f"({doubled / fit_seconds:.1f}x; linear time predicts ~2x)")


if __name__ == "__main__":
    main()
