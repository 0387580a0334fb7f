"""Incremental updates and model selection.

Run with::

    python examples/incremental_and_selection.py

Two production concerns the core paper leaves to its companion work:

1. **Warm-started refits** — when documents arrive in batches, SRDA's
   LSQR path restarts from the previous projection vectors and converges
   in a handful of iterations (the workload IDR/QR's "incremental" is
   aimed at).
2. **Choosing α** — Figure 5 shows how much α matters varies by
   dataset (nearly flat on faces, rising on text);
   :func:`grid_search_alpha` measures the curve on your data and picks
   the minimizer.
3. **Semi-supervised SRDA** — with a handful of labels, the blended
   graph exploits unlabeled structure.
"""

import numpy as np

from repro import SRDA, SemiSupervisedSRDA, SolverConfig
from repro.datasets import make_text, ratio_split
from repro.eval import grid_search_alpha
from repro.eval.metrics import error_rate


def main() -> None:
    rng = np.random.default_rng(17)

    # ------------------------------------------------------------------
    # 1. warm-started incremental refits
    # ------------------------------------------------------------------
    corpus = make_text(n_docs=4000, vocab_size=26214, seed=17)
    batches = [3000, 3300, 3600, 4000]

    model = SRDA(
        alpha=1.0,
        config=SolverConfig(solver="lsqr"),
        max_iter=200,
        tol=1e-6,
        warm_start=True,
    )
    print("incremental corpus growth (LSQR iterations per refit):")
    for size in batches:
        X, y = corpus.subset(np.arange(size))
        model.fit(X, y)
        print(f"  {size:>5} docs: {sum(model.lsqr_iterations_):>4} "
              "total iterations")
    cold = SRDA(
        alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=200, tol=1e-6
    )
    cold.fit(*corpus.subset(np.arange(batches[-1])))
    print(f"  cold refit at {batches[-1]} docs: "
          f"{sum(cold.lsqr_iterations_):>4} total iterations")

    # ------------------------------------------------------------------
    # 2. alpha selection (and the Figure-5 flatness check)
    # ------------------------------------------------------------------
    train_idx, test_idx = ratio_split(corpus.y, 0.3, rng)
    X_train, y_train = corpus.subset(train_idx)
    X_test, y_test = corpus.subset(test_idx)
    result = grid_search_alpha(
        lambda a: SRDA(
            alpha=a, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
        ),
        X_train, y_train, n_splits=3, seed=17,
    )
    print("\nalpha grid search (validation error per alpha):")
    for alpha, err in zip(result.alphas, result.mean_errors):
        print(f"  alpha = {alpha:8.3f}: {100 * err:5.1f}%")
    print(f"best alpha {result.best_alpha:.3f}; "
          f"flatness (max - min) {100 * result.flatness():.1f} points")
    best = SRDA(
        alpha=result.best_alpha,
        config=SolverConfig(solver="lsqr"),
        max_iter=15,
        tol=0.0,
    ).fit(X_train, y_train)
    print(f"test error at best alpha: "
          f"{100 * error_rate(y_test, best.predict(X_test)):.1f}%")

    # ------------------------------------------------------------------
    # 3. semi-supervised SRDA with 3 labels per class
    # ------------------------------------------------------------------
    rng2 = np.random.default_rng(18)
    centers = 5.0 * rng2.standard_normal((4, 15))
    y_full = np.repeat(np.arange(4), 40)
    X_full = centers[y_full] + 2.8 * rng2.standard_normal((160, 15))
    partial = np.full(160, -1, dtype=np.int64)
    for k in range(4):
        members = np.flatnonzero(y_full == k)
        partial[rng2.permutation(members)[:2]] = k

    labeled = partial != -1
    semi = SemiSupervisedSRDA(alpha=1.0, n_neighbors=7).fit(X_full, partial)
    tiny = SRDA(alpha=1.0).fit(X_full[labeled], y_full[labeled])
    print("\nsemi-supervised SRDA (2 labels/class, 152 unlabeled):")
    print(f"  supervised-only accuracy:  {tiny.score(X_full, y_full):.3f}")
    print(f"  semi-supervised accuracy:  {semi.score(X_full, y_full):.3f}")


if __name__ == "__main__":
    main()
