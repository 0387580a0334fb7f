"""Extension E1 — sparse projective functions (the framework's ref [15]).

Not a paper artifact, but the design choice DESIGN.md highlights: the
regression step is swappable.  This benchmark trades ℓ1 strength against
accuracy on the text workload and reports how few terms per discriminant
direction suffice — the interpretability story of sparse subspace
learning.
"""

import numpy as np

from benchmarks._harness import once
from benchmarks.conftest import record_report
from repro import SRDA, SolverConfig, SparseSRDA
from repro.datasets import make_text, ratio_split
from repro.eval.metrics import error_rate

L1_GRID = [0.0003, 0.001, 0.003, 0.01, 0.03]


def test_sparsity_accuracy_tradeoff(benchmark):
    dataset = make_text(n_docs=3000, vocab_size=8000, seed=81)
    rng = np.random.default_rng(81)
    train_idx, test_idx = ratio_split(dataset.y, 0.2, rng)
    X_train, y_train = dataset.subset(train_idx)
    X_test, y_test = dataset.subset(test_idx)

    def run():
        rows = []
        dense_model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
        ).fit(X_train, y_train)
        dense_error = error_rate(y_test, dense_model.predict(X_test))
        for alpha in L1_GRID:
            model = SparseSRDA(alpha=alpha, l1_ratio=1.0, max_iter=200,
                               tol=1e-5).fit(X_train, y_train)
            error = error_rate(y_test, model.predict(X_test))
            nonzero_per_direction = np.count_nonzero(
                model.components_, axis=0
            ).mean()
            rows.append((alpha, error, model.sparsity_,
                         nonzero_per_direction))
        return dense_error, rows

    dense_error, rows = once(benchmark, run)

    lines = [
        "Extension E1 — sparse SRDA on 20NG-like text "
        f"(8000 terms; dense SRDA error {100 * dense_error:.1f}%)",
        f"{'l1 alpha':>10} {'error (%)':>10} {'sparsity':>9} "
        f"{'terms/direction':>16}",
        "-" * 50,
    ]
    for alpha, error, sparsity, nnz in rows:
        lines.append(
            f"{alpha:>10.4f} {100 * error:>10.1f} {sparsity:>9.3f} "
            f"{nnz:>16.0f}"
        )
    record_report("extension_sparse_projections", "\n".join(lines))

    errors = np.array([row[1] for row in rows])
    sparsities = np.array([row[2] for row in rows])
    # sparsity increases along the grid
    assert np.all(np.diff(sparsities) >= -1e-9), sparsities
    # a usefully sparse model (≥ 70% zeros) stays within 10 points of
    # the dense SRDA error — the interpretability trade-off is cheap
    usable = errors[sparsities >= 0.7]
    assert usable.size > 0
    assert usable.min() <= dense_error + 0.10, (usable.min(), dense_error)
    # and the extreme end actually is sparse
    assert sparsities[-1] > 0.9
