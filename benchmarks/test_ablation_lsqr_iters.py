"""Ablation A2 — LSQR iteration count.

Section III-C.2: "LSQR converges very fast ... 20 iterations are
enough"; the 20Newsgroups experiments fix 15.  The claim is about the
sparse text workload (the only one the paper runs LSQR on), so we sweep
k there: classification error and distance to the exact ridge solution
must flatten by k ≈ 15.

A second panel repeats the sweep on the dense PIE-like faces: the same
budget suffices there too (the error settles by k ≈ 12 even before the
numerical solution fully converges), confirming "20 iterations are
enough" across both workload types.
"""

import numpy as np

from benchmarks._harness import once
from benchmarks.conftest import N_SPLITS, record_report
from repro import SRDA, SolverConfig
from repro.datasets import make_text
from repro.datasets.splits import per_class_split, ratio_split, split_seeds
from repro.eval.metrics import error_rate

ITERATION_GRID = [1, 2, 3, 5, 8, 12, 15, 20, 30]


def sweep(dataset, split_fn, exact_factory, sparse, seed):
    errors = np.zeros(len(ITERATION_GRID))
    gaps = np.zeros(len(ITERATION_GRID))
    runs = 0
    for split_seed in split_seeds(seed, max(2, N_SPLITS - 1)):
        rng = np.random.default_rng(int(split_seed))
        train_idx, test_idx = split_fn(rng)
        X_train, y_train = dataset.subset(train_idx)
        X_test, y_test = dataset.subset(test_idx)
        exact = exact_factory().fit(
            X_train.to_dense() if sparse else X_train, y_train
        )
        exact_norm = np.linalg.norm(exact.components_)
        for i, k in enumerate(ITERATION_GRID):
            model = SRDA(
                alpha=1.0,
                config=SolverConfig(solver="lsqr"),
                max_iter=k,
                tol=0.0,
                centering=False if sparse else "auto",
            ).fit(X_train, y_train)
            errors[i] += error_rate(y_test, model.predict(X_test))
            gaps[i] += (
                np.linalg.norm(model.components_ - exact.components_)
                / exact_norm
            )
        runs += 1
    return errors / runs, gaps / runs


def render(title, errors, gaps):
    lines = [
        title,
        f"{'k':>4} {'error (%)':>10} {'rel. gap to exact':>18}",
        "-" * 36,
    ]
    for k, err, gap in zip(ITERATION_GRID, errors, gaps):
        lines.append(f"{k:>4} {100 * err:>10.2f} {gap:>18.2e}")
    return "\n".join(lines)


def test_iterations_on_sparse_text(benchmark):
    dataset = make_text(n_docs=6000, vocab_size=26214, seed=71)

    def run():
        return sweep(
            dataset,
            lambda rng: ratio_split(dataset.y, 0.05, rng),
            lambda: SRDA(
                alpha=1.0,
                config=SolverConfig(solver="normal"),
                centering=False,
            ),
            sparse=True,
            seed=72,
        )

    errors, gaps = once(benchmark, run)
    record_report(
        "ablation_lsqr_iters_text",
        render(
            "Ablation A2 — SRDA vs LSQR iterations on 20NG-like text "
            "(5% train; the workload the paper's '15 iterations' targets)",
            errors,
            gaps,
        ),
    )
    # the paper's claim: converged for practical purposes by k = 15
    k15 = ITERATION_GRID.index(15)
    k30 = ITERATION_GRID.index(30)
    assert gaps[k15] < 0.05, gaps
    assert abs(errors[k15] - errors[k30]) < 0.01, errors
    # and far from converged at k = 1 (the sweep is informative)
    assert gaps[0] > 0.2


def test_iterations_on_dense_faces(benchmark, pie_dataset):
    def run():
        return sweep(
            pie_dataset,
            lambda rng: per_class_split(pie_dataset.y, 10, rng),
            lambda: SRDA(alpha=1.0, config=SolverConfig(solver="normal")),
            sparse=False,
            seed=73,
        )

    errors, gaps = once(benchmark, run)
    record_report(
        "ablation_lsqr_iters_faces",
        render(
            "Ablation A2b — the dense panel (PIE-like, 10 train/class): "
            "the same 15-20 iteration budget suffices on dense pixels",
            errors,
            gaps,
        ),
    )
    # the error settles before the numerical solution fully converges
    k12 = ITERATION_GRID.index(12)
    assert abs(errors[k12] - errors[-1]) < 0.08, errors
    # and by k = 20 the solution is close to the exact ridge answer
    k20 = ITERATION_GRID.index(20)
    assert gaps[k20] < 0.05, gaps
    assert gaps[0] > 0.5  # while k = 1 is nowhere near
