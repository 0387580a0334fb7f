"""Ablation A3 — exploiting sparsity (CSR operators vs densified data).

Section III-C's closing point: SRDA-LSQR "can fully explore the
sparseness of the data matrix".  Same data, same solver, two storage
layouts: the CSR path must (a) produce the same model and (b) win on
time by a factor that grows with 1/density.
"""

import time

import numpy as np

from benchmarks._harness import once
from benchmarks.conftest import record_report
from repro import SRDA, SolverConfig
from repro.datasets import make_text
from repro.linalg import kernels


def test_sparse_vs_densified(benchmark):
    dataset = make_text(n_docs=3000, vocab_size=26214, seed=63)
    X_sparse = dataset.X
    y = dataset.y
    density = X_sparse.nnz / (X_sparse.shape[0] * X_sparse.shape[1])

    def run():
        t0 = time.perf_counter()
        sparse_model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
        ).fit(X_sparse, y)
        sparse_time = time.perf_counter() - t0

        X_dense = X_sparse.to_dense()
        t0 = time.perf_counter()
        dense_model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=15,
            tol=0.0,
            centering=False,
        ).fit(X_dense, y)
        dense_time = time.perf_counter() - t0
        return sparse_model, dense_model, sparse_time, dense_time

    sparse_model, dense_model, sparse_time, dense_time = once(benchmark, run)

    record_report(
        "ablation_sparsity",
        "\n".join(
            [
                "Ablation A3 — SRDA-LSQR on CSR vs densified data "
                f"(m=3000, n=26214, density={density:.4f})",
                f"sparse (CSR) fit time:   {sparse_time:8.2f} s",
                f"densified fit time:      {dense_time:8.2f} s",
                f"speedup:                 {dense_time / sparse_time:8.1f}x",
                f"memory ratio (model):    {1 / density:8.0f}x",
                f"CSR kernel backend:      {kernels.active_backend():>8}",
            ]
        ),
    )

    # same model from both storage layouts.  Raw weights are compared
    # loosely (Krylov iterates amplify accumulation-order rounding on
    # ill-conditioned directions before convergence); the embedding and
    # the predictions — what the model *is* — must agree tightly.
    Z_sparse = sparse_model.transform(X_sparse)
    Z_dense = dense_model.transform(X_sparse.to_dense())
    rel = np.linalg.norm(Z_sparse - Z_dense) / np.linalg.norm(Z_dense)
    assert rel < 1e-2, rel
    agreement = np.mean(
        sparse_model.predict(X_sparse) == dense_model.predict(X_sparse.to_dense())
    )
    assert agreement > 0.995, agreement
    # the sparse path wins big (density < 1%, ask for ≥ 5x to be safe).
    # The margin needs the compiled CSR kernels: on the numpy reference
    # kernels the ratio reads about 3x on this case.
    assert dense_time > 5.0 * sparse_time, (dense_time, sparse_time)
