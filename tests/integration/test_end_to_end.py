"""Integration tests across modules: the full paper pipeline in miniature."""

import numpy as np
import pytest

from repro import IDRQR, LDA, RLDA, SRDA, SolverConfig
from repro.datasets import make_digits, make_faces, make_text
from repro.eval import figure_series, format_error_table, run_experiment


ALGOS = {
    "LDA": lambda: LDA(),
    "RLDA": lambda: RLDA(alpha=1.0),
    "SRDA": lambda: SRDA(alpha=1.0),
    "IDR/QR": lambda: IDRQR(alpha=1.0),
}


class TestMiniaturePaperPipeline:
    @pytest.fixture(scope="class")
    def face_result(self):
        dataset = make_faces(n_subjects=10, images_per_subject=30, side=32,
                             seed=11)
        return run_experiment(
            dataset, ALGOS, train_sizes=[5, 12], n_splits=3, seed=0
        )

    def test_all_cells_ran(self, face_result):
        assert not any(cell.failed for cell in face_result.cells.values())

    def test_regularized_methods_win_at_small_sample(self, face_result):
        """The paper's main qualitative claim, in miniature: with few
        training samples per class, RLDA and SRDA beat plain LDA.  (At
        this reduced scale the gap opens at 12/class; the benchmark
        suite checks the full grid.)"""
        lda_error = face_result.cell("LDA", "12").mean_error
        assert face_result.cell("SRDA", "12").mean_error < lda_error
        assert face_result.cell("RLDA", "12").mean_error < lda_error

    def test_errors_fall_with_more_data(self, face_result):
        for algo in ALGOS:
            small = face_result.cell(algo, "5").mean_error
            large = face_result.cell(algo, "12").mean_error
            assert large <= small + 0.05, algo

    def test_table_renders(self, face_result):
        table = format_error_table(face_result)
        assert "SRDA" in table and "IDR/QR" in table

    def test_figure_series_complete(self, face_result):
        series = figure_series(face_result, "time")
        assert set(series) == set(ALGOS)
        for xs, ys in series.values():
            assert len(xs) == len(ys) == 2


class TestSparseTextPipeline:
    def test_srda_runs_where_dense_methods_are_blocked(self):
        dataset = make_text(n_docs=400, vocab_size=3000, seed=4)
        budget = 2_000_000.0  # bytes — tight enough to block dense methods
        result = run_experiment(
            dataset,
            {
                "LDA": lambda: LDA(),
                "SRDA": lambda: SRDA(
                    alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15
                ),
            },
            train_sizes=[0.2],
            n_splits=2,
            seed=0,
            memory_budget_bytes=budget,
        )
        assert result.cell("LDA", "20%").failed
        srda_cell = result.cell("SRDA", "20%")
        assert not srda_cell.failed
        assert srda_cell.mean_error < 0.5

    def test_srda_never_densifies_sparse_input(self):
        """fit must not allocate an (m, n) dense array for CSR input —
        proxied by checking the solver path and that the input object is
        untouched."""
        dataset = make_text(n_docs=200, vocab_size=2000, seed=5)
        nnz_before = dataset.X.nnz
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="auto")
        ).fit(dataset.X, dataset.y)
        assert model.solver_used_ == "lsqr"
        assert dataset.X.nnz == nnz_before


class TestCrossAlgorithmConsistency:
    def test_all_methods_agree_on_easy_data(self, rng):
        centers = 10.0 * rng.standard_normal((4, 20))
        y = np.repeat(np.arange(4), 15)
        X = centers[y] + 0.3 * rng.standard_normal((60, 20))
        X_test = centers[y] + 0.3 * rng.standard_normal((60, 20))
        for name, factory in ALGOS.items():
            model = factory().fit(X, y)
            assert model.score(X_test, y) == 1.0, name

    def test_embeddings_have_equivalent_class_separation(self, rng):
        """On well-separated data every method's embedding groups classes:
        within-class distances ≪ between-class distances."""
        centers = 8.0 * rng.standard_normal((3, 15))
        y = np.repeat(np.arange(3), 20)
        X = centers[y] + 0.5 * rng.standard_normal((60, 15))
        for name, factory in ALGOS.items():
            Z = factory().fit(X, y).transform(X)
            within = np.mean(
                [np.std(Z[y == k], axis=0).mean() for k in range(3)]
            )
            centroids = np.vstack([Z[y == k].mean(axis=0) for k in range(3)])
            between = np.linalg.norm(
                centroids[:, None] - centroids[None, :], axis=-1
            ).max()
            assert between > 5 * within, name


class TestDigitsPoolProtocol:
    def test_fixed_test_pool_used(self):
        dataset = make_digits(n_train=150, n_test=100, side=14, seed=6)
        result = run_experiment(
            dataset, {"SRDA": lambda: SRDA(alpha=1.0)},
            train_sizes=[5], n_splits=2, seed=1,
        )
        cell = result.cell("SRDA", "5")
        assert len(cell.errors) == 2
        assert all(0 <= e <= 1 for e in cell.errors)
