"""Unit tests for the experiment runner."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.baselines.lda import LDA
from repro.core.srda import SRDA
from repro.datasets import Dataset, make_digits, make_text
from repro.eval.experiment import (
    PAPER_MEMORY_BUDGET_BYTES,
    CellResult,
    run_experiment,
    size_label,
)


@pytest.fixture
def tiny_dataset(rng):
    X = np.vstack(
        [rng.standard_normal((30, 8)) + 3.0 * k for k in range(3)]
    )
    y = np.repeat(np.arange(3), 30)
    return Dataset(
        "tiny", X, y,
        metadata={"split_protocol": "per_class_within", "train_sizes": [5, 10]},
    )


ALGOS = {"SRDA": lambda: SRDA(alpha=1.0), "LDA": lambda: LDA()}


class TestRunExperiment:
    def test_result_structure(self, tiny_dataset):
        result = run_experiment(tiny_dataset, ALGOS, n_splits=3, seed=0)
        assert result.algorithm_names == ["SRDA", "LDA"]
        assert result.size_labels == ["5", "10"]
        assert result.n_splits == 3
        for key, cell in result.cells.items():
            assert len(cell.errors) == 3
            assert len(cell.fit_seconds) == 3
            assert not cell.failed

    def test_error_matrix_shape_and_range(self, tiny_dataset):
        result = run_experiment(tiny_dataset, ALGOS, n_splits=2, seed=0)
        errors = result.error_matrix()
        assert errors.shape == (2, 2)
        assert np.all((errors >= 0) & (errors <= 1))
        times = result.time_matrix()
        assert np.all(times > 0)

    def test_explicit_sizes_override(self, tiny_dataset):
        result = run_experiment(
            tiny_dataset, ALGOS, train_sizes=[4], n_splits=2, seed=0
        )
        assert result.size_labels == ["4"]

    def test_deterministic_given_seed(self, tiny_dataset):
        a = run_experiment(tiny_dataset, ALGOS, n_splits=2, seed=3)
        b = run_experiment(tiny_dataset, ALGOS, n_splits=2, seed=3)
        assert a.cell("SRDA", "5").errors == b.cell("SRDA", "5").errors

    def test_missing_sizes_rejected(self, rng):
        bare = Dataset(
            "bare", rng.standard_normal((10, 3)), np.arange(10) % 2,
            metadata={"split_protocol": "per_class_within"},
        )
        with pytest.raises(ValueError, match="train sizes"):
            run_experiment(bare, ALGOS, n_splits=1)

    def test_unknown_protocol_rejected(self, rng):
        bad = Dataset(
            "bad", rng.standard_normal((10, 3)), np.arange(10) % 2,
            metadata={"split_protocol": "bootstrap", "train_sizes": [2]},
        )
        with pytest.raises(ValueError, match="protocol"):
            run_experiment(bad, ALGOS, n_splits=1)

    def test_pool_protocol(self):
        d = make_digits(n_train=80, n_test=40, side=14, seed=0)
        result = run_experiment(
            d, {"SRDA": lambda: SRDA(alpha=1.0)}, train_sizes=[4],
            n_splits=2, seed=0,
        )
        cell = result.cell("SRDA", "4")
        assert len(cell.errors) == 2

    def test_ratio_protocol_labels(self):
        d = make_text(n_docs=120, vocab_size=600, n_classes=4, seed=0)
        result = run_experiment(
            d, {"SRDA": lambda: SRDA(
                alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=10
            )},
            train_sizes=[0.3], n_splits=2, seed=0,
        )
        assert result.size_labels == ["30%"]


class TestMemoryBudget:
    def test_over_budget_marked_failed(self, tiny_dataset):
        result = run_experiment(
            tiny_dataset,
            {"LDA": lambda: LDA(), "SRDA (LSQR)": lambda: SRDA(
                config=SolverConfig(solver="lsqr")
            )},
            n_splits=2,
            seed=0,
            memory_budget_bytes=100.0,  # absurdly small: everything dense fails
        )
        lda_cell = result.cell("LDA", "5")
        assert lda_cell.failed
        assert "exceeds budget" in lda_cell.failure
        assert lda_cell.errors == []

    def test_generous_budget_allows_all(self, tiny_dataset):
        result = run_experiment(
            tiny_dataset, ALGOS, n_splits=2, seed=0,
            memory_budget_bytes=PAPER_MEMORY_BUDGET_BYTES,
        )
        assert not any(cell.failed for cell in result.cells.values())

    def test_failed_cells_are_nan_in_matrices(self, tiny_dataset):
        result = run_experiment(
            tiny_dataset, {"LDA": lambda: LDA()}, n_splits=1, seed=0,
            memory_budget_bytes=100.0,
        )
        assert np.all(np.isnan(result.error_matrix()))


class _ExplodingModel:
    """Always raises during fit — failure-injection helper."""

    def fit(self, X, y):
        raise RuntimeError("synthetic failure")

    def predict(self, X):  # pragma: no cover - never reached
        raise AssertionError


class TestErrorHandling:
    def test_exception_propagates_by_default(self, tiny_dataset):
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run_experiment(
                tiny_dataset, {"boom": lambda: _ExplodingModel()},
                n_splits=1, seed=0,
            )

    def test_continue_on_error_records_failure(self, tiny_dataset):
        result = run_experiment(
            tiny_dataset,
            {"boom": lambda: _ExplodingModel(), "SRDA": lambda: SRDA()},
            n_splits=2,
            seed=0,
            continue_on_error=True,
        )
        boom = result.cell("boom", "5")
        assert boom.failed
        assert "synthetic failure" in boom.failure
        # the healthy algorithm still ran every split
        assert len(result.cell("SRDA", "5").errors) == 2

    def test_failed_algorithm_renders_as_dash(self, tiny_dataset):
        from repro.eval.tables import FAILED_CELL, format_error_table

        result = run_experiment(
            tiny_dataset, {"boom": lambda: _ExplodingModel()},
            n_splits=1, seed=0, continue_on_error=True,
        )
        assert FAILED_CELL in format_error_table(result)


class TestHelpers:
    def test_size_label(self):
        assert size_label(30) == "30"
        assert size_label(0.05) == "5%"
        assert size_label(0.5) == "50%"

    def test_cell_result_statistics(self):
        cell = CellResult(errors=[0.1, 0.2, 0.3], fit_seconds=[1.0, 2.0, 3.0])
        assert cell.mean_error == pytest.approx(0.2)
        assert cell.mean_time == pytest.approx(2.0)
        assert not cell.failed

    def test_empty_cell_is_nan(self):
        cell = CellResult()
        assert np.isnan(cell.mean_error)
        assert np.isnan(cell.mean_time)
