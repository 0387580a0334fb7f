"""End-to-end instrumentation: estimators, solvers, cache, experiments."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import SRDA, KernelSRDA, srda_alpha_path, SolverConfig
from repro.datasets.base import Dataset
from repro.datasets.cache import cached
from repro.eval.experiment import (
    CellResult,
    _checkpoint_signature,
    _load_checkpoint,
    _write_checkpoint,
    run_experiment,
)
from repro.observability import (
    InMemorySink,
    JsonlSink,
    configure,
    get_tracer,
    validate_trace_file,
    validate_trace_lines,
)
from repro.robustness import guarded_solve

SRDA_PHASES = ("srda.validate", "srda.responses", "srda.solve", "srda.embed")


def span_names(sink):
    return [record["name"] for record in sink.spans]


class TestSRDATracing:
    def test_untraced_fit_records_nothing(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=1.0).fit(X, y)
        assert model.tracer_ is None

    def test_traced_fit_emits_nested_phases(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=1.0, trace=True).fit(X, y)
        sink = model.tracer_.sink
        names = span_names(sink)
        for phase in SRDA_PHASES:
            assert phase in names
        fit_record = sink.find("srda.fit")[0]
        assert names[-1] == "srda.fit"  # root closes (and emits) last
        assert fit_record["parent_id"] is None
        assert fit_record["attributes"]["alpha"] == 1.0
        assert fit_record["attributes"]["solver_used"] == model.solver_used_
        assert fit_record["attributes"]["shape"] == [60, 10]
        for phase in ("srda.validate", "srda.responses", "srda.embed"):
            assert sink.find(phase)[0]["parent_id"] == fit_record["span_id"]
        solve = sink.find("srda.solve")[0]
        assert solve["parent_id"] == fit_record["span_id"]
        assert solve["attributes"]["solver"] == model.solver_used_

    def test_normal_path_nests_guarded_solve(self, small_classification):
        X, y = small_classification
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="normal"), trace=True
        ).fit(X, y)
        sink = model.tracer_.sink
        guarded = sink.find("guarded_solve")
        assert guarded, "guarded_solve should join the estimator trace"
        solve = sink.find("srda.solve")[0]
        assert guarded[0]["parent_id"] == solve["span_id"]
        assert guarded[0]["attributes"]["solver"] == "cholesky"

    def test_block_lsqr_event_count_matches_iterations(
        self, small_classification
    ):
        X, y = small_classification
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=12,
            tol=1e-8,
            trace=True,
        ).fit(X, y)
        events = model.tracer_.sink.find("srda.solve")[0]["events"]
        iteration_events = [
            e for e in events if e["name"] == "block_lsqr.iteration"
        ]
        assert len(iteration_events) == max(model.lsqr_iterations_)

    def test_sequential_lsqr_event_count_matches_iterations(
        self, small_classification, monkeypatch
    ):
        # A solver swapped in for the regression stage's block_lsqr gets
        # the tracer's hook: here one one-column solve per response, so
        # one block_lsqr.iteration event per column iteration.
        from repro.core import srda as srda_module
        from repro.linalg.block_lsqr import block_lsqr

        def per_column(A, B, **kwargs):
            columns = [
                block_lsqr(A, B[:, j], **kwargs).column(0)
                for j in range(B.shape[1])
            ]
            return SimpleNamespace(
                X=np.column_stack([column.x for column in columns]),
                column=columns.__getitem__,
            )

        monkeypatch.setattr(srda_module, "block_lsqr", per_column)
        X, y = small_classification
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=12,
            tol=1e-8,
            trace=True,
        ).fit(X, y)
        events = model.tracer_.sink.find("srda.solve")[0]["events"]
        iteration_events = [
            e for e in events if e["name"] == "block_lsqr.iteration"
        ]
        assert len(model.lsqr_iterations_) > 1
        assert len(iteration_events) == sum(model.lsqr_iterations_)

    def test_lsqr_path_counts_flam(self, small_classification):
        X, y = small_classification
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), trace=True
        ).fit(X, y)
        counter = model.tracer_.metrics.get_counter("srda.flam")
        assert counter is not None and counter.value > 0

    def test_tracing_does_not_change_the_fit(self, small_classification):
        X, y = small_classification
        for solver in ("normal", "lsqr"):
            plain = SRDA(
                alpha=1.0, config=SolverConfig(solver=solver)
            ).fit(X, y)
            traced = SRDA(
                alpha=1.0, config=SolverConfig(solver=solver), trace=True
            ).fit(X, y)
            np.testing.assert_allclose(
                plain.components_, traced.components_
            )

    def test_sparse_traced_fit(self, sparse_classification):
        X_sparse, _, y = sparse_classification
        model = SRDA(alpha=1.0, trace=True).fit(X_sparse, y)
        sink = model.tracer_.sink
        assert "srda.fit" in span_names(sink)
        assert sink.find("srda.solve")[0]["attributes"]["solver"] == "lsqr"

    def test_jsonl_trace_validates(self, small_classification, tmp_path):
        X, y = small_classification
        path = tmp_path / "fit.jsonl"
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            trace=JsonlSink(path),
        )
        model.fit(X, y)
        model.tracer_.close()  # final metrics snapshot + file close
        assert validate_trace_file(path) == []
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert any(r["type"] == "metrics" for r in records)
        solve = next(r for r in records if r["name"] == "srda.solve")
        assert any(
            e["name"].endswith(".iteration") for e in solve["events"]
        )

    def test_validate_operators_runs_contract_check(
        self, small_classification
    ):
        X, y = small_classification
        for solver in ("normal", "lsqr"):
            model = SRDA(
                alpha=1.0,
                config=SolverConfig(solver=solver),
                validate_operators=True,
                trace=True,
            ).fit(X, y)
            checks = model.tracer_.sink.find("srda.contract_check")
            assert checks, f"no contract-check span on the {solver} path"
            attributes = checks[0]["attributes"]
            assert attributes["ok"] is True
            assert attributes["checks"] > 0


    @pytest.mark.parametrize(
        "centering, operator",
        [("auto", "CenteringOperator"), (False, "AppendOnesOperator")],
    )
    def test_normal_path_checks_the_implicit_operator(
        self, small_classification, centering, operator
    ):
        # the normal path forms no X̄ or [X 1]; it checks the operator
        # those matrices stand for
        X, y = small_classification
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="normal"),
            centering=centering,
            validate_operators=True,
            trace=True,
        ).fit(X, y)
        (check,) = model.tracer_.sink.find("srda.contract_check")
        assert check["attributes"]["operator"] == operator
        assert check["attributes"]["ok"] is True


class TestKernelSRDATracing:
    def test_traced_fit_phases(self, small_classification):
        X, y = small_classification
        model = KernelSRDA(alpha=1.0, kernel="rbf", trace=True).fit(X, y)
        sink = model.tracer_.sink
        names = span_names(sink)
        for phase in (
            "kernel_srda.validate",
            "kernel_srda.responses",
            "kernel_srda.gram",
            "kernel_srda.solve",
            "kernel_srda.embed",
        ):
            assert phase in names
        root = sink.find("kernel_srda.fit")[0]
        assert root["parent_id"] is None
        assert root["attributes"]["kernel"] == "rbf"
        assert sink.find("kernel_srda.gram")[0]["attributes"][
            "gram_rows"
        ] == X.shape[0]

    def test_untraced_kernel_fit(self, small_classification):
        X, y = small_classification
        model = KernelSRDA(alpha=1.0).fit(X, y)
        assert model.tracer_ is None


class TestAlphaPathTracing:
    def test_one_bidiagonalization_many_replays(self, small_classification):
        X, y = small_classification
        sink = InMemorySink()
        alphas = [0.1, 1.0, 10.0]
        models = srda_alpha_path(X, y, alphas, max_iter=10, trace=sink)
        assert len(models) == len(alphas)
        assert len(sink.find("srda.alpha_path")) == 1
        assert len(sink.find("srda.bidiagonalize")) == 1
        replays = sink.find("srda.replay")
        assert [r["attributes"]["alpha"] for r in replays] == alphas
        root = sink.find("srda.alpha_path")[0]
        assert root["attributes"]["n_alphas"] == len(alphas)
        for replay in replays:
            assert replay["parent_id"] == root["span_id"]
            assert any(
                e["name"] == "shared_bidiagonalization.iteration"
                for e in replay["events"]
            )


class TestGuardedSolveTracing:
    def test_clean_solve_records_solver_and_counter(self, rng):
        sink = InMemorySink()
        configure(sink=sink)
        A = rng.standard_normal((12, 8))
        gram = A.T @ A + np.eye(8)
        result = guarded_solve(gram, rng.standard_normal(8), alpha=0.1)
        assert result.solver == "cholesky"
        record = sink.find("guarded_solve")[0]
        assert record["attributes"]["solver"] == "cholesky"
        assert record["attributes"]["fallback_steps"] == 0
        counters = get_tracer().metrics.snapshot()["counters"]
        assert counters["guarded_solve.cholesky"] == 1.0

    def test_fallback_decisions_become_events(self, rng):
        sink = InMemorySink()
        configure(sink=sink)
        gram = np.zeros((5, 5))  # singular: forces the jitter chain
        result = guarded_solve(gram, rng.standard_normal(5), alpha=0.0)
        assert result.fallbacks
        record = sink.find("guarded_solve")[0]
        fallback_events = [
            e for e in record["events"]
            if e["name"] == "guarded_solve.fallback"
        ]
        assert len(fallback_events) == len(result.fallbacks)
        assert record["attributes"]["fallback_steps"] == len(
            result.fallbacks
        )
        counters = get_tracer().metrics.snapshot()["counters"]
        assert counters[f"guarded_solve.{result.solver}"] == 1.0

    def test_untraced_guarded_solve_stays_silent(self, rng):
        A = rng.standard_normal((10, 6))
        result = guarded_solve(A.T @ A, rng.standard_normal(6), alpha=0.5)
        assert result.solver == "cholesky"  # no tracer configured — no-op


class TestDatasetCacheCounters:
    def test_hit_miss_corrupt_counters(self, rng, tmp_path):
        configure(sink=InMemorySink())
        X = rng.standard_normal((12, 4))
        y = np.arange(12) % 3
        builds = []

        def builder():
            builds.append(1)
            return Dataset(name="toy", X=X, y=y, metadata={})

        path = tmp_path / "toy.npz"
        cached(builder, path)  # miss: builds and saves
        cached(builder, path)  # hit
        path.write_bytes(b"garbage")  # corrupt: regenerate
        cached(builder, path)
        assert len(builds) == 2
        counters = get_tracer().metrics.snapshot()["counters"]
        assert counters["dataset_cache.misses"] == 2.0
        assert counters["dataset_cache.hits"] == 1.0
        assert counters["dataset_cache.corrupt"] == 1.0


class _Majority:
    """Trivial estimator: predicts the most common training label."""

    def fit(self, X, y):
        self._label = int(np.bincount(np.asarray(y)).argmax())
        return self

    def predict(self, X):
        return np.full(X.shape[0], self._label)


class _Boom:
    def fit(self, X, y):
        raise ValueError("injected fit failure")

    def predict(self, X):  # pragma: no cover - fit always raises
        return np.zeros(X.shape[0])


@pytest.fixture
def toy_dataset(rng):
    n_per_class, n_classes = 10, 3
    X = rng.standard_normal((n_per_class * n_classes, 4))
    y = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(name="toy", X=X, y=y, metadata={})


class TestExperimentTracing:
    def test_failure_type_recorded_and_traced(self, toy_dataset):
        sink = InMemorySink()
        configure(sink=sink)
        result = run_experiment(
            toy_dataset,
            {"Majority": _Majority, "Boom": _Boom},
            train_sizes=[3],
            n_splits=1,
            continue_on_error=True,
        )
        boom = result.cell("Boom", "3")
        assert boom.failed
        assert boom.failure_type == "ValueError"
        assert "injected fit failure" in boom.failure
        good = result.cell("Majority", "3")
        assert not good.failed and good.failure_type is None

        assert len(sink.find("experiment.run")) == 1
        assert len(sink.find("experiment.split")) == 1
        fits = sink.find("experiment.fit")
        assert {r["attributes"]["algorithm"] for r in fits} == {
            "Majority",
            "Boom",
        }
        failures = [
            e
            for record in sink.spans
            for e in record["events"]
            if e["name"] == "experiment.failure"
        ]
        assert len(failures) == 1
        assert failures[0]["attributes"]["algorithm"] == "Boom"
        assert failures[0]["attributes"]["failure_type"] == "ValueError"

        lines = [json.dumps(record) for record in sink.spans]
        assert validate_trace_lines(lines) == []

    def test_memory_budget_failure_type(self, toy_dataset):
        result = run_experiment(
            toy_dataset,
            {"Majority": _Majority},
            train_sizes=[3],
            n_splits=1,
            memory_budget_bytes=1.0,  # nothing fits in one byte
        )
        cell = result.cell("Majority", "3")
        assert cell.failed
        assert cell.failure_type == "MemoryBudgetExceeded"

    def test_checkpoint_round_trips_failure_type(self, tmp_path):
        path = tmp_path / "sweep.json"
        signature = _checkpoint_signature("toy", ["A"], ["3"], 2, 0)
        cells = {("A", "3"): CellResult()}
        cells[("A", "3")].record_failure("ValueError: boom", "ValueError")
        _write_checkpoint(path, signature, {"3": 1}, cells)

        restored = {("A", "3"): CellResult()}
        completed = _load_checkpoint(path, signature, restored)
        assert completed == {"3": 1}
        assert restored[("A", "3")].failure == "ValueError: boom"
        assert restored[("A", "3")].failure_type == "ValueError"

    def test_legacy_checkpoint_without_failure_type(self, tmp_path):
        path = tmp_path / "sweep.json"
        signature = _checkpoint_signature("toy", ["A"], ["3"], 2, 0)
        state = {
            "version": 1,
            "signature": signature,
            "completed_splits": {"3": 1},
            "cells": {
                "3": {
                    "A": {
                        "errors": [],
                        "fit_seconds": [],
                        "failure": "something broke",
                        "retries": 0,
                    }
                }
            },
        }
        path.write_text(json.dumps(state))
        restored = {("A", "3"): CellResult()}
        _load_checkpoint(path, signature, restored)
        assert restored[("A", "3")].failure == "something broke"
        assert restored[("A", "3")].failure_type is None
