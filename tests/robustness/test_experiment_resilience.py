"""Resilient sweeps: retries, timeouts, and checkpoint/resume."""

import time

import numpy as np
import pytest

from repro.core.solver_config import SolverConfig
from repro.core.srda import SRDA
from repro.datasets.base import Dataset
from repro.eval.experiment import run_experiment
from repro.robustness import RobustnessWarning

pytestmark = pytest.mark.robustness


@pytest.fixture
def dataset(rng):
    m, n_classes = 36, 3
    y = np.arange(m) % n_classes
    X = rng.standard_normal((m, 5))
    for k in range(n_classes):
        X[y == k, k] += 3.0
    return Dataset(
        name="resilience-toy",
        X=X,
        y=y,
        metadata={"split_protocol": "per_class_within", "train_sizes": [4]},
    )


class CountingSRDA(SRDA):
    """SRDA that records every fit in a shared list."""

    def __init__(self, fit_log, fail_first=0, sleep_seconds=0.0):
        super().__init__(alpha=1.0, config=SolverConfig(solver="normal"))
        self._fit_log = fit_log
        self._fail_first = fail_first
        self._sleep_seconds = sleep_seconds

    def fit(self, X, y):
        self._fit_log.append(1)
        if len(self._fit_log) <= self._fail_first:
            raise RuntimeError("injected transient fit failure")
        if self._sleep_seconds:
            time.sleep(self._sleep_seconds)
        return super().fit(X, y)


class TestRetries:
    def test_transient_failure_recovered_by_retry(self, dataset):
        log = []
        result = run_experiment(
            dataset,
            {"SRDA": lambda: CountingSRDA(log, fail_first=2)},
            n_splits=3,
            retries=2,
        )
        cell = result.cell("SRDA", "4")
        assert not cell.failed
        assert len(cell.errors) == 3
        assert cell.retries == 2  # both early failures were retried

    def test_persistent_failure_exhausts_retries(self, dataset):
        log = []
        result = run_experiment(
            dataset,
            {"SRDA": lambda: CountingSRDA(log, fail_first=10**6)},
            n_splits=2,
            retries=1,
            continue_on_error=True,
        )
        cell = result.cell("SRDA", "4")
        assert cell.failed
        assert "injected transient fit failure" in cell.failure
        assert cell.errors == []

    def test_retries_without_continue_on_error_reraises(self, dataset):
        log = []
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(
                dataset,
                {"SRDA": lambda: CountingSRDA(log, fail_first=10**6)},
                n_splits=2,
                retries=1,
            )

    def test_negative_retries_rejected(self, dataset):
        with pytest.raises(ValueError, match="retries"):
            run_experiment(dataset, {"SRDA": SRDA}, n_splits=1, retries=-1)


class TestTimeout:
    def test_slow_fit_marks_cell_failed(self, dataset):
        log = []
        result = run_experiment(
            dataset,
            {
                "slow": lambda: CountingSRDA(log, sleep_seconds=1.0),
                "fast": lambda: SRDA(alpha=1.0),
            },
            n_splits=3,
            # the timeout sits far from both sides: the slow fit sleeps
            # twice as long, and the fast one (milliseconds) keeps
            # headroom however loaded the host is
            fit_timeout_seconds=0.5,
        )
        slow = result.cell("slow", "4")
        assert slow.failed
        assert "timeout" in slow.failure
        assert slow.errors == []
        # the slow algorithm is skipped for the remaining splits
        assert len(log) == 1
        # other algorithms are unaffected
        fast = result.cell("fast", "4")
        assert not fast.failed
        assert len(fast.errors) == 3


class TestCheckpointResume:
    def test_resume_skips_completed_splits(self, dataset, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        log = []
        # first run dies on the third split (after 2 splits checkpointed)
        with pytest.raises(RuntimeError):
            run_experiment(
                dataset,
                {"SRDA": lambda: CountingSRDA(log, fail_first=0)
                 if len(log) < 2
                 else CountingSRDA(log, fail_first=10**6)},
                n_splits=4,
                seed=7,
                checkpoint_path=checkpoint,
            )
        assert checkpoint.exists()
        assert len(log) >= 2

        # second run resumes: only the remaining splits are fitted
        resumed_log = []
        result = run_experiment(
            dataset,
            {"SRDA": lambda: CountingSRDA(resumed_log)},
            n_splits=4,
            seed=7,
            checkpoint_path=checkpoint,
        )
        cell = result.cell("SRDA", "4")
        assert len(cell.errors) == 4
        assert len(resumed_log) == 2  # splits 0 and 1 were restored
        assert not checkpoint.exists()  # cleaned up on success

    def test_resumed_results_match_uninterrupted_run(self, dataset, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        log = []
        with pytest.raises(RuntimeError):
            run_experiment(
                dataset,
                {"SRDA": lambda: CountingSRDA(log)
                 if len(log) < 2
                 else CountingSRDA(log, fail_first=10**6)},
                n_splits=4,
                seed=11,
                checkpoint_path=checkpoint,
            )
        resumed = run_experiment(
            dataset,
            {"SRDA": lambda: SRDA(alpha=1.0, config=SolverConfig(solver="normal"))},
            n_splits=4,
            seed=11,
            checkpoint_path=checkpoint,
        )
        straight = run_experiment(
            dataset,
            {"SRDA": lambda: SRDA(alpha=1.0, config=SolverConfig(solver="normal"))},
            n_splits=4,
            seed=11,
        )
        np.testing.assert_allclose(
            resumed.cell("SRDA", "4").errors,
            straight.cell("SRDA", "4").errors,
        )

    def test_mismatched_checkpoint_ignored_with_warning(
        self, dataset, tmp_path
    ):
        checkpoint = tmp_path / "sweep.json"
        log = []
        with pytest.raises(RuntimeError):
            run_experiment(
                dataset,
                {"SRDA": lambda: CountingSRDA(log)
                 if len(log) < 2
                 else CountingSRDA(log, fail_first=10**6)},
                n_splits=4,
                seed=3,
                checkpoint_path=checkpoint,
            )
        # different seed → different sweep → checkpoint must not be used
        fresh_log = []
        with pytest.warns(RobustnessWarning, match="different sweep"):
            result = run_experiment(
                dataset,
                {"SRDA": lambda: CountingSRDA(fresh_log)},
                n_splits=4,
                seed=4,
                checkpoint_path=checkpoint,
            )
        assert len(fresh_log) == 4  # nothing was skipped
        assert len(result.cell("SRDA", "4").errors) == 4

    def test_garbage_checkpoint_ignored_with_warning(self, dataset, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        checkpoint.write_text("{not json")
        with pytest.warns(RobustnessWarning, match="unreadable"):
            result = run_experiment(
                dataset,
                {"SRDA": lambda: SRDA(alpha=1.0)},
                n_splits=2,
                checkpoint_path=checkpoint,
            )
        assert len(result.cell("SRDA", "4").errors) == 2
