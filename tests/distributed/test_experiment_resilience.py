"""Experiment-layer resilience: a dying cluster mid-grid must either
be recorded as a cell failure (continue_on_error) or leave a resumable
checkpoint behind — never corrupt the sweep.
"""

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.srda import SRDA
from repro.datasets import Dataset
from repro.distributed import ChaosBackend, ChaosPlan, DistributedBackend
from repro.eval.experiment import run_experiment
from repro.exceptions import ClusterUnhealthyError

pytestmark = [pytest.mark.distributed, pytest.mark.chaos, pytest.mark.slow]


@pytest.fixture
def dataset():
    """3 classes x 250 samples: train size 180/class -> 540 rows, so the
    shard layout is multi-shard and the distributed path is exercised."""
    rng = np.random.default_rng(11)
    X = np.vstack(
        [rng.standard_normal((250, 12)) + 2.5 * k for k in range(3)]
    )
    y = np.repeat(np.arange(3), 250)
    return Dataset(
        "resilience", X, y,
        metadata={"split_protocol": "per_class_within",
                  "train_sizes": [180]},
    )


def _doomed_srda():
    """An SRDA whose cluster loses every worker on the first product
    and is configured to raise instead of degrade."""
    inner = DistributedBackend(
        n_workers=2, heartbeat_interval=0.0, task_timeout=2.0,
        max_retries=1, on_unhealthy="raise",
    )
    backend = ChaosBackend(inner, ChaosPlan(kill_at={0: (0, 1)}))
    return SRDA(
        alpha=1.0,
        config=SolverConfig(solver="lsqr", backend=backend),
        max_iter=5,
        tol=0.0,
    )


def _healthy_srda():
    return SRDA(
        alpha=1.0,
        config=SolverConfig(solver="lsqr", backend="serial"),
        max_iter=5,
        tol=0.0,
    )


class TestFailureRecording:
    def test_transport_failure_lands_in_failure_type(self, dataset):
        result = run_experiment(
            dataset,
            {"SRDA-dist": _doomed_srda, "SRDA": _healthy_srda},
            n_splits=1,
            seed=0,
            continue_on_error=True,
        )
        doomed = result.cell("SRDA-dist", "180")
        assert doomed.failed
        assert doomed.failure_type == "ClusterUnhealthyError"
        assert "ClusterUnhealthyError" in doomed.failure
        healthy = result.cell("SRDA", "180")
        assert not healthy.failed
        assert len(healthy.errors) == 1


class TestCheckpointResume:
    def test_resume_completes_the_grid(self, dataset, tmp_path):
        ckpt = tmp_path / "sweep.json"
        calls = {"count": 0}

        def flaky_factory():
            # Split 0 fits cleanly; split 1's cluster dies mid-fit.
            calls["count"] += 1
            return _healthy_srda() if calls["count"] == 1 else _doomed_srda()

        with pytest.raises(ClusterUnhealthyError):
            run_experiment(
                dataset,
                {"SRDA": flaky_factory},
                n_splits=2,
                seed=0,
                checkpoint_path=ckpt,
            )
        # Split 0 completed before the crash, so its progress survives.
        assert ckpt.exists()

        resumed = run_experiment(
            dataset,
            {"SRDA": _healthy_srda},
            n_splits=2,
            seed=0,
            checkpoint_path=ckpt,
        )
        reference = run_experiment(
            dataset,
            {"SRDA": _healthy_srda},
            n_splits=2,
            seed=0,
        )
        cell = resumed.cell("SRDA", "180")
        assert not cell.failed
        assert cell.errors == reference.cell("SRDA", "180").errors
        assert not ckpt.exists()  # removed on successful completion
