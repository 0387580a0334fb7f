"""Chaos scenarios: every injected fault must recover or degrade,
and every recovered fit must be **bitwise identical** to the serial
backend (same shard layout, so the reduction order is the contract).
"""

import warnings

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.srda import SRDA, srda_alpha_path
from repro.distributed import ChaosBackend, ChaosPlan, DistributedBackend
from repro.linalg.sparse import CSRMatrix
from repro.robustness.report import RobustnessWarning

pytestmark = [pytest.mark.distributed, pytest.mark.chaos, pytest.mark.slow]


@pytest.fixture(scope="module")
def problem():
    """A 600-sample problem — large enough for a multi-shard layout."""
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((600, 80))
    sparse = dense.copy()
    sparse[np.abs(sparse) < 0.8] = 0.0
    X = CSRMatrix.from_dense(sparse)
    y = rng.integers(0, 4, 600)
    return X, y


@pytest.fixture(scope="module")
def reference(problem):
    """The serial-backend fit every scenario must match bitwise."""
    X, y = problem
    model = SRDA(
        alpha=1.0,
        config=SolverConfig(solver="lsqr", backend="serial"),
        max_iter=15,
        tol=0.0,
    )
    model.fit(X, y)
    return model


def _fit_with(backend, problem):
    """Fit through ``backend``; returns (model, stats-before-close)."""
    X, y = problem
    model = SRDA(
        alpha=1.0,
        config=SolverConfig(solver="lsqr", backend=backend),
        max_iter=15,
        tol=0.0,
    )
    try:
        model.fit(X, y)
        stats = backend.stats()
    finally:
        backend.close()
    return model, stats


def _assert_bitwise(model, reference):
    assert np.array_equal(model.components_, reference.components_)
    assert np.array_equal(model.intercept_, reference.intercept_)


class TestCleanDistributedFit:
    def test_bitwise_and_reported(self, problem, reference):
        backend = DistributedBackend(n_workers=2, heartbeat_interval=0.5)
        model, _ = _fit_with(backend, problem)
        _assert_bitwise(model, reference)
        assert model.fit_report_.backend == "distributed"
        assert "backend=distributed" in model.fit_report_.summary()


class TestWorkerLossRecovery:
    def test_kill_mid_lsqr_is_bitwise(self, problem, reference):
        # Lose worker 0 on the 6th product — deep inside the Lanczos
        # recurrence.  Retry + reassignment must restore the exact
        # numbers: shard layout (and hence reduction order) is
        # unchanged, only the process doing the arithmetic moves.
        inner = DistributedBackend(
            n_workers=2, heartbeat_interval=0.5, task_timeout=10.0
        )
        backend = ChaosBackend(inner, ChaosPlan(kill_at={5: 0}))
        model, stats = _fit_with(backend, problem)
        _assert_bitwise(model, reference)
        assert stats["worker_deaths"] == 1
        assert stats["reassignments"] >= 1
        assert model.fit_report_.backend == "chaos(distributed)"

    def test_kill_at_first_product_is_bitwise(self, problem, reference):
        inner = DistributedBackend(
            n_workers=2, heartbeat_interval=0.5, task_timeout=10.0
        )
        backend = ChaosBackend(inner, ChaosPlan(kill_at={0: 1}))
        model, stats = _fit_with(backend, problem)
        _assert_bitwise(model, reference)
        assert stats["worker_deaths"] == 1


class TestDegradation:
    def test_kill_all_degrades_to_serial_bitwise(self, problem, reference):
        # Losing every worker exhausts recovery; the sharded layer must
        # fall back to its local shard copies and still produce the
        # exact serial numbers, with the ladder recorded on the report.
        inner = DistributedBackend(
            n_workers=2, heartbeat_interval=0.0, task_timeout=2.0,
            max_retries=1,
        )
        backend = ChaosBackend(inner, ChaosPlan(kill_at={4: (0, 1)}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model, _ = _fit_with(backend, problem)
        _assert_bitwise(model, reference)
        assert model.fit_report_.backend == "chaos(distributed)->serial"
        assert any(
            issubclass(w.category, RobustnessWarning) for w in caught
        )
        assert any("unhealthy" in note for note in model.fit_report_.warnings)


class TestTransportFaults:
    def test_corrupt_frame_recovers_bitwise(self, problem, reference):
        # Frame 2 on each connection ships corrupted; the worker's CRC
        # check poisons the stream, the supervisor marks it dead, and
        # the survivor (whose early frames already went through clean)
        # adopts the shards.
        backend = DistributedBackend(
            n_workers=2, heartbeat_interval=0.5, task_timeout=5.0,
            chaos=ChaosPlan(corrupt_sends=(2,)),
        )
        model, _ = _fit_with(backend, problem)
        _assert_bitwise(model, reference)

    def test_dropped_frame_recovers_bitwise(self, problem, reference):
        backend = DistributedBackend(
            n_workers=2, heartbeat_interval=0.5, task_timeout=1.5,
            chaos=ChaosPlan(drop_sends=(3,)),
        )
        model, _ = _fit_with(backend, problem)
        _assert_bitwise(model, reference)

    def test_slow_worker_is_bitwise(self, problem, reference):
        # Delays reorder wall-clock completion, never the reduction.
        backend = DistributedBackend(
            n_workers=2, heartbeat_interval=0.5, task_timeout=10.0,
            chaos=ChaosPlan(delay_sends=(1, 4, 9), delay_seconds=0.05),
        )
        model, _ = _fit_with(backend, problem)
        _assert_bitwise(model, reference)


class TestAlphaPath:
    def test_alpha_path_survives_worker_loss(self, problem):
        X, y = problem
        alphas = [0.1, 1.0, 10.0]
        serial = srda_alpha_path(
            X,
            y,
            alphas=alphas,
            max_iter=10,
            tol=0.0,
            config=SolverConfig(solver="lsqr", backend="serial"),
        )
        inner = DistributedBackend(
            n_workers=2, heartbeat_interval=0.5, task_timeout=10.0
        )
        backend = ChaosBackend(inner, ChaosPlan(kill_at={3: 0}))
        try:
            chaotic = srda_alpha_path(
                X,
                y,
                alphas=alphas,
                max_iter=10,
                tol=0.0,
                config=SolverConfig(solver="lsqr", backend=backend),
            )
            stats = inner.stats()
        finally:
            backend.close()
        for chaotic_model, serial_model in zip(chaotic, serial):
            assert np.array_equal(
                chaotic_model.components_, serial_model.components_
            )
            assert chaotic_model.fit_report_.backend == "chaos(distributed)"
        assert stats["worker_deaths"] == 1
