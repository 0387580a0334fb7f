"""Distributed backend tests: real localhost worker subprocesses."""

import numpy as np
import pytest

from repro.distributed import DistributedBackend
from repro.exceptions import ClusterUnhealthyError
from repro.linalg import kernels
from repro.linalg.operators import as_operator
from repro.linalg.sparse import CSRMatrix
from repro.parallel.sharded import ShardedOperator

pytestmark = [pytest.mark.distributed, pytest.mark.slow]


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"injected failure on {x}")


@pytest.fixture
def backend():
    b = DistributedBackend(
        n_workers=2, heartbeat_interval=0.5, task_timeout=10.0
    )
    yield b
    b.close()


def _dense_problem(rng, m=600, n=40):
    X = rng.standard_normal((m, n))
    return X


class TestLifecycle:
    def test_lazy_start(self, backend):
        assert not backend.started
        assert backend.healthy
        backend.map(_square, [1, 2, 3])
        assert backend.started
        assert backend.stats()["live_workers"] == 2

    def test_stats_before_start(self, backend):
        stats = backend.stats()
        assert stats["started"] is False
        assert stats["bytes_sent"] == 0

    def test_close_idempotent_then_rejects_use(self, backend):
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.map(_square, [1])

    def test_on_unhealthy_validated(self):
        with pytest.raises(ValueError, match="on_unhealthy"):
            DistributedBackend(n_workers=1, on_unhealthy="explode")


class TestMap:
    def test_map_matches_local(self, backend):
        items = list(range(17))
        assert backend.map(_square, items) == [_square(x) for x in items]

    def test_map_empty(self, backend):
        assert backend.map(_square, []) == []

    def test_map_propagates_task_exception(self, backend):
        with pytest.raises(ValueError, match="injected failure on 0"):
            backend.map(_boom, [0, 1])


class TestShardSurface:
    def test_ship_and_run_bitwise(self, backend, rng):
        block = rng.standard_normal((50, 8))
        operand = rng.standard_normal(8)
        keys = backend.ship_shards(
            [{"kind": "dense", "shape": block.shape, "arrays": {"block": block}}]
        )
        [result] = backend.run_tasks(
            [{"key": keys[0], "kernel": "matvec", "operand": operand}]
        )
        assert np.array_equal(result, block @ operand)

    def test_traffic_is_counted(self, backend, rng):
        block = rng.standard_normal((50, 8))
        backend.ship_shards(
            [{"kind": "dense", "shape": block.shape, "arrays": {"block": block}}]
        )
        stats = backend.stats()
        assert stats["bytes_sent"] > block.nbytes
        assert stats["bytes_received"] > 0


class TestRecovery:
    def test_kill_reassign_retry(self, backend, rng):
        block_a = rng.standard_normal((30, 6))
        block_b = rng.standard_normal((25, 6))
        operand = rng.standard_normal(6)
        keys = backend.ship_shards(
            [
                {"kind": "dense", "shape": b.shape, "arrays": {"block": b}}
                for b in (block_a, block_b)
            ]
        )
        backend.kill_worker(0)
        results = backend.run_tasks(
            [
                {"key": keys[0], "kernel": "matvec", "operand": operand},
                {"key": keys[1], "kernel": "matvec", "operand": operand},
            ]
        )
        assert np.array_equal(results[0], block_a @ operand)
        assert np.array_equal(results[1], block_b @ operand)
        stats = backend.stats()
        assert stats["worker_deaths"] == 1
        assert stats["reassignments"] >= 1
        assert stats["live_workers"] == 1

    def test_all_workers_dead_is_unhealthy(self, rng):
        backend = DistributedBackend(
            n_workers=2,
            heartbeat_interval=0.0,
            task_timeout=2.0,
            max_retries=1,
        )
        try:
            block = rng.standard_normal((30, 6))
            keys = backend.ship_shards(
                [{"kind": "dense", "shape": block.shape,
                  "arrays": {"block": block}}]
            )
            backend.kill_worker(0)
            backend.kill_worker(1)
            with pytest.raises(ClusterUnhealthyError):
                backend.run_tasks(
                    [{"key": keys[0], "kernel": "matvec",
                      "operand": rng.standard_normal(6)}]
                )
            assert not backend.healthy
        finally:
            backend.close()


class TestShardedOperatorParity:
    """Every kernel, distributed vs sharded-serial, must be bitwise."""

    @pytest.mark.parametrize("mode", ["dense", "csr"])
    def test_all_kernels_bitwise(self, backend, rng, mode):
        X = rng.standard_normal((600, 40))
        if mode == "csr":
            X[X < 0.6] = 0.0
            X = CSRMatrix.from_dense(X)
        reference = ShardedOperator(X, backend="serial")
        distributed = ShardedOperator(X, backend=backend)
        try:
            v = rng.standard_normal(40)
            u = rng.standard_normal(600)
            V = rng.standard_normal((40, 3))
            U = rng.standard_normal((600, 3))
            assert np.array_equal(distributed.matvec(v), reference.matvec(v))
            assert np.array_equal(distributed.rmatvec(u), reference.rmatvec(u))
            assert np.array_equal(distributed.matmat(V), reference.matmat(V))
            assert np.array_equal(distributed.rmatmat(U), reference.rmatmat(U))
            assert distributed.degraded_from is None
        finally:
            distributed.close()
            reference.close()

    @pytest.mark.parametrize(
        "kernel_backend",
        [
            "reference",
            pytest.param(
                "compiled",
                marks=pytest.mark.skipif(
                    not kernels.compiled_available(),
                    reason="compiled kernel extension not built",
                ),
            ),
        ],
    )
    @pytest.mark.parametrize(
        "dtypes",
        [
            (np.float64, np.float64),
            (np.float32, np.float32),
            (np.float32, np.float64),
            (np.float64, np.float32),
        ],
        ids=["f64", "f32", "f32xf64", "f64xf32"],
    )
    def test_csr_kernels_bitwise_equal_direct(
        self, backend, rng, monkeypatch, dtypes, kernel_backend
    ):
        """Workers inherit the kernel backend through the environment;
        every CSR product still equals the unsharded one byte for byte."""
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, kernel_backend)
        matrix_dtype, operand_dtype = dtypes
        X = rng.standard_normal((600, 40))
        X[X < 0.6] = 0.0
        X = CSRMatrix.from_dense(X.astype(matrix_dtype))
        operands = {
            "matvec": rng.standard_normal(40),
            "rmatvec": rng.standard_normal(600),
            "matmat": rng.standard_normal((40, 3)),
            "rmatmat": rng.standard_normal((600, 3)),
        }
        direct = as_operator(X)
        with ShardedOperator(X, n_shards=3, backend=backend) as op:
            for name, operand in operands.items():
                operand = operand.astype(operand_dtype)
                got = getattr(op, name)(operand)
                want = getattr(direct, name)(operand)
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name
            assert op.degraded_from is None
