"""End-to-end determinism: parallel fits and parallel experiment grids."""

import numpy as np
import pytest

from repro.baselines.ridge import RidgeClassifier
from repro.core.semi_supervised import SemiSupervisedSRDA
from repro.core.solver_config import SolverConfig
from repro.core.srda import SRDA, srda_alpha_path
from repro.datasets import Dataset
from repro.datasets.text import make_text
from repro.eval.experiment import run_experiment
from repro.linalg.sparse import CSRMatrix
from repro.parallel import SerialBackend, ShardedOperator

pytestmark = pytest.mark.parallel

ALGOS = {"SRDA": lambda: SRDA(alpha=1.0)}


@pytest.fixture
def blobs(rng):
    X = np.vstack(
        [rng.standard_normal((60, 12)) + 4.0 * k for k in range(3)]
    )
    y = np.repeat(np.arange(3), 60)
    return X, y


@pytest.fixture
def sparse_blobs(blobs, rng):
    X, y = blobs
    X = np.where(rng.random(X.shape) < 0.4, X, 0.0)
    return CSRMatrix.from_dense(X), y


class TestSRDAParallelFit:
    def test_backends_agree_bitwise(self, sparse_blobs):
        X, y = sparse_blobs
        serial = SRDA(
            alpha=0.5, config=SolverConfig(backend="serial")
        ).fit(X, y)
        threaded = SRDA(alpha=0.5, config=SolverConfig(n_jobs=2)).fit(X, y)
        np.testing.assert_array_equal(serial.components_, threaded.components_)

    def test_sharded_close_to_direct(self, sparse_blobs):
        X, y = sparse_blobs
        direct = SRDA(alpha=0.5).fit(X, y)
        sharded = SRDA(alpha=0.5, config=SolverConfig(n_jobs=2)).fit(X, y)
        np.testing.assert_allclose(
            sharded.components_, direct.components_, rtol=1e-8, atol=1e-10
        )

    def test_dense_centered_backends_agree(self, blobs):
        X, y = blobs
        serial = SRDA(
            alpha=0.5,
            config=SolverConfig(solver="lsqr", backend="serial"),
            centering=True,
        ).fit(X, y)
        threaded = SRDA(
            alpha=0.5,
            config=SolverConfig(solver="lsqr", n_jobs=2),
            centering=True,
        ).fit(X, y)
        np.testing.assert_array_equal(serial.components_, threaded.components_)

    def test_predictions_unchanged(self, sparse_blobs):
        X, y = sparse_blobs
        direct = SRDA(alpha=0.5).fit(X, y)
        threaded = SRDA(alpha=0.5, config=SolverConfig(n_jobs=2)).fit(X, y)
        np.testing.assert_array_equal(direct.predict(X), threaded.predict(X))

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SRDA(alpha=1.0, config=SolverConfig(backend=3.14))

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            SRDA(alpha=1.0, config=SolverConfig(n_jobs=0))

    def test_params_stored_verbatim(self):
        model = SRDA(
            alpha=1.0, config=SolverConfig(n_jobs=-1, backend="thread")
        )
        assert model.config.n_jobs == -1
        assert model.config.backend == "thread"


class TestSharedStageHonoursConfig:
    """Every estimator on the shared regression stage shards as SRDA does."""

    @pytest.mark.parametrize(
        "cls, weights",
        [(SemiSupervisedSRDA, "components_"), (RidgeClassifier, "coef_")],
        ids=["SemiSupervisedSRDA", "RidgeClassifier"],
    )
    def test_sharded_fit_records_backend(self, cls, weights, rng):
        # m=1200 rows cut into two shards; the thread backend must
        # serve the products and leave the solution unchanged.
        X = rng.standard_normal((1200, 20))
        y = np.arange(1200) % 3
        X[np.arange(1200), y] += 3.0
        direct = cls(config=SolverConfig(solver="lsqr")).fit(X, y)
        sharded = cls(
            config=SolverConfig(solver="lsqr", n_jobs=2, backend="thread")
        ).fit(X, y)
        assert direct.fit_report_.backend is None
        assert sharded.fit_report_.backend == "thread"
        np.testing.assert_allclose(
            getattr(sharded, weights),
            getattr(direct, weights),
            rtol=0,
            atol=1e-10,
        )


@pytest.fixture(scope="module")
def news():
    """A news-shaped sparse corpus: 2100 TF rows split into 4 shards."""
    data = make_text(n_docs=2100, vocab_size=2000, n_classes=6, seed=5)
    return data.X, data.y


class TestShardedFitBitwise:
    """A sharded LSQR fit is the direct fit, byte for byte: every
    sharded CSR product equals the unsharded one."""

    @staticmethod
    def _fit(news, **config):
        X, y = news
        model = SRDA(
            alpha=1.0,
            max_iter=20,
            tol=0.0,
            config=SolverConfig(solver="lsqr", **config),
        )
        return model.fit(X, y)

    @pytest.mark.parametrize(
        "config",
        [
            {"backend": "serial"},
            {"backend": "thread", "n_jobs": 2},
            pytest.param(
                {"backend": "distributed", "n_jobs": 2},
                marks=[pytest.mark.slow, pytest.mark.distributed],
            ),
        ],
        ids=["serial", "thread", "distributed"],
    )
    def test_twenty_iteration_fit_equals_direct(self, news, config):
        direct = self._fit(news)
        sharded = self._fit(news, **config)
        # "distributed" exactly: a degraded fit records the ladder
        assert sharded.fit_report_.backend == config["backend"]
        assert set(sharded.fit_report_.lsqr_iterations) == {20}
        assert sharded.components_.tobytes() == direct.components_.tobytes()
        assert sharded.intercept_.tobytes() == direct.intercept_.tobytes()


class TestAlphaPathParallel:
    def test_backends_agree_bitwise(self, sparse_blobs):
        X, y = sparse_blobs
        alphas = [0.01, 0.1, 1.0]
        serial = srda_alpha_path(
            X, y, alphas, config=SolverConfig(solver="lsqr", backend="serial")
        )
        threaded = srda_alpha_path(
            X, y, alphas, config=SolverConfig(solver="lsqr", n_jobs=2)
        )
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.components_, b.components_)

    def test_close_to_direct_path(self, sparse_blobs):
        X, y = sparse_blobs
        alphas = [0.1, 1.0]
        direct = srda_alpha_path(X, y, alphas)
        sharded = srda_alpha_path(
            X, y, alphas, config=SolverConfig(solver="lsqr", n_jobs=2)
        )
        for a, b in zip(direct, sharded):
            np.testing.assert_allclose(
                b.components_, a.components_, rtol=1e-8, atol=1e-10
            )

    def test_sharded_operator_closed_when_a_product_raises(
        self, sparse_blobs, monkeypatch
    ):
        X, y = sparse_blobs
        closed = []
        close = ShardedOperator.close

        def counting_close(self):
            closed.append(self)
            close(self)

        def failing_rmatmat(self, U):
            raise RuntimeError("injected product failure")

        monkeypatch.setattr(ShardedOperator, "close", counting_close)
        monkeypatch.setattr(ShardedOperator, "_rmatmat", failing_rmatmat)
        with pytest.raises(RuntimeError, match="injected product failure"):
            srda_alpha_path(
                X, y, [0.1, 1.0],
                config=SolverConfig(solver="lsqr", backend="thread", n_jobs=2),
            )
        assert len(closed) == 1


class TestExperimentParallel:
    @pytest.fixture
    def tiny_dataset(self, blobs):
        X, y = blobs
        return Dataset(
            "tiny",
            X,
            y,
            metadata={
                "split_protocol": "per_class_within",
                "train_sizes": [5, 10],
            },
        )

    def test_grid_bitwise_identical_across_n_jobs(self, tiny_dataset):
        results = [
            run_experiment(
                tiny_dataset, ALGOS, n_splits=2, seed=3, n_jobs=jobs
            )
            for jobs in (None, 2, 4)
        ]
        baseline = results[0]
        for other in results[1:]:
            for key, cell in baseline.cells.items():
                assert cell.errors == other.cells[key].errors

    def test_explicit_backend_instance_honoured(self, tiny_dataset):
        with SerialBackend() as backend:
            result = run_experiment(
                tiny_dataset, ALGOS, n_splits=2, seed=3, backend=backend
            )
        assert not result.cell("SRDA", "5").failed

    def test_removed_process_backend_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="process backend was removed"):
            run_experiment(
                tiny_dataset, ALGOS, n_splits=2, seed=3, backend="process"
            )

    def test_remote_backend_rejected(self, tiny_dataset, remote_backend):
        with pytest.raises(ValueError, match="in-process closures"):
            run_experiment(
                tiny_dataset, ALGOS, n_splits=2, seed=3, backend=remote_backend
            )
