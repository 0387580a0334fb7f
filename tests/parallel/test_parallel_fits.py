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
from repro.parallel import SerialBackend, ShardedOperator, ThreadBackend

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
        ],
        ids=["serial", "thread"],
    )
    def test_twenty_iteration_fit_equals_direct(self, news, config):
        direct = self._fit(news)
        sharded = self._fit(news, **config)
        assert sharded.fit_report_.backend == config["backend"]
        assert set(sharded.fit_report_.lsqr_iterations) == {20}
        assert sharded.components_.tobytes() == direct.components_.tobytes()
        assert sharded.intercept_.tobytes() == direct.intercept_.tobytes()


    @pytest.mark.parametrize("n_workers", [1, 3, 4])
    def test_fit_on_a_caller_pool_equals_direct(self, news, n_workers):
        # The news layout has 4 shards; fewer, as many or as many
        # workers as shards change nothing.
        direct = self._fit(news)
        with ThreadBackend(n_workers=n_workers) as pool:
            sharded = self._fit(news, backend=pool)
            assert pool.n_workers == n_workers
        assert sharded.fit_report_.backend == "thread"
        assert sharded.components_.tobytes() == direct.components_.tobytes()
        assert sharded.intercept_.tobytes() == direct.intercept_.tobytes()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_summary_names_the_backend(self, news, backend):
        report = self._fit(news, backend=backend, n_jobs=2).fit_report_
        assert report.backend == backend
        assert f"backend={backend}" in report.summary()


class FailingBackend(SerialBackend):
    """A backend whose every fan-out fails, as a broken pool would."""

    def map(self, fn, items):
        raise RuntimeError("injected shard failure")


class TestExperimentShardFailure:
    """A fit whose sharded products fail mid-grid is recorded as a cell
    failure, or leaves a checkpoint a clean rerun resumes from."""

    @pytest.fixture
    def dataset(self):
        # 180 training rows per class -> 540 rows: two shards.
        rng = np.random.default_rng(11)
        X = np.vstack(
            [rng.standard_normal((250, 12)) + 2.5 * k for k in range(3)]
        )
        y = np.repeat(np.arange(3), 250)
        return Dataset(
            "shard-failure", X, y,
            metadata={"split_protocol": "per_class_within",
                      "train_sizes": [180]},
        )

    @staticmethod
    def _srda(backend):
        return SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr", backend=backend),
            max_iter=5,
            tol=0.0,
        )

    def test_failure_lands_in_failure_type(self, dataset):
        result = run_experiment(
            dataset,
            {
                "SRDA-broken": lambda: self._srda(FailingBackend()),
                "SRDA": lambda: self._srda("serial"),
            },
            n_splits=1,
            seed=0,
            continue_on_error=True,
        )
        broken = result.cell("SRDA-broken", "180")
        assert broken.failed
        assert broken.failure_type == "RuntimeError"
        assert "injected shard failure" in broken.failure
        healthy = result.cell("SRDA", "180")
        assert not healthy.failed
        assert len(healthy.errors) == 1

    def test_resume_completes_the_grid(self, dataset, tmp_path):
        ckpt = tmp_path / "sweep.json"
        calls = {"count": 0}

        def flaky_factory():
            # Split 0 fits cleanly; split 1's products fail.
            calls["count"] += 1
            backend = "serial" if calls["count"] == 1 else FailingBackend()
            return self._srda(backend)

        with pytest.raises(RuntimeError, match="injected shard failure"):
            run_experiment(
                dataset, {"SRDA": flaky_factory}, n_splits=2, seed=0,
                checkpoint_path=ckpt,
            )
        assert ckpt.exists()

        def healthy():
            return self._srda("serial")

        resumed = run_experiment(
            dataset, {"SRDA": healthy}, n_splits=2, seed=0,
            checkpoint_path=ckpt,
        )
        reference = run_experiment(
            dataset, {"SRDA": healthy}, n_splits=2, seed=0
        )
        cell = resumed.cell("SRDA", "180")
        assert not cell.failed
        assert cell.errors == reference.cell("SRDA", "180").errors
        assert not ckpt.exists()


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
