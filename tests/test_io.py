"""Unit tests for model serialization."""

import json

import numpy as np
import pytest

from repro import IDRQR, LDA, RLDA, SRDA
from repro.core.solver_config import SolverConfig
from repro.core.sparse_srda import SparseSRDA
from repro.io import load_model, save_model


@pytest.fixture
def fitted_models(small_classification):
    X, y = small_classification
    return X, y, {
        "SRDA": SRDA(alpha=0.5, max_iter=25).fit(X, y),
        "SparseSRDA": SparseSRDA(alpha=0.5, l1_ratio=0.8).fit(X, y),
        "LDA": LDA().fit(X, y),
        "RLDA": RLDA(alpha=2.0).fit(X, y),
        "IDRQR": IDRQR(alpha=0.7).fit(X, y),
    }


class TestRoundTrip:
    def test_all_types_round_trip(self, fitted_models, tmp_path):
        X, y, models = fitted_models
        for name, model in models.items():
            path = save_model(model, tmp_path / name)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            assert np.allclose(loaded.transform(X), model.transform(X))
            assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_parameters_restored(self, fitted_models, tmp_path):
        X, y, models = fitted_models
        path = save_model(models["SRDA"], tmp_path / "m")
        loaded = load_model(path)
        assert loaded.alpha == 0.5
        assert loaded.max_iter == 25
        path = save_model(models["RLDA"], tmp_path / "r")
        assert load_model(path).alpha == 2.0

    def test_npz_suffix_appended(self, fitted_models, tmp_path):
        _, _, models = fitted_models
        path = save_model(models["LDA"], tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_loaded_model_scores_identically(self, fitted_models, tmp_path):
        X, y, models = fitted_models
        model = models["SRDA"]
        loaded = load_model(save_model(model, tmp_path / "s"))
        assert loaded.score(X, y) == model.score(X, y)

    def test_solver_config_round_trip(self, small_classification, tmp_path):
        X, y = small_classification
        config = SolverConfig(
            solver="sketched_lsqr",
            sketch_size=16,
            sketch_seed=3,
            kernel_backend="reference",
        )
        model = SRDA(alpha=0.5, config=config).fit(X, y)
        loaded = load_model(save_model(model, tmp_path / "c"))
        assert loaded.config == config
        assert np.array_equal(loaded.predict(X), model.predict(X))

    @pytest.mark.parametrize("family", ["countsketch", "sparse_sign", "srht"])
    def test_archive_naming_a_sketch_family_loads(
        self, fitted_models, tmp_path, family
    ):
        # Archives written while several sketch families existed carry a
        # flat "sketch" field; CountSketch is the only family now, and
        # the fitted arrays never depended on the choice.
        X, _, models = fitted_models
        model = models["SRDA"]
        params = {
            "alpha": 0.5,
            "centering": "auto",
            "max_iter": 25,
            "tol": 1e-10,
            "solver": "sketched_lsqr",
            "sketch": family,
            "sketch_size": None,
            "sketch_seed": 0,
            "kernel_backend": None,
        }
        path = tmp_path / "legacy.npz"
        np.savez(
            path,
            model_type=np.array("SRDA"),
            params_json=np.array(json.dumps(params)),
            components_=model.components_,
            intercept_=model.intercept_,
            classes_=model.classes_,
            centroids_=model.centroids_,
        )
        loaded = load_model(path)
        assert loaded.config == SolverConfig(solver="sketched_lsqr")
        assert np.array_equal(loaded.transform(X), model.transform(X))
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_archive_never_names_an_execution_backend(
        self, small_classification, tmp_path
    ):
        # Where the products ran never changes the fitted arrays, so an
        # archive records neither backend nor n_jobs, and none can name
        # a backend that no longer exists.
        X, y = small_classification
        config = SolverConfig(solver="lsqr", backend="thread", n_jobs=2)
        model = SRDA(alpha=0.5, config=config).fit(X, y)
        path = save_model(model, tmp_path / "t")
        with np.load(path, allow_pickle=False) as archive:
            params = json.loads(str(archive["params_json"]))
        assert "backend" not in params
        assert "n_jobs" not in params
        loaded = load_model(path)
        assert np.array_equal(loaded.transform(X), model.transform(X))
        assert np.array_equal(loaded.predict(X), model.predict(X))


class TestValidation:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(SRDA(), tmp_path / "x")

    def test_unsupported_type_rejected(self, tmp_path, small_classification):
        from repro.baselines.pca import PCA

        X, _ = small_classification
        with pytest.raises(TypeError):
            save_model(PCA().fit(X), tmp_path / "x")

    def test_corrupt_type_tag_rejected(self, tmp_path, fitted_models):
        X, y, models = fitted_models
        path = save_model(models["LDA"], tmp_path / "m")
        data = dict(np.load(path, allow_pickle=False))
        data["model_type"] = np.array("Mystery")
        np.savez(path, **data)
        with pytest.raises(ValueError, match="unknown model type"):
            load_model(path)
