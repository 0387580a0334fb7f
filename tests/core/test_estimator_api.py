"""The shared estimator protocol: get/set params, clone, removed spellings.

Parametrized over :func:`repro.all_estimators`, so every estimator that
joins the registry is automatically held to the contract.
"""

import inspect
import warnings

import numpy as np
import pytest

import repro
from repro import (
    IDRQR,
    SRDA,
    RidgeClassifier,
    SemiSupervisedSRDA,
    all_estimators,
    clone,
    srda_alpha_path,
)
from repro.baselines.lda import ScatterLDA
from repro.core.estimator import ReproEstimator
from repro.core.solver_config import SolverConfig

REGISTRY = all_estimators()

#: Non-default values per parameter name, used to prove that set_params
#: and clone carry values through (defaults would vacuously pass).
OVERRIDES = {
    "alpha": 2.5,
    "max_iter": 7,
    "tol": 1e-6,
    "n_components": 2,
}


def estimator_classes():
    return [
        pytest.param(loader, id=name) for name, loader in REGISTRY.items()
    ]


@pytest.mark.parametrize("loader", estimator_classes())
class TestProtocolContract:
    def test_is_repro_estimator(self, loader):
        assert issubclass(loader(), ReproEstimator)

    def test_params_mirror_constructor_signature(self, loader):
        cls = loader()
        estimator = cls()
        params = estimator.get_params()
        signature = inspect.signature(cls.__init__)
        expected = {name for name in signature.parameters if name != "self"}
        assert set(params) == expected

    def test_get_set_round_trip(self, loader):
        estimator = loader()()
        params = estimator.get_params()
        changed = {
            name: OVERRIDES[name]
            for name in params
            if name in OVERRIDES
        }
        estimator.set_params(**changed)
        after = estimator.get_params()
        for name, value in changed.items():
            assert after[name] == value
        untouched = set(params) - set(changed)
        for name in untouched:
            assert after[name] == params[name]

    def test_clone_copies_params_not_fitted_state(self, loader):
        estimator = loader()()
        overrides = {
            name: OVERRIDES[name]
            for name in estimator.get_params()
            if name in OVERRIDES
        }
        estimator.set_params(**overrides)
        copy = clone(estimator)
        assert type(copy) is type(estimator)
        assert copy is not estimator
        assert copy.get_params() == estimator.get_params()
        assert copy.fit_report_ is None

    def test_method_clone_matches_function(self, loader):
        estimator = loader()()
        assert estimator.clone().get_params() == clone(
            estimator
        ).get_params()

    def test_set_params_rejects_unknown_names(self, loader):
        estimator = loader()()
        with pytest.raises(ValueError, match="invalid parameter"):
            estimator.set_params(definitely_not_a_parameter=1)

    def test_set_params_empty_is_noop(self, loader):
        estimator = loader()()
        assert estimator.set_params() is estimator


class TestRegistry:
    def test_registry_covers_public_estimators(self):
        exported = {
            name
            for name in repro.__all__
            if name[0].isupper()
            and isinstance(getattr(repro, name), type)
            and issubclass(getattr(repro, name), ReproEstimator)
            and getattr(repro, name) is not ReproEstimator
        }
        assert exported == set(REGISTRY)

    def test_loaders_resolve_to_exported_classes(self):
        for name, loader in REGISTRY.items():
            assert loader() is getattr(repro, name)


#: Estimators whose ``fit`` takes no labels.
UNSUPERVISED = {"PCA", "SpectralRegressionEmbedding"}


def _fit(name, X, y):
    estimator = REGISTRY[name]()()
    return estimator.fit(X) if name in UNSUPERVISED else estimator.fit(X, y)


@pytest.mark.parametrize("name", sorted(REGISTRY))
class TestFittedState:
    """Satellite of the serving registry: ``is_fitted`` must be accurate
    and ``clone`` must drop fitted state on *every* estimator."""

    def test_is_fitted_flips_on_fit(self, name, small_classification):
        estimator = REGISTRY[name]()()
        assert not estimator.is_fitted()
        assert estimator.fitted_attributes() == {}
        X, y = small_classification
        fitted = _fit(name, X, y)
        assert fitted.is_fitted()

    def test_clone_drops_every_fitted_marker(
        self, name, small_classification
    ):
        X, y = small_classification
        fitted = _fit(name, X, y)
        copy = clone(fitted)
        assert not copy.is_fitted()
        assert copy.fit_report_ is None
        for marker in fitted.fitted_attributes():
            assert getattr(copy, marker, None) is None, marker
        # the clone is a working estimator
        refit = (
            copy.fit(X) if name in UNSUPERVISED else copy.fit(X, y)
        )
        assert refit.is_fitted()


class TestCopyability:
    """Fitted estimators must survive ``deepcopy`` and pickle — the
    serving layer deep-copies the active model before ``partial_fit``
    so the served original is never mutated.  Live tracer handles
    (which hold thread locks) are dropped and restored as ``None``.

    A streaming model's copies go on with the stream: the copy shares
    the row store's buffers (and its lock), the pickle holds the stored
    rows alone."""

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_fitted_deepcopy_round_trip(self, name, small_classification):
        import copy as copy_module

        X, y = small_classification
        fitted = _fit(name, X, y)
        duplicate = copy_module.deepcopy(fitted)
        assert duplicate.is_fitted()
        assert getattr(duplicate, "tracer_", None) is None
        np.testing.assert_array_equal(
            duplicate.transform(X.astype(np.float32)),
            fitted.transform(X.astype(np.float32)),
        )

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_fitted_pickle_round_trip(self, name, small_classification):
        import pickle

        X, y = small_classification
        fitted = _fit(name, X, y)
        restored = pickle.loads(pickle.dumps(fitted))
        assert restored.is_fitted()
        np.testing.assert_array_equal(
            restored.transform(X.astype(np.float32)),
            fitted.transform(X.astype(np.float32)),
        )


    @staticmethod
    def _batches(small_classification):
        X, y = small_classification
        order = np.random.default_rng(3).permutation(X.shape[0])
        X, y = X[order], y[order]
        return [(X[:40], y[:40]), (X[40:50], y[40:50]), (X[50:], y[50:])]

    @staticmethod
    def _stream(batches):
        model = SRDA(config=SolverConfig(solver="lsqr"), tol=0.0)
        for X, y in batches:
            model.partial_fit(X, y)
        return model

    @pytest.mark.parametrize("round_trip", ["deepcopy", "pickle"])
    def test_stream_continues_bitwise(self, round_trip, small_classification):
        import copy as copy_module
        import pickle

        batches = self._batches(small_classification)
        model = self._stream(batches[:2])
        if round_trip == "deepcopy":
            duplicate = copy_module.deepcopy(model)
        else:
            duplicate = pickle.loads(pickle.dumps(model))
        duplicate.partial_fit(*batches[2])
        fresh = self._stream(batches)
        np.testing.assert_array_equal(duplicate.components_, fresh.components_)
        np.testing.assert_array_equal(duplicate.intercept_, fresh.intercept_)
        assert duplicate.fit_report_.incremental["batches"] == 3

    def test_stream_pickle_grows_with_rows_not_capacity(
        self, small_classification
    ):
        import pickle

        batches = self._batches(small_classification)
        model = self._stream(batches[:2])
        store = model._incremental.store
        capacity = store._shared.data.shape[0]
        assert capacity > store.rows  # the second batch grew the store
        restored = pickle.loads(pickle.dumps(model))
        assert restored._incremental.store._shared.data.shape[0] == store.rows
        # the pickle of a store with spare capacity is the pickle of the
        # same rows held in an exactly sized one (up to pickle memo codes),
        # and each stored row adds its bytes
        unused = (capacity - store.rows) * store.n_features * 8
        assert abs(len(pickle.dumps(model)) - len(pickle.dumps(restored))) < 64
        assert unused >= 64 * 10
        longer = self._stream(batches)
        grown = len(pickle.dumps(longer)) - len(pickle.dumps(model))
        assert grown >= batches[2][0].nbytes


class TestSRDAClone:
    def test_clone_drops_fitted_attributes(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=2.0, config=SolverConfig(solver="normal")).fit(
            X, y
        )
        copy = clone(model)
        assert copy.components_ is None
        assert copy.fit_report_ is None
        assert copy.get_params()["alpha"] == 2.0
        copy.fit(X, y)  # the clone is a working estimator
        assert copy.components_ is not None

    def test_clone_preserves_trace_argument(self):
        model = SRDA(alpha=1.0, trace=True)
        assert clone(model).get_params()["trace"] is True


class TestRidgeSpellingRemoved:
    """The PR-4 ``ridge=`` deprecation cycle is complete: hard removal."""

    @pytest.mark.parametrize(
        "cls", [ScatterLDA, IDRQR], ids=["ScatterLDA", "IDRQR"]
    )
    def test_constructor_rejects_ridge(self, cls):
        with pytest.raises(TypeError, match="ridge"):
            cls(ridge=0.75)

    @pytest.mark.parametrize(
        "cls", [ScatterLDA, IDRQR], ids=["ScatterLDA", "IDRQR"]
    )
    def test_set_params_rejects_ridge(self, cls):
        with pytest.raises(ValueError, match="invalid parameter"):
            cls().set_params(ridge=0.25)

    @pytest.mark.parametrize(
        "cls", [ScatterLDA, IDRQR], ids=["ScatterLDA", "IDRQR"]
    )
    def test_alias_property_is_gone(self, cls):
        assert not hasattr(cls, "ridge")

    @pytest.mark.parametrize(
        "cls", [ScatterLDA, IDRQR], ids=["ScatterLDA", "IDRQR"]
    )
    def test_alpha_spelling_stays_silent(self, cls):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimator = cls(alpha=0.5)
            estimator.set_params(alpha=1.0)
            clone(estimator)
        assert estimator.alpha == 1.0


#: The flat solver keywords ``SolverConfig`` replaced, with a value
#: each field accepts.
SOLVER_KEYWORDS = {
    "solver": "lsqr",
    "sketch_size": 32,
    "sketch_seed": 7,
    "n_jobs": 2,
    "backend": "serial",
}

#: The estimators that take a ``config=SolverConfig(...)``.
CONFIG_ESTIMATORS = [SRDA, SemiSupervisedSRDA, RidgeClassifier]


class TestSolverKeywordsRemoved:
    """The flat solver keywords are gone: ``config=`` is the only way in."""

    @pytest.mark.parametrize("name", sorted(SOLVER_KEYWORDS))
    @pytest.mark.parametrize(
        "entry",
        CONFIG_ESTIMATORS + [srda_alpha_path],
        ids=lambda entry: entry.__name__,
    )
    def test_entry_point_rejects_keyword(self, entry, name):
        kwargs = {name: SOLVER_KEYWORDS[name]}
        with pytest.raises(TypeError, match=name):
            if entry is srda_alpha_path:
                entry(np.eye(4), [0, 0, 1, 1], [1.0], **kwargs)
            else:
                entry(**kwargs)

    @pytest.mark.parametrize("name", sorted(SOLVER_KEYWORDS))
    @pytest.mark.parametrize(
        "cls", CONFIG_ESTIMATORS, ids=lambda cls: cls.__name__
    )
    def test_set_params_rejects_keyword(self, cls, name):
        model = cls()
        with pytest.raises(ValueError, match="invalid parameter"):
            model.set_params(**{name: SOLVER_KEYWORDS[name]})
        assert name not in model.get_params()

    @pytest.mark.parametrize(
        "name", sorted(SOLVER_KEYWORDS) + ["kernel_backend"]
    )
    @pytest.mark.parametrize(
        "cls", CONFIG_ESTIMATORS, ids=lambda cls: cls.__name__
    )
    def test_alias_attribute_is_gone(self, cls, name):
        assert not hasattr(cls(), name)

    def test_sketch_family_is_gone(self):
        model = SRDA()
        with pytest.raises(ValueError, match="invalid parameter 'sketch'"):
            model.set_params(sketch="countsketch")
        assert not hasattr(model, "sketch")
        assert "sketch" not in model.get_params()

    def test_config_round_trips_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = SRDA(config=SolverConfig(solver="lsqr"))
            model.set_params(config=SolverConfig(solver="normal"))
            copy = clone(model)
        assert model.config.solver == "normal"
        assert copy.get_params()["config"] == model.config


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "name, message",
        [
            ("bogus", "unknown backend"),
            ("process", "process backend was removed"),
            ("distributed", "distributed backend was removed"),
        ],
    )
    def test_unknown_backend_name_fails_at_construction(self, name, message):
        # solver="normal" never resolves the backend, so only the
        # construction-time check can catch the bad name.
        with pytest.raises(ValueError, match=message):
            SolverConfig(solver="normal", backend=name)

    @pytest.mark.parametrize("name", [None, "serial", "thread"])
    def test_known_backend_name_constructs(self, name):
        assert SolverConfig(backend=name).backend == name
