"""Property-based tests for model and dataset persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SolverConfig
from repro.core.srda import SRDA
from repro.datasets.base import Dataset
from repro.datasets.cache import load_dataset, save_dataset
from repro.io import load_model, save_model
from repro.linalg.sparse import CSRMatrix


def classification_case(seed, max_m=25, max_n=10, max_c=4):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, max_c + 1))
    m = int(rng.integers(2 * c, max_m))
    n = int(rng.integers(2, max_n))
    y = np.concatenate([np.arange(c), rng.integers(0, c, m - c)])
    rng.shuffle(y)
    X = 2.0 * rng.standard_normal((c, n))[y] + rng.standard_normal((m, n))
    return X, y


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(1e-3, 1e3),
    st.sampled_from(["normal", "lsqr"]),
)
def test_srda_round_trip_preserves_behavior(tmp_path_factory, seed, alpha,
                                            solver):
    X, y = classification_case(seed)
    model = SRDA(
        alpha=alpha, config=SolverConfig(solver=solver), max_iter=50
    ).fit(X, y)
    path = tmp_path_factory.mktemp("models") / f"m{seed}"
    loaded = load_model(save_model(model, path))
    assert np.allclose(loaded.transform(X), model.transform(X), atol=1e-12)
    assert np.array_equal(loaded.predict(X), model.predict(X))
    assert loaded.alpha == model.alpha


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dense_dataset_round_trip(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 20))
    n = int(rng.integers(1, 8))
    dataset = Dataset(
        "toy",
        rng.standard_normal((m, n)),
        rng.integers(0, 3, m),
        metadata={"split_protocol": "ratio", "train_ratios": [0.5],
                  "pool": rng.integers(0, m, 4)},
    )
    path = tmp_path_factory.mktemp("datasets") / f"d{seed}"
    loaded = load_dataset(save_dataset(dataset, path))
    assert np.array_equal(loaded.X, dataset.X)
    assert np.array_equal(loaded.y, dataset.y)
    assert loaded.metadata["split_protocol"] == "ratio"
    assert np.array_equal(loaded.metadata["pool"], dataset.metadata["pool"])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sparse_dataset_round_trip(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 15))
    n = int(rng.integers(2, 10))
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) < 0.6] = 0.0
    dataset = Dataset(
        "toy", CSRMatrix.from_dense(dense), rng.integers(0, 2, m)
    )
    path = tmp_path_factory.mktemp("datasets") / f"s{seed}"
    loaded = load_dataset(save_dataset(dataset, path))
    assert loaded.is_sparse
    assert np.array_equal(loaded.X.to_dense(), dense)
    assert loaded.X.nnz == dataset.X.nnz
