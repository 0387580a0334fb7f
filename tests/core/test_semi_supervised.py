"""Unit tests for the semi-supervised SRDA extension."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.semi_supervised import SemiSupervisedSRDA
from repro.core.srda import SRDA


@pytest.fixture
def blobs(rng):
    centers = 6.0 * rng.standard_normal((3, 12))
    y = np.repeat(np.arange(3), 30)
    X = centers[y] + rng.standard_normal((90, 12))
    return X, y


def mask_labels(y, keep_per_class, rng):
    """Return a copy of y with all but `keep_per_class` per class = -1."""
    partial = np.full(y.shape, -1, dtype=np.int64)
    for label in np.unique(y):
        members = np.flatnonzero(y == label)
        keep = rng.permutation(members)[:keep_per_class]
        partial[keep] = label
    return partial


class TestSemiSupervisedSRDA:
    def test_fully_labeled_close_to_srda_predictions(self, blobs):
        X, y = blobs
        semi = SemiSupervisedSRDA(alpha=1.0, supervised_weight=10.0).fit(X, y)
        supervised = SRDA(alpha=1.0).fit(X, y)
        agreement = np.mean(semi.predict(X) == supervised.predict(X))
        assert agreement > 0.95

    def test_partial_labels_beat_tiny_supervised_fit(self, blobs, rng):
        """The point of the method: unlabeled structure helps when only
        a couple of labels per class exist."""
        X, y = blobs
        partial = mask_labels(y, keep_per_class=2, rng=rng)
        labeled = partial != -1

        semi = SemiSupervisedSRDA(alpha=1.0, n_neighbors=7).fit(X, partial)
        tiny = SRDA(alpha=1.0).fit(X[labeled], y[labeled])
        assert semi.score(X, y) >= tiny.score(X, y) - 0.05

    def test_embedding_shape(self, blobs, rng):
        X, y = blobs
        partial = mask_labels(y, 3, rng)
        model = SemiSupervisedSRDA().fit(X, partial)
        assert model.transform(X).shape == (90, 2)

    def test_explicit_components(self, blobs, rng):
        X, y = blobs
        partial = mask_labels(y, 3, rng)
        model = SemiSupervisedSRDA(n_components=1).fit(X, partial)
        assert model.transform(X).shape == (90, 1)

    def test_lsqr_solver_close_to_normal(self, blobs, rng):
        X, y = blobs
        partial = mask_labels(y, 5, rng)
        a = SemiSupervisedSRDA(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(X, partial)
        b = SemiSupervisedSRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-13,
        ).fit(X, partial)
        assert np.allclose(a.components_, b.components_, atol=1e-5)

    def test_predictions_only_use_known_classes(self, blobs, rng):
        X, y = blobs
        partial = mask_labels(y, 4, rng)
        model = SemiSupervisedSRDA().fit(X, partial)
        assert set(model.predict(X)) <= set(np.unique(y))

    def test_no_labels_rejected(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError, match="labeled"):
            SemiSupervisedSRDA().fit(X, np.full(90, -1))

    def test_one_class_rejected(self, blobs, rng):
        X, y = blobs
        partial = np.full(90, -1, dtype=np.int64)
        partial[:5] = 0
        with pytest.raises(ValueError, match="2 classes"):
            SemiSupervisedSRDA().fit(X, partial)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SemiSupervisedSRDA(alpha=-1.0)
        with pytest.raises(ValueError):
            SemiSupervisedSRDA(config=SolverConfig(solver="cg"))

    def test_label_length_mismatch(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            SemiSupervisedSRDA().fit(X, y[:-1])
