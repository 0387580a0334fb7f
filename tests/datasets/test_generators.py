"""Unit tests for the four synthetic dataset generators.

Each generator must (a) match the declared shape contract, (b) be
deterministic given a seed, (c) produce genuinely class-structured data
(a discriminant model beats chance comfortably) without being trivially
separable at one sample per class.
"""

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.srda import SRDA
from repro.datasets import (
    make_digits,
    make_faces,
    make_spoken_letters,
    make_text,
    per_class_split,
)
from repro.datasets.faces import PIE_IMAGES_PER_SUBJECT, PIE_SUBJECTS
from repro.datasets.text import NEWS_CLASSES


class TestFaces:
    def test_shape_contract(self):
        d = make_faces(n_subjects=5, images_per_subject=8, side=16, seed=0)
        assert d.X.shape == (40, 256)
        assert d.n_classes == 5
        assert d.metadata["split_protocol"] == "per_class_within"

    def test_default_shape_matches_table2(self):
        # don't generate the full set; just check the declared defaults
        assert PIE_SUBJECTS * PIE_IMAGES_PER_SUBJECT == 11560

    def test_pixels_in_unit_interval(self):
        d = make_faces(n_subjects=3, images_per_subject=5, side=16, seed=1)
        assert d.X.min() >= 0.0 and d.X.max() <= 1.0

    def test_deterministic(self):
        a = make_faces(n_subjects=3, images_per_subject=4, side=16, seed=7)
        b = make_faces(n_subjects=3, images_per_subject=4, side=16, seed=7)
        assert np.array_equal(a.X, b.X)

    def test_seed_changes_data(self):
        a = make_faces(n_subjects=3, images_per_subject=4, side=16, seed=7)
        b = make_faces(n_subjects=3, images_per_subject=4, side=16, seed=8)
        assert not np.array_equal(a.X, b.X)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            make_faces(n_subjects=2, images_per_subject=2, side=30)

    def test_class_structure_learnable(self, rng):
        d = make_faces(n_subjects=8, images_per_subject=20, side=16, seed=2)
        train, test = per_class_split(d.y, 8, rng)
        model = SRDA(alpha=1.0).fit(*d.subset(train))
        error = 1.0 - model.score(*d.subset(test))
        # 16x16 thumbnails carry less identity detail than the full 32x32;
        # chance error for 8 classes is 0.875
        assert error < 0.45

    def test_within_class_variation_exists(self):
        d = make_faces(n_subjects=2, images_per_subject=10, side=16, seed=3)
        first_class = d.X[d.y == 0]
        assert np.linalg.norm(first_class.std(axis=0)) > 0.1


class TestDigits:
    def test_shape_and_pools(self):
        d = make_digits(n_train=100, n_test=60, side=14, seed=0)
        assert d.X.shape == (160, 196)
        assert np.array_equal(d.metadata["train_pool"], np.arange(100))
        assert np.array_equal(d.metadata["test_pool"], np.arange(100, 160))
        assert d.metadata["split_protocol"] == "per_class_from_pool"

    def test_all_ten_digits_present_in_both_pools(self):
        d = make_digits(n_train=100, n_test=100, side=14, seed=0)
        assert set(d.y[d.metadata["train_pool"]]) == set(range(10))
        assert set(d.y[d.metadata["test_pool"]]) == set(range(10))

    def test_pixels_in_unit_interval(self):
        d = make_digits(n_train=50, n_test=50, side=14, seed=1)
        assert d.X.min() >= 0.0 and d.X.max() <= 1.0

    def test_deterministic(self):
        a = make_digits(n_train=30, n_test=30, side=14, seed=4)
        b = make_digits(n_train=30, n_test=30, side=14, seed=4)
        assert np.array_equal(a.X, b.X)

    def test_class_structure_learnable(self, rng):
        d = make_digits(n_train=300, n_test=300, seed=2)
        train = d.metadata["train_pool"]
        test = d.metadata["test_pool"]
        model = SRDA(alpha=1.0).fit(*d.subset(train))
        error = 1.0 - model.score(*d.subset(test))
        assert error < 0.2


class TestSpokenLetters:
    def test_shape_contract(self):
        d = make_spoken_letters(
            n_train_speakers=4, n_test_speakers=3, n_features=100, seed=0
        )
        assert d.X.shape == (7 * 26 * 2, 100)
        assert d.n_classes == 26
        assert d.metadata["train_pool"].shape[0] == 4 * 26 * 2
        assert d.metadata["test_pool"].shape[0] == 3 * 26 * 2

    def test_default_matches_paper_train_size(self):
        # isolet1&2 = 3120 training samples
        d = make_spoken_letters(
            n_train_speakers=60, n_test_speakers=2, n_features=20, seed=0
        )
        assert d.metadata["train_pool"].shape[0] == 3120

    def test_features_in_minus_one_one(self):
        d = make_spoken_letters(
            n_train_speakers=2, n_test_speakers=2, n_features=50, seed=1
        )
        assert d.X.min() >= -1.0 and d.X.max() <= 1.0

    def test_speaker_pools_disjoint(self):
        d = make_spoken_letters(
            n_train_speakers=3, n_test_speakers=3, n_features=40, seed=2
        )
        speakers = d.metadata["speaker_ids"]
        train_speakers = set(speakers[d.metadata["train_pool"]])
        test_speakers = set(speakers[d.metadata["test_pool"]])
        assert not train_speakers & test_speakers

    def test_deterministic(self):
        kwargs = dict(n_train_speakers=2, n_test_speakers=2,
                      n_features=30, seed=9)
        assert np.array_equal(
            make_spoken_letters(**kwargs).X, make_spoken_letters(**kwargs).X
        )

    def test_speaker_shift_hurts_generalization(self, rng):
        """Test error across speaker pools must exceed within-pool error —
        the distribution shift the original Isolet split has."""
        d = make_spoken_letters(
            n_train_speakers=8, n_test_speakers=8, n_features=150, seed=3
        )
        pool = d.metadata["train_pool"]
        test = d.metadata["test_pool"]
        y_pool = d.y[pool]
        # within-pool split
        half = rng.permutation(pool)
        train_within, test_within = half[: len(half) // 2], half[len(half) // 2 :]
        model = SRDA(alpha=1.0).fit(*d.subset(train_within))
        err_within = 1.0 - model.score(*d.subset(test_within))
        model = SRDA(alpha=1.0).fit(*d.subset(train_within))
        err_across = 1.0 - model.score(*d.subset(test))
        assert err_across > err_within


class TestText:
    def test_shape_and_sparsity(self):
        d = make_text(n_docs=200, vocab_size=3000, seed=0)
        assert d.X.shape == (200, 3000)
        assert d.is_sparse
        assert d.n_classes == NEWS_CLASSES
        # sparse: far fewer non-zeros than cells
        assert d.X.nnz < 0.2 * 200 * 3000

    def test_rows_unit_normalized(self):
        d = make_text(n_docs=100, vocab_size=2000, seed=1)
        assert np.allclose(d.X.row_norms(), 1.0, atol=1e-10)

    def test_balanced_classes(self):
        d = make_text(n_docs=200, vocab_size=2000, n_classes=4, seed=2)
        counts = np.bincount(d.y)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a = make_text(n_docs=50, vocab_size=1000, seed=5)
        b = make_text(n_docs=50, vocab_size=1000, seed=5)
        assert np.array_equal(a.X.data, b.X.data)
        assert np.array_equal(a.X.indices, b.X.indices)

    def test_class_structure_learnable(self, rng):
        from repro.datasets import ratio_split

        d = make_text(n_docs=800, vocab_size=4000, seed=3)
        train, test = ratio_split(d.y, 0.3, rng)
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15
        ).fit(*d.subset(train))
        error = 1.0 - model.score(*d.subset(test))
        assert error < 0.4

    def test_ratio_protocol_declared(self):
        d = make_text(n_docs=60, vocab_size=500, seed=0)
        assert d.metadata["split_protocol"] == "ratio"
        assert 0.05 in d.metadata["train_ratios"]
