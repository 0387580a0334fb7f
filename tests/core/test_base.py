"""Unit tests for the shared estimator machinery."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.base import (
    LinearEmbedder,
    NotFittedError,
    as_dense,
    class_counts,
    encode_labels,
    validate_data,
)
from repro.linalg import kernels
from repro.linalg.dense import dense_matmul
from repro.linalg.sparse import CSRMatrix


class TestLabelEncoding:
    def test_integer_labels(self):
        classes, idx = encode_labels(np.array([3, 1, 3, 7]))
        assert np.array_equal(classes, [1, 3, 7])
        assert np.array_equal(idx, [1, 0, 1, 2])

    def test_string_labels(self):
        classes, idx = encode_labels(np.array(["b", "a", "b"]))
        assert np.array_equal(classes, ["a", "b"])
        assert np.array_equal(idx, [1, 0, 1])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            encode_labels(np.zeros((2, 2)))

    def test_class_counts(self):
        _, idx = encode_labels(np.array([0, 0, 1, 2, 2, 2]))
        assert np.array_equal(class_counts(idx, 3), [2, 1, 3])

    def test_class_counts_minlength(self):
        assert np.array_equal(class_counts(np.array([0, 0]), 3), [2, 0, 0])


class TestValidateData:
    def test_dense_passthrough(self, rng):
        X = rng.standard_normal((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        X_out, classes, idx = validate_data(X, y)
        assert np.array_equal(X_out, X)
        assert np.array_equal(classes, [0, 1])

    def test_sparse_not_densified(self, rng):
        X = CSRMatrix.from_dense(rng.standard_normal((4, 3)))
        X_out, _, _ = validate_data(X, np.array([0, 1, 0, 1]))
        assert X_out is X

    def test_scipy_sparse_not_densified(self, rng):
        X = sp.csr_matrix(rng.standard_normal((4, 3)))
        X_out, _, _ = validate_data(X, np.array([0, 1, 0, 1]))
        assert X_out is X

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="samples"):
            validate_data(rng.standard_normal((4, 3)), np.zeros(5))

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError, match="2 classes"):
            validate_data(rng.standard_normal((4, 3)), np.zeros(4))

    def test_rejects_3d(self, rng):
        with pytest.raises(ValueError):
            validate_data(rng.standard_normal((2, 3, 4)), np.array([0, 1]))

    def test_rejects_nan(self, rng):
        X = rng.standard_normal((4, 3))
        X[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            validate_data(X, np.array([0, 1, 0, 1]))

    def test_rejects_inf(self, rng):
        X = rng.standard_normal((4, 3))
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="infinity"):
            validate_data(X, np.array([0, 1, 0, 1]))

    def test_rejects_nan_in_sparse(self, rng):
        dense = rng.standard_normal((4, 3))
        dense[dense < 0] = 0.0
        dense[0, 0] = np.nan
        X = CSRMatrix.from_dense(dense)
        with pytest.raises(ValueError, match="NaN"):
            validate_data(X, np.array([0, 1, 0, 1]))


class TestAsDense:
    def test_our_csr(self, rng):
        dense = rng.standard_normal((3, 4))
        assert np.allclose(as_dense(CSRMatrix.from_dense(dense)), dense)

    def test_scipy(self, rng):
        dense = rng.standard_normal((3, 4))
        assert np.allclose(as_dense(sp.csr_matrix(dense)), dense)

    def test_ndarray_passthrough(self, rng):
        dense = rng.standard_normal((3, 4))
        assert np.array_equal(as_dense(dense), dense)


class _FixedEmbedder(LinearEmbedder):
    """Trivial embedder projecting onto given components (for testing)."""

    def fit(self, X, y):
        X, classes, y_idx = validate_data(X, y)
        self.classes_ = classes
        self.components_ = np.eye(X.shape[1])[:, :2]
        self.intercept_ = np.zeros(2)
        self._store_centroids(self.transform(X), y_idx)
        return self


class TestLinearEmbedder:
    def test_nearest_centroid_predict(self, rng):
        X = np.vstack([rng.standard_normal((10, 4)),
                       rng.standard_normal((10, 4)) + np.array([5, 5, 0, 0])])
        y = np.repeat([0, 1], 10)
        model = _FixedEmbedder().fit(X, y)
        assert model.score(X, y) == 1.0

    def test_intercept_applied(self, rng):
        X = rng.standard_normal((6, 4))
        y = np.array([0, 1] * 3)
        model = _FixedEmbedder().fit(X, y)
        model.intercept_ = np.array([10.0, -10.0])
        Z = model.transform(X)
        assert np.allclose(Z, X[:, :2] + model.intercept_)

    @pytest.mark.parametrize("kind", ["dense", "csr", "scipy", "float32"])
    def test_intercept_added_in_place(self, rng, kind):
        """One ``(m, d)`` embedding: the intercept lands in the product's
        own array, with the bits of ``product + intercept``."""
        dense = rng.standard_normal((3000, 40))
        model = _FixedEmbedder().fit(dense, np.arange(3000) % 2)
        model.components_ = rng.standard_normal((40, 6))
        model.intercept_ = rng.standard_normal(6)
        X = {
            "dense": dense,
            "csr": CSRMatrix.from_dense(dense),
            "scipy": sp.csr_matrix(dense),
            "float32": dense.astype(np.float32),
        }[kind]
        dtype = np.float32 if kind == "float32" else np.float64
        components = model.components_.astype(dtype)

        def product():
            if kind == "csr":
                return kernels.csr_matmat(X, components)
            if kind == "scipy":
                return np.asarray(X @ components)
            return dense_matmul(X, components)

        def traced_peak(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        embedding, product_peak = traced_peak(product)
        want = embedding + model.intercept_.astype(dtype)
        Z, peak = traced_peak(lambda: model.transform(X))
        assert Z.dtype == want.dtype and Z.tobytes() == want.tobytes()
        # no second (m, d) embedding beyond what the product needs
        assert peak < product_peak + 0.5 * want.nbytes

    def test_not_fitted(self, rng):
        with pytest.raises(NotFittedError):
            _FixedEmbedder().transform(rng.standard_normal((2, 4)))

    def test_transform_rejects_1d(self, rng):
        model = _FixedEmbedder().fit(
            rng.standard_normal((6, 4)), np.array([0, 1] * 3)
        )
        with pytest.raises(ValueError):
            model.transform(np.ones(4))
