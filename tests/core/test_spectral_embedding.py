"""Unit tests for the unsupervised spectral-regression embedding."""

import numpy as np
import pytest

from repro.core.base import NotFittedError
from repro.core.spectral_embedding import SpectralRegressionEmbedding


@pytest.fixture
def clusters(rng):
    """Three well-separated Gaussian clusters (unlabeled)."""
    centers = 8.0 * rng.standard_normal((3, 6))
    y = np.repeat(np.arange(3), 25)
    X = centers[y] + 0.8 * rng.standard_normal((75, 6))
    return X, y


class TestSpectralRegressionEmbedding:
    def test_embedding_shape(self, clusters):
        X, _ = clusters
        Z = SpectralRegressionEmbedding(n_components=2,
                                        n_neighbors=6).fit_transform(X)
        assert Z.shape == (75, 2)

    def test_clusters_separate_without_labels(self, clusters):
        X, y = clusters
        Z = SpectralRegressionEmbedding(n_components=2,
                                        n_neighbors=6).fit_transform(X)
        centroids = np.vstack([Z[y == k].mean(axis=0) for k in range(3)])
        within = np.mean([Z[y == k].std() for k in range(3)])
        between = np.linalg.norm(
            centroids[:, None] - centroids[None, :], axis=-1
        ).max()
        assert between > 3.0 * within

    def test_out_of_sample_extension(self, clusters, rng):
        X, y = clusters
        model = SpectralRegressionEmbedding(n_components=2,
                                            n_neighbors=6).fit(X)
        # unseen points near a cluster land near that cluster's embedding
        Z_train = model.transform(X)
        new_point = X[y == 0].mean(axis=0) + 0.1 * rng.standard_normal(6)
        z = model.transform(new_point[None, :])[0]
        cluster0 = Z_train[y == 0].mean(axis=0)
        others = [Z_train[y == k].mean(axis=0) for k in (1, 2)]
        assert np.linalg.norm(z - cluster0) < min(
            np.linalg.norm(z - other) for other in others
        )

    def test_solvers_agree(self, clusters):
        X, _ = clusters
        a = SpectralRegressionEmbedding(n_components=2, n_neighbors=6,
                                        solver="normal").fit(X)
        b = SpectralRegressionEmbedding(n_components=2, n_neighbors=6,
                                        solver="lsqr", max_iter=500,
                                        tol=1e-13).fit(X)
        assert np.allclose(a.components_, b.components_, atol=1e-5)

    def test_binary_affinity_mode(self, clusters):
        X, _ = clusters
        model = SpectralRegressionEmbedding(n_components=2, n_neighbors=6,
                                            affinity="binary").fit(X)
        assert np.all(np.isfinite(model.components_))

    def test_transform_is_affine(self, clusters):
        X, _ = clusters
        model = SpectralRegressionEmbedding(n_components=2,
                                            n_neighbors=6).fit(X)
        Z = model.transform(X)
        assert np.allclose(
            Z, X @ model.components_ + model.intercept_, atol=1e-12
        )

    def test_validation(self, clusters, rng):
        with pytest.raises(ValueError):
            SpectralRegressionEmbedding(n_components=0)
        with pytest.raises(ValueError):
            SpectralRegressionEmbedding(alpha=-1.0)
        with pytest.raises(ValueError):
            SpectralRegressionEmbedding(solver="cg")
        X = rng.standard_normal((4, 3))
        with pytest.raises(ValueError, match="n_components"):
            SpectralRegressionEmbedding(n_components=4, n_neighbors=2).fit(X)

    def test_unfitted(self, rng):
        with pytest.raises(NotFittedError):
            SpectralRegressionEmbedding().transform(
                rng.standard_normal((2, 3))
            )

    @pytest.mark.parametrize(
        "m, n_features, n_neighbors, n_components",
        [(60, 4, 6, 2), (400, 10, 11, 3)],
    )
    def test_responses_match_dense_responses(
        self, rng, m, n_features, n_neighbors, n_components
    ):
        """The leading-pair responses must match the full dense
        eigensolve used by graph_responses.  Uses a *connected* graph —
        on a disconnected one the top eigenvalue is degenerate (one per
        component) and the two solvers may legitimately return
        different bases of the same eigenspace.  The 400-sample,
        11-neighbour graph is one a 40-step Krylov space does not
        resolve (projection gap 1e-3)."""
        from repro.core.graph import graph_responses, knn_affinity

        # one cloud → connected kNN graph
        X = rng.standard_normal((m, n_features))
        W = knn_affinity(X, n_neighbors=n_neighbors, mode="heat")
        dense = graph_responses(W, n_components=n_components)
        model = SpectralRegressionEmbedding(
            n_components=n_components, n_neighbors=n_neighbors
        )
        leading = model._graph_responses(W)
        # same subspace up to sign/rotation: compare projections
        P_dense = dense @ np.linalg.pinv(dense)
        P_leading = leading @ np.linalg.pinv(leading)
        assert np.abs(P_dense - P_leading).max() < 1e-6
