"""Unit tests for the SRDA estimator."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.base import NotFittedError
from repro.core.responses import response_table_from_counts
from repro.core.solver_config import SolverConfig
from repro.core.srda import SRDA
from repro.linalg.sparse import CSRMatrix


class TestBasicBehavior:
    def test_fit_transform_shapes(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=1.0)
        Z = model.fit_transform(X, y)
        assert Z.shape == (X.shape[0], 2)  # c - 1 dimensions
        assert model.components_.shape == (X.shape[1], 2)
        assert model.intercept_.shape == (2,)

    def test_separable_data_classified_perfectly(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=1.0).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_predict_returns_original_labels(self, rng):
        X = rng.standard_normal((20, 5))
        X[10:] += 5.0
        y = np.array(["cat"] * 10 + ["dog"] * 10)
        model = SRDA(alpha=1.0).fit(X, y)
        assert set(model.predict(X)) <= {"cat", "dog"}
        assert model.score(X, y) == 1.0

    def test_responses_are_rows_of_the_count_table(self, rng):
        # fit and partial_fit build responses one way: the closed-form
        # table of the class counts, one row per sample, bit for bit.
        y = rng.permutation(np.repeat(np.arange(5), [3, 11, 7, 1, 18]))
        X = rng.standard_normal((y.shape[0], 6)) + y[:, None]
        expected = response_table_from_counts(np.bincount(y))[y]
        assert np.array_equal(SRDA(alpha=1.0).fit(X, y).responses_, expected)
        streamed = SRDA(alpha=1.0, config=SolverConfig(solver="lsqr"))
        streamed.partial_fit(X, y)
        assert np.array_equal(streamed.responses_, expected)

    def test_unfitted_raises(self, rng):
        with pytest.raises(NotFittedError):
            SRDA().transform(rng.standard_normal((3, 4)))
        with pytest.raises(NotFittedError):
            SRDA().predict(rng.standard_normal((3, 4)))

    def test_transform_feature_mismatch(self, small_classification):
        X, y = small_classification
        model = SRDA().fit(X, y)
        with pytest.raises(ValueError):
            model.transform(np.ones((2, X.shape[1] + 1)))

    def test_two_class_problem(self, rng):
        X = np.vstack([rng.standard_normal((15, 6)),
                       rng.standard_normal((15, 6)) + 3.0])
        y = np.repeat([0, 1], 15)
        model = SRDA(alpha=0.5).fit(X, y)
        assert model.components_.shape == (6, 1)
        assert model.score(X, y) == 1.0

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError):
            SRDA().fit(rng.standard_normal((5, 3)), np.zeros(5))

    def test_label_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            SRDA().fit(rng.standard_normal((5, 3)), np.zeros(4))


class TestParameters:
    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            SRDA(alpha=-1.0)

    def test_invalid_solver(self):
        with pytest.raises(ValueError):
            SRDA(config=SolverConfig(solver="cg"))

    def test_invalid_max_iter(self):
        with pytest.raises(ValueError):
            SRDA(max_iter=0)

    def test_alpha_controls_shrinkage(self, small_classification):
        # centered path penalizes exactly the projection vectors, so
        # their norm is monotone in alpha
        X, y = small_classification
        norms = [
            np.linalg.norm(
                SRDA(
                    alpha=alpha, config=SolverConfig(solver="normal")
                ).fit(X, y).components_
            )
            for alpha in (0.01, 1.0, 100.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_invalid_centering(self):
        with pytest.raises(ValueError):
            SRDA(centering="yes")

    def test_centering_resolution(self, small_classification, sparse_classification):
        X, y = small_classification
        assert SRDA().fit(X, y).centered_ is True
        S, _, ys = sparse_classification
        assert SRDA().fit(S, ys).centered_ is False

    def test_centered_normal_on_sparse_rejected(self, sparse_classification):
        S, _, y = sparse_classification
        with pytest.raises(ValueError, match="densifies"):
            SRDA(
                centering=True, config=SolverConfig(solver="normal")
            ).fit(S, y)

    def test_sparse_implicit_centering_matches_dense_centering(
        self, sparse_classification
    ):
        # centering=True on sparse input runs through CenteringOperator
        # and must match explicit dense centering exactly
        S, dense, y = sparse_classification
        implicit = SRDA(
            alpha=1.0,
            centering=True,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-14,
        ).fit(S, y)
        explicit = SRDA(
            alpha=1.0, centering=True, config=SolverConfig(solver="normal")
        ).fit(dense, y)
        assert np.allclose(
            implicit.components_, explicit.components_, atol=1e-6
        )
        assert np.allclose(implicit.intercept_, explicit.intercept_, atol=1e-6)

    def test_solver_used_reported(self, small_classification):
        X, y = small_classification
        assert SRDA(
            config=SolverConfig(solver="normal")
        ).fit(X, y).solver_used_ == "normal"
        assert SRDA(
            config=SolverConfig(solver="lsqr")
        ).fit(X, y).solver_used_ == "lsqr"
        # dense small input resolves to normal under auto
        assert SRDA(
            config=SolverConfig(solver="auto")
        ).fit(X, y).solver_used_ == "normal"

    def test_auto_prefers_lsqr_for_sparse(self, sparse_classification):
        S, _, y = sparse_classification
        model = SRDA(config=SolverConfig(solver="auto")).fit(S, y)
        assert model.solver_used_ == "lsqr"

    def test_auto_switches_to_lsqr_above_size_limit(
        self, small_classification, monkeypatch
    ):
        import repro.core.srda as srda_module

        X, y = small_classification
        monkeypatch.setattr(srda_module, "_AUTO_NORMAL_LIMIT", 5)
        model = SRDA(
            config=SolverConfig(solver="auto"), max_iter=200, tol=1e-12
        ).fit(X, y)
        assert model.solver_used_ == "lsqr"

    def test_lsqr_iteration_telemetry(self, small_classification):
        X, y = small_classification
        model = SRDA(
            config=SolverConfig(solver="lsqr"), max_iter=7, tol=0.0
        ).fit(X, y)
        assert model.lsqr_iterations_ == [7, 7]
        normal = SRDA(config=SolverConfig(solver="normal")).fit(X, y)
        assert normal.lsqr_iterations_ is None


class TestSolverAgreement:
    def test_normal_vs_lsqr(self, small_classification):
        X, y = small_classification
        a = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        b = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-14,
        ).fit(X, y)
        assert np.allclose(a.components_, b.components_, atol=1e-6)
        assert np.allclose(a.intercept_, b.intercept_, atol=1e-6)

    def test_primal_vs_dual_normal_path(self, rng):
        # n > m exercises the dual (Eqn 21) branch; compare against the
        # naive primal system on centered data formed explicitly.
        m, n = 12, 30
        X = rng.standard_normal((m, n))
        y = np.arange(m) % 3
        model = SRDA(alpha=0.7, config=SolverConfig(solver="normal")).fit(X, y)
        from repro.core.responses import generate_responses

        mean = X.mean(axis=0)
        centered = X - mean
        R = generate_responses(y, 3)
        ref = np.linalg.solve(
            centered.T @ centered + 0.7 * np.eye(n), centered.T @ R
        )
        assert np.allclose(model.components_, ref, atol=1e-8)
        assert np.allclose(model.intercept_, -(mean @ ref), atol=1e-8)

    def test_augmented_path_matches_paper_formulation(self, rng):
        # centering=False reproduces the Section III-B augmented system
        m, n = 20, 8
        X = rng.standard_normal((m, n))
        y = np.arange(m) % 3
        model = SRDA(
            alpha=0.7, config=SolverConfig(solver="normal"), centering=False
        ).fit(X, y)
        from repro.core.responses import generate_responses

        X_aug = np.hstack([X, np.ones((m, 1))])
        R = generate_responses(y, 3)
        ref = np.linalg.solve(
            X_aug.T @ X_aug + 0.7 * np.eye(n + 1), X_aug.T @ R
        )
        assert np.allclose(model.components_, ref[:-1], atol=1e-8)
        assert np.allclose(model.intercept_, ref[-1], atol=1e-8)

    def test_augmented_dual_matches_paper_formulation(self, rng):
        # n + 1 > m: the bordered dual XXᵀ + 11ᵀ with weights [XᵀB; 1ᵀB]
        m, n = 12, 30
        X = rng.standard_normal((m, n))
        y = np.arange(m) % 3
        model = SRDA(
            alpha=0.7, config=SolverConfig(solver="normal"), centering=False
        ).fit(X, y)
        from repro.core.responses import generate_responses

        X_aug = np.hstack([X, np.ones((m, 1))])
        R = generate_responses(y, 3)
        ref = np.linalg.solve(
            X_aug.T @ X_aug + 0.7 * np.eye(n + 1), X_aug.T @ R
        )
        assert np.allclose(model.components_, ref[:-1], atol=1e-8)
        assert np.allclose(model.intercept_, ref[-1], atol=1e-8)

    @pytest.mark.parametrize("m", [12, 40])
    def test_zero_variance_count_on_both_sides(self, rng, m):
        # primal (m > n) counts from the Gram's diagonal, dual from X̄
        X = rng.standard_normal((m, 20))
        X[:, [2, 9]] = 7.0
        model = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(
            X, np.arange(m) % 3
        )
        assert "2 features have zero variance" in " ".join(
            model.fit_report_.warnings
        )

    def test_sparse_equals_dense(self, sparse_classification):
        # same formulation (bias absorption) on both storage layouts
        S, dense, y = sparse_classification
        sparse_model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-14,
        ).fit(S, y)
        dense_model = SRDA(alpha=1.0, config=SolverConfig(solver="normal"),
                           centering=False).fit(dense, y)
        assert np.allclose(
            sparse_model.components_, dense_model.components_, atol=1e-6
        )

    def test_scipy_sparse_input(self, sparse_classification):
        _, dense, y = sparse_classification
        scipy_model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=500,
            tol=1e-14,
        ).fit(sp.csr_matrix(dense), y)
        dense_model = SRDA(alpha=1.0, config=SolverConfig(solver="normal"),
                           centering=False).fit(dense, y)
        assert np.allclose(
            scipy_model.components_, dense_model.components_, atol=1e-6
        )

    def test_centered_and_augmented_agree_as_alpha_vanishes(
        self, sparse_classification
    ):
        # the two III-B realizations differ only through the penalized
        # bias, an O(α) effect: they coincide in the α → 0 limit
        _, dense, y = sparse_classification
        centered = SRDA(
            alpha=1e-10, config=SolverConfig(solver="normal")
        ).fit(dense, y)
        augmented = SRDA(alpha=1e-10, config=SolverConfig(solver="normal"),
                         centering=False).fit(dense, y)
        Z1 = centered.transform(dense)
        Z2 = augmented.transform(dense)
        assert np.allclose(Z1, Z2, atol=1e-4)

    def test_sparse_transform_and_predict(self, sparse_classification):
        S, dense, y = sparse_classification
        model = SRDA(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=300,
            tol=1e-13,
        ).fit(S, y)
        assert np.allclose(model.transform(S), model.transform(dense), atol=1e-9)
        assert np.array_equal(model.predict(S), model.predict(dense))


class TestNormalPathMemory:
    """The primal normal path holds one Gram, never a modified copy of X."""

    @pytest.mark.parametrize("centering", ["auto", False])
    def test_fit_peak_below_half_the_data(self, rng, centering):
        X = rng.standard_normal((6000, 200))
        y = rng.integers(0, 10, 6000)

        def fit():
            return SRDA(
                centering=centering, config=SolverConfig(solver="normal")
            ).fit(X, y)

        fit()  # lazy imports outside the traced window
        tracemalloc.start()
        try:
            model = fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.fit_report_.solver == "cholesky"
        assert peak < X.nbytes / 2


class TestInvariances:
    def test_label_permutation_invariance(self, small_classification, rng):
        # relabeling classes must not change the embedding subspace
        X, y = small_classification
        mapping = np.array([2, 0, 1])
        a = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        b = SRDA(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(X, mapping[y])
        Za, Zb = a.transform(X), b.transform(X)
        # compare class-centroid pairwise distances (rotation invariant)
        def centroid_distances(Z, labels):
            cents = np.vstack([Z[labels == k].mean(axis=0) for k in range(3)])
            return np.sort(
                np.linalg.norm(cents[:, None] - cents[None, :], axis=-1),
                axis=None,
            )
        da = centroid_distances(Za, y)
        db = centroid_distances(Zb, mapping[y])
        assert np.allclose(da, db, atol=1e-6)

    def test_sample_order_invariance(self, small_classification, rng):
        X, y = small_classification
        perm = rng.permutation(X.shape[0])
        a = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        b = SRDA(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(X[perm], y[perm])
        assert np.allclose(a.components_, b.components_, atol=1e-8)
        assert np.allclose(a.intercept_, b.intercept_, atol=1e-8)

    def test_translation_invariance_of_predictions(self, small_classification):
        # the absorbed intercept makes predictions shift-invariant
        X, y = small_classification
        shift = 100.0 * np.ones(X.shape[1])
        a = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        b = SRDA(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(X + shift, y)
        assert np.array_equal(a.predict(X), b.predict(X + shift))

    def test_duplicated_dataset_same_direction(self, small_classification):
        # duplicating every sample scales the Gram matrix but should not
        # change predictions
        X, y = small_classification
        X2 = np.vstack([X, X])
        y2 = np.concatenate([y, y])
        a = SRDA(alpha=1e-8, config=SolverConfig(solver="normal")).fit(X, y)
        b = SRDA(alpha=1e-8, config=SolverConfig(solver="normal")).fit(X2, y2)
        assert np.array_equal(a.predict(X), b.predict(X))


class TestBlockPath:
    """SRDA's LSQR fit carries every response column through one blocked
    Golub–Kahan iteration.  It must produce the same model and the same
    fit diagnostics as one sequential reference LSQR solve per column
    (the ``sequential_lsqr_srda`` fixture)."""

    # Seeds 0, 1, 6 and 9 are fixtures on which the two paths' iteration
    # counts already differ by one with the plain GEMM orientation.
    @pytest.mark.parametrize("rng", [12345, 0, 1, 6, 9], indirect=True)
    def test_block_matches_sequential_dense(
        self, small_classification, sequential_lsqr_srda
    ):
        X, y = small_classification
        kwargs = dict(
            alpha=0.5, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0
        )
        blocked = SRDA(**kwargs).fit(X, y)
        sequential = sequential_lsqr_srda(**kwargs).fit(X, y)
        assert np.allclose(
            blocked.components_, sequential.components_, atol=1e-10
        )
        assert np.allclose(
            blocked.intercept_, sequential.intercept_, atol=1e-10
        )
        assert (
            blocked.fit_report_.lsqr_istop
            == sequential.fit_report_.lsqr_istop
        )
        # Past the rank (10) every column stops on istop 4 or 5, whose
        # tests compare against machine epsilon, so rounding in the
        # product (GEMM vs GEMV) decides which iteration that lands on.
        for model in (blocked, sequential):
            assert set(model.fit_report_.lsqr_istop) <= {4, 5}
        gaps = np.subtract(
            blocked.lsqr_iterations_, sequential.lsqr_iterations_
        )
        assert np.abs(gaps).max() <= 1
        assert np.array_equal(blocked.predict(X), sequential.predict(X))

    def test_block_matches_sequential_sparse(
        self, sparse_classification, sequential_lsqr_srda
    ):
        # 12 iterations: past that, the fixture's ill conditioning
        # amplifies summation-order rounding through the Golub–Kahan
        # recurrence (both paths drift from exact arithmetic equally).
        matrix, _, y = sparse_classification
        kwargs = dict(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=12, tol=0.0
        )
        blocked = SRDA(**kwargs).fit(matrix, y)
        sequential = sequential_lsqr_srda(**kwargs).fit(matrix, y)
        assert np.allclose(
            blocked.components_, sequential.components_, atol=1e-10
        )
        assert blocked.fit_report_.lsqr_istop == (
            sequential.fit_report_.lsqr_istop
        )

    def test_block_matches_sequential_tolerance_stopping(
        self, sparse_classification, sequential_lsqr_srda
    ):
        matrix, _, y = sparse_classification
        kwargs = dict(
            alpha=1.0,
            config=SolverConfig(solver="lsqr"),
            max_iter=200,
            tol=1e-8,
        )
        blocked = SRDA(**kwargs).fit(matrix, y)
        sequential = sequential_lsqr_srda(**kwargs).fit(matrix, y)
        scale = max(1.0, np.max(np.abs(sequential.components_)))
        assert (
            np.max(np.abs(blocked.components_ - sequential.components_))
            / scale
            < 5e-8
        )

    def test_block_warm_start(self, small_classification, sequential_lsqr_srda):
        X, y = small_classification
        kwargs = dict(
            alpha=0.5,
            config=SolverConfig(solver="lsqr"),
            max_iter=10,
            tol=0.0,
            warm_start=True,
        )
        blocked = SRDA(**kwargs)
        sequential = sequential_lsqr_srda(**kwargs)
        for model in (blocked, sequential):
            model.fit(X, y)
            model.fit(X, y)  # second fit starts from the first solution
        assert np.allclose(
            blocked.components_, sequential.components_, atol=1e-9
        )
        assert blocked.lsqr_iterations_ == sequential.lsqr_iterations_

    def test_block_knob_is_gone(self):
        # Blocked LSQR is the only LSQR engine; the old escape hatch
        # must not linger as a silently ignored parameter.
        assert "block" not in SRDA().get_params()
        with pytest.raises(TypeError, match="block"):
            SRDA(block=False)


class TestAlphaPath:
    def test_matches_cold_fits(self, sparse_classification):
        from repro.core.srda import srda_alpha_path

        matrix, _, y = sparse_classification
        alphas = [0.01, 0.5, 1.0, 10.0]
        models = srda_alpha_path(matrix, y, alphas, max_iter=15, tol=0.0)
        assert len(models) == len(alphas)
        for alpha, model in zip(alphas, models):
            cold = SRDA(
                alpha=alpha,
                config=SolverConfig(solver="lsqr"),
                max_iter=15,
                tol=0.0,
            ).fit(matrix, y)
            assert np.array_equal(model.components_, cold.components_)
            assert np.array_equal(model.intercept_, cold.intercept_)
            assert np.allclose(model.centroids_, cold.centroids_, atol=1e-8)
            assert model.lsqr_iterations_ == cold.lsqr_iterations_
            assert (
                model.fit_report_.lsqr_istop == cold.fit_report_.lsqr_istop
            )
            assert np.array_equal(model.predict(matrix), cold.predict(matrix))

    def test_dense_centered_path(self, small_classification):
        from repro.core.srda import srda_alpha_path

        X, y = small_classification
        models = srda_alpha_path(X, y, [0.1, 1.0], max_iter=15, tol=0.0)
        for alpha, model in zip((0.1, 1.0), models):
            cold = SRDA(
                alpha=alpha,
                config=SolverConfig(solver="lsqr"),
                max_iter=15,
                tol=0.0,
            ).fit(X, y)
            assert model.centered_ is True
            assert np.array_equal(model.components_, cold.components_)
            assert np.array_equal(model.intercept_, cold.intercept_)

    def test_one_data_pass_for_whole_grid(
        self, sparse_classification, monkeypatch
    ):
        """The alpha grid costs one bidiagonalization: the operator
        product count is independent of the number of alphas."""
        import repro.core.srda as srda_module
        from repro.core.srda import srda_alpha_path

        matrix, _, y = sparse_classification
        max_iter = 10

        def count_products(alphas):
            captured = []
            real = srda_module.as_operator

            def spy(data):
                op = real(data)
                captured.append(op)
                return op

            monkeypatch.setattr(srda_module, "as_operator", spy)
            srda_alpha_path(matrix, y, alphas, max_iter=max_iter, tol=0.0)
            monkeypatch.setattr(srda_module, "as_operator", real)
            base = captured[0]
            return (
                base.n_matmat
                + base.n_rmatmat
                + base.n_matvec
                + base.n_rmatvec
            )

        one = count_products([1.0])
        nine = count_products([0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
        # recording: max_iter matmats + (max_iter + 1) rmatmats, plus
        # one rmatmat for the class-mean centroids
        assert one == 2 * max_iter + 2
        assert nine == one

    def test_empty_grid(self, sparse_classification):
        from repro.core.srda import srda_alpha_path

        matrix, _, y = sparse_classification
        assert srda_alpha_path(matrix, y, []) == []

    def test_negative_alpha_rejected(self, sparse_classification):
        from repro.core.srda import srda_alpha_path

        matrix, _, y = sparse_classification
        with pytest.raises(ValueError):
            srda_alpha_path(matrix, y, [1.0, -0.5])
