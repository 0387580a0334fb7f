"""Integration tests of the paper's equivalence claims across modules."""

import contextlib

import numpy as np
import pytest

from repro import (
    LDA,
    RLDA,
    SRDA,
    SemiSupervisedSRDA,
    SpectralRegressionEmbedding,
)
from repro.baselines.ridge import RidgeClassifier
from repro.core.graph import lda_weight_matrix
from repro.core.responses import generate_responses
from repro.core.solver_config import SolverConfig
from repro.core.srda import srda_alpha_path
from repro.linalg.dense import ridge_solution
from repro.linalg.kernels import compiled_available
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    as_operator,
)
from repro.linalg.sparse import CSRMatrix
from repro.parallel.sharded import default_shard_count
from repro.robustness import RobustnessWarning
from tests.lsqr_reference import scipy_lsqr


class TestAppendOnesEqualsCentering:
    """Section III-B: appending a constant feature and fitting a bias is
    equivalent (for predictions) to regressing on centered data."""

    def test_fitted_values_agree_in_alpha_zero_limit(self, rng):
        m, n = 25, 8
        X = rng.standard_normal((m, n))
        y = np.arange(m) % 3
        responses = generate_responses(y, 3)
        ybar = responses[:, 0]

        # path 1: augmented, un-centered
        aug = np.hstack([X, np.ones((m, 1))])
        a_aug = np.linalg.lstsq(aug, ybar, rcond=None)[0]
        fitted_aug = aug @ a_aug

        # path 2: centered, no bias (ȳ ⊥ 1 so no target centering needed)
        centered = X - X.mean(axis=0)
        a_cen = np.linalg.lstsq(centered, ybar, rcond=None)[0]
        fitted_cen = centered @ a_cen

        assert np.allclose(fitted_aug, fitted_cen, atol=1e-8)

    def test_operator_paths_agree_via_lsqr(self, rng):
        m, n = 30, 10
        dense = rng.standard_normal((m, n))
        dense[np.abs(dense) < 0.7] = 0.0
        csr = CSRMatrix.from_dense(dense)
        y = np.arange(m) % 4
        ybar = generate_responses(y, 4)[:, 0]

        aug_result = scipy_lsqr(
            AppendOnesOperator(as_operator(csr)), ybar,
            atol=1e-13, btol=1e-13, iter_lim=3000,
        )
        cen_result = scipy_lsqr(
            CenteringOperator(as_operator(csr)), ybar,
            atol=1e-13, btol=1e-13, iter_lim=3000,
        )
        fitted_aug = np.hstack([dense, np.ones((m, 1))]) @ aug_result.x
        fitted_cen = (dense - dense.mean(axis=0)) @ cen_result.x
        assert np.allclose(fitted_aug, fitted_cen, atol=1e-6)


class TestSRDAvsRLDAvsLDA:
    def test_all_three_match_in_the_oversampled_zero_alpha_limit(self, rng):
        """m ≫ n with nonsingular scatter: LDA is well posed and both
        regularized methods converge to it as α → 0 — compare embedding
        subspaces via projection operators on the data."""
        m, n, c = 120, 8, 3
        centers = 4.0 * rng.standard_normal((c, n))
        y = np.repeat(np.arange(c), m // c)
        X = centers[y] + rng.standard_normal((m, n))

        Z_lda = LDA().fit(X, y).transform(X)
        Z_rlda = RLDA(alpha=1e-9).fit(X, y).transform(X)
        Z_srda = SRDA(
            alpha=1e-9, config=SolverConfig(solver="normal")
        ).fit_transform(X, y)

        def projector(Z):
            Q, _ = np.linalg.qr(Z - Z.mean(axis=0))
            return Q @ Q.T

        # all three embeddings span the same 2-D subspace of sample space
        P_lda = projector(Z_lda)
        assert np.abs(P_lda - projector(Z_rlda)).max() < 1e-4
        assert np.abs(P_lda - projector(Z_srda)).max() < 1e-4

    def test_srda_predictions_match_lda_on_separable_data(self, rng):
        m, n, c = 90, 12, 3
        centers = 6.0 * rng.standard_normal((c, n))
        y = np.repeat(np.arange(c), m // c)
        X = centers[y] + rng.standard_normal((m, n))
        X_new = centers[y] + rng.standard_normal((m, n))
        lda_pred = LDA().fit(X, y).predict(X_new)
        srda_pred = SRDA(
            alpha=1e-8, config=SolverConfig(solver="normal")
        ).fit(X, y).predict(X_new)
        assert np.mean(lda_pred == srda_pred) > 0.97


class TestGraphViewMatchesScatterView:
    def test_lda_from_graph_matrix_matches_baseline(self, rng):
        """Solve the LDA eigenproblem directly from the W-matrix
        formulation (Eqn 8) with dense tools and compare to the SVD-route
        baseline."""
        from repro.linalg.dense import generalized_eigh

        m, n, c = 40, 6, 3
        y = np.arange(m) % c
        X = rng.standard_normal((m, n)) + 2.0 * rng.standard_normal((c, n))[y]
        centered = X - X.mean(axis=0)
        W = lda_weight_matrix(y, c)
        Sb = centered.T @ W @ centered
        St = centered.T @ centered
        eigvals, eigvecs = generalized_eigh(Sb, St, regularization=1e-10)

        baseline = LDA().fit(X, y)
        assert np.allclose(
            eigvals[: c - 1], baseline.eigenvalues_, atol=1e-5
        )
        Q1, _ = np.linalg.qr(eigvecs[:, : c - 1])
        Q2, _ = np.linalg.qr(baseline.components_)
        assert np.abs(Q1 @ Q1.T - Q2 @ Q2.T).max() < 1e-4


class TestLSQRIterationSufficiency:
    def test_twenty_iterations_near_converged(self, rng):
        """'LSQR converges very fast ... 20 iterations are enough': after
        20 iterations the SRDA components must be close to the exact
        ridge solution on a realistic-shaped problem."""
        m, n, c = 200, 300, 5
        y = np.arange(m) % c
        X = rng.standard_normal((m, n)) + rng.standard_normal((c, n))[y]
        exact = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        iterative = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=20, tol=0.0
        ).fit(X, y)
        # compare embeddings (what matters downstream)
        Z_exact = exact.transform(X)
        Z_iter = iterative.transform(X)
        rel = np.linalg.norm(Z_exact - Z_iter) / np.linalg.norm(Z_exact)
        assert rel < 0.05
        assert np.mean(exact.predict(X) == iterative.predict(X)) > 0.98


# ----------------------------------------------------------------------
# Cross-path oracle: every ridge path against one reference
# ----------------------------------------------------------------------
#
# SRDA's regression stage solves ``(X̄ᵀX̄ + αI) A = X̄ᵀȲ`` on the centered
# (Eqn 14) or ones-augmented (Section III-B) matrix.  Every way the
# package can reach that solution — normal equations (primal or dual
# Eqn 21), blocked LSQR, sketch-preconditioned LSQR, sharded products on
# every backend, a partial_fit stream, either kernel backend, and the
# other estimators that share the stage — is checked here against
# ``repro.linalg.dense.ridge_solution`` on the same matrix and targets.

#: The reference forms the primal ``n × n`` Gram even on the wide
#: fixture.  At α = 1 that Gram has κ ≈ 300 and the reference itself is
#: ~3e-12 off its largest entry (the dual and LSQR paths agree with each
#: other to 2e-14 there, and an extended-precision dual solve sides with
#: them); α = 5 keeps the reference's own error near 1.5e-13.
ALPHA = 5.0
#: Iterative rows run to convergence so they can meet the 1e-12 bound.
CONVERGED = {"max_iter": 2000, "tol": 1e-15}
RELATIVE_BOUND = 1e-12

needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled kernel extension not built"
)


def _oracle_problem(name):
    """``(X, dense copy, y)`` for one shared fixture, 4 classes."""
    rng = np.random.default_rng({"tall": 11, "wide": 12, "sparse": 13}[name])
    m, n = {"tall": (120, 30), "wide": (40, 90), "sparse": (1040, 40)}[name]
    y = np.arange(m) % 4
    dense = rng.standard_normal((m, n)) + 1.5 * rng.standard_normal((4, n))[y]
    if name != "sparse":
        return dense, dense, y
    dense[rng.random((m, n)) < 0.8] = 0.0
    # big enough that sharded rows really split the rows (2 shards)
    assert default_shard_count(m) == 2
    return CSRMatrix.from_dense(dense), dense, y


@pytest.fixture(scope="module", params=["tall", "wide", "sparse"])
def oracle_problem(request):
    return (request.param,) + _oracle_problem(request.param)


def _reference(dense, targets, center):
    """Stacked ``[components; intercept]`` of the exact ridge solution."""
    if center:
        mean = dense.mean(axis=0)
        components = ridge_solution(dense - mean, targets, ALPHA)
        return np.vstack([components, -(mean @ components)[None, :]])
    ones = np.ones((dense.shape[0], 1))
    return ridge_solution(np.hstack([dense, ones]), targets, ALPHA)


def _assert_near_reference(components, intercept, reference):
    got = np.vstack([components, np.asarray(intercept)[None, :]])
    assert got.shape == reference.shape
    error = np.max(np.abs(got - reference))
    assert error <= RELATIVE_BOUND * np.max(np.abs(reference)), error


def _assert_bitwise(a, b, X):
    assert a.components_.tobytes() == b.components_.tobytes()
    assert a.intercept_.tobytes() == b.intercept_.tobytes()
    assert np.array_equal(a.predict(X), b.predict(X))


SRDA_PATHS = {
    "normal": {"solver": "normal"},
    "lsqr": {"solver": "lsqr"},
    "sketched_lsqr": {"solver": "sketched_lsqr"},
    "sharded_serial": {"solver": "lsqr", "backend": "serial"},
    "sharded_thread": {"solver": "lsqr", "backend": "thread", "n_jobs": 2},
    "reference_kernels": {"solver": "lsqr", "kernel_backend": "reference"},
    "compiled_kernels": {"solver": "lsqr", "kernel_backend": "compiled"},
}


class TestRidgeOracle:
    """Every path of the shared regression stage meets one reference."""

    def _fit(self, oracle_problem, **config):
        name, X, dense, y = oracle_problem
        settings = {} if config.get("solver") == "normal" else CONVERGED
        model = SRDA(alpha=ALPHA, config=SolverConfig(**config), **settings)
        if name == "wide" and config.get("solver") == "sketched_lsqr":
            with pytest.warns(RobustnessWarning, match="n >= m"):
                return model.fit(X, y)
        return model.fit(X, y)

    @pytest.mark.parametrize(
        "path",
        [
            pytest.param(path, marks=needs_compiled)
            if path == "compiled_kernels"
            else path
            for path in SRDA_PATHS
        ],
    )
    def test_srda_path_matches_reference(self, oracle_problem, path):
        _, X, dense, _ = oracle_problem
        model = self._fit(oracle_problem, **SRDA_PATHS[path])
        reference = _reference(dense, model.responses_, model.centered_)
        _assert_near_reference(model.components_, model.intercept_, reference)
        if path.startswith("sharded"):
            # every sharded product equals the direct one byte for byte
            direct = self._fit(oracle_problem, **SRDA_PATHS["lsqr"])
            _assert_bitwise(model, direct, X)

    @pytest.mark.parametrize("solver", ["lsqr", "sketched_lsqr"])
    def test_alpha_path_matches_reference(self, oracle_problem, solver):
        name, X, dense, y = oracle_problem
        falls_back = name == "wide" and solver == "sketched_lsqr"
        with (
            pytest.warns(RobustnessWarning, match="n >= m")
            if falls_back
            else contextlib.nullcontext()
        ):
            _, model = srda_alpha_path(
                X, y, [0.5, ALPHA], config=SolverConfig(solver=solver),
                **CONVERGED,
            )
        assert model.alpha == ALPHA
        reference = _reference(dense, model.responses_, model.centered_)
        _assert_near_reference(model.components_, model.intercept_, reference)

    def test_partial_fit_stream_matches_reference(self, oracle_problem):
        name, X, dense, y = oracle_problem
        half = dense.shape[0] // 2
        batches = [dense[:half], dense[half:]]
        if name == "sparse":
            batches = [CSRMatrix.from_dense(batch) for batch in batches]
        model = SRDA(
            alpha=ALPHA, config=SolverConfig(solver="lsqr"), **CONVERGED
        )
        model.partial_fit(batches[0], y[:half])
        model.partial_fit(batches[1], y[half:])
        assert model.fit_report_.incremental["batches"] == 2
        reference = _reference(dense, model.responses_, model.centered_)
        _assert_near_reference(model.components_, model.intercept_, reference)

    @needs_compiled
    def test_kernel_backends_agree_bitwise(self, oracle_problem):
        X = oracle_problem[1]
        reference = self._fit(oracle_problem, **SRDA_PATHS["reference_kernels"])
        compiled = self._fit(oracle_problem, **SRDA_PATHS["compiled_kernels"])
        _assert_bitwise(reference, compiled, X)

    def test_shard_backends_agree_bitwise(self, oracle_problem):
        X = oracle_problem[1]
        serial = self._fit(oracle_problem, **SRDA_PATHS["sharded_serial"])
        threaded = self._fit(oracle_problem, **SRDA_PATHS["sharded_thread"])
        assert serial.fit_report_.backend == "serial"
        assert threaded.fit_report_.backend == "thread"
        _assert_bitwise(serial, threaded, X)

    @pytest.mark.parametrize("solver", ["normal", "lsqr"])
    def test_semi_supervised_matches_reference(self, oracle_problem, solver):
        _, X, dense, y = oracle_problem
        partial = y.copy()
        partial[::3] = -1
        model = SemiSupervisedSRDA(
            alpha=ALPHA, config=SolverConfig(solver=solver), **CONVERGED
        ).fit(X, partial)
        reference = _reference(dense, model.responses_, center=True)
        _assert_near_reference(model.components_, model.intercept_, reference)

    @pytest.mark.parametrize("solver", ["normal", "lsqr"])
    def test_spectral_embedding_matches_reference(self, oracle_problem, solver):
        _, X, dense, _ = oracle_problem
        model = SpectralRegressionEmbedding(
            n_components=2, alpha=ALPHA, solver=solver, **CONVERGED
        ).fit(X)
        reference = _reference(dense, model.responses_, center=True)
        _assert_near_reference(model.components_, model.intercept_, reference)

    @pytest.mark.parametrize("solver", ["normal", "lsqr"])
    def test_ridge_classifier_matches_reference(self, oracle_problem, solver):
        _, X, dense, y = oracle_problem
        model = RidgeClassifier(
            alpha=ALPHA, config=SolverConfig(solver=solver), **CONVERGED
        ).fit(X, y)
        targets = -np.ones((y.shape[0], 4))
        targets[np.arange(y.shape[0]), y] = 1.0
        reference = _reference(dense, targets, center=False)
        _assert_near_reference(model.coef_, model.intercept_, reference)
