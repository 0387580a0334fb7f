"""SRDA solver="sketched_lsqr": parity, iteration savings, composition."""

import numpy as np
import pytest

from repro.core.solver_config import SolverConfig
from repro.core.srda import SRDA, srda_alpha_path
from repro.linalg.sparse import CSRMatrix
from repro.robustness import RobustnessWarning


def ill_conditioned_classification(rng, m=240, n=40, c=4, cond=1e2):
    """Separable classes over geometrically scaled columns."""
    scales = np.logspace(0, np.log10(cond), n)
    X = rng.standard_normal((m, n)) / scales
    y = np.arange(m) % c
    X[np.arange(m), y] += 3.0 / scales[y]
    return X, y


def sparse_classification_skewed(rng, m=300, n=80, c=3):
    """CSR data with a heavy-row prefix (exercises the nnz layout)."""
    ks = np.where(np.arange(m) < m // 10, 30, 3)
    indptr = np.zeros(m + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(ks)
    indices = np.concatenate(
        [np.sort(rng.choice(n, size=int(k), replace=False)) for k in ks]
    ).astype(np.int64)
    data = rng.standard_normal(int(indptr[-1]))
    y = np.arange(m) % c
    X = CSRMatrix(data, indices, indptr, (m, n))
    return X, y


class TestSketchedSolver:
    def test_dense_parity_with_fewer_iterations(self, rng):
        X, y = ill_conditioned_classification(rng)
        kwargs = dict(alpha=0.1, max_iter=2000, tol=1e-10)
        plain = SRDA(config=SolverConfig(solver="lsqr"), **kwargs).fit(X, y)
        fast = SRDA(
            config=SolverConfig(solver="sketched_lsqr"), **kwargs
        ).fit(X, y)
        np.testing.assert_allclose(
            fast.components_, plain.components_, atol=1e-6
        )
        np.testing.assert_allclose(
            fast.intercept_, plain.intercept_, atol=1e-6
        )
        assert max(fast.lsqr_iterations_) < max(plain.lsqr_iterations_)

    def test_sparse_parity(self, rng):
        X, y = sparse_classification_skewed(rng)
        kwargs = dict(alpha=0.5, max_iter=2000, tol=1e-10)
        plain = SRDA(config=SolverConfig(solver="lsqr"), **kwargs).fit(X, y)
        fast = SRDA(
            config=SolverConfig(solver="sketched_lsqr"), **kwargs
        ).fit(X, y)
        np.testing.assert_allclose(
            fast.components_, plain.components_, atol=1e-6
        )

    def test_solver_recorded_in_report(self, rng):
        X, y = ill_conditioned_classification(rng, m=120, n=20)
        model = SRDA(
            config=SolverConfig(solver="sketched_lsqr"),
            alpha=0.1,
            max_iter=500,
            tol=1e-10,
        ).fit(X, y)
        assert model.solver_used_ == "sketched_lsqr"
        assert model.fit_report_.solver == "sketched_lsqr"
        assert model.fit_report_.converged

    def test_seeded_determinism(self, rng):
        X, y = ill_conditioned_classification(rng, m=120, n=20)
        config = SolverConfig(solver="sketched_lsqr")
        kwargs = dict(alpha=0.1, max_iter=500, tol=1e-10)
        a = SRDA(config=config.replace(sketch_seed=3), **kwargs).fit(X, y)
        b = SRDA(config=config.replace(sketch_seed=3), **kwargs).fit(X, y)
        c = SRDA(config=config.replace(sketch_seed=4), **kwargs).fit(X, y)
        assert np.array_equal(a.components_, b.components_)
        # A different draw changes the iterate trajectory (same
        # solution to tolerance, different bits).
        np.testing.assert_allclose(
            a.components_, c.components_, atol=1e-6
        )

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_fit_matches_normal_equations(self, rng, layout):
        X, y = ill_conditioned_classification(rng, m=120, n=20)
        data = CSRMatrix.from_dense(X) if layout == "csr" else X
        model = SRDA(
            config=SolverConfig(solver="sketched_lsqr"),
            alpha=0.1,
            max_iter=500,
            tol=1e-10,
        ).fit(data, y)
        baseline = SRDA(
            config=SolverConfig(solver="normal"), alpha=0.1
        ).fit(data, y)
        np.testing.assert_allclose(
            model.components_, baseline.components_, atol=1e-5
        )

    def test_wide_data_degrades_to_plain_lsqr(self, rng):
        # n >= m: the (n, n) sketch Gram would dominate the data (the
        # news grid is 3000 x 26214 — a 5.5 GB factor), so the fit
        # must fall back to plain LSQR instead of building it.
        X = rng.standard_normal((60, 100))
        y = np.arange(60) % 3
        kwargs = dict(alpha=0.5, max_iter=500, tol=1e-10)
        with pytest.warns(RobustnessWarning, match="tall"):
            model = SRDA(
                config=SolverConfig(solver="sketched_lsqr"), **kwargs
            ).fit(X, y)
        assert model.solver_used_ == "lsqr"
        assert model.fit_report_.solver == "lsqr"
        assert model.fit_report_.requested_solver == "sketched_lsqr"
        plain = SRDA(config=SolverConfig(solver="lsqr"), **kwargs).fit(X, y)
        assert np.array_equal(model.components_, plain.components_)

    def test_wide_alpha_path_degrades_to_replay(self, rng):
        X = rng.standard_normal((40, 64))
        y = np.arange(40) % 2
        with pytest.warns(RobustnessWarning, match="tall"):
            path = srda_alpha_path(
                X, y, [0.5, 5.0], config=SolverConfig(solver="sketched_lsqr"),
                max_iter=500, tol=1e-10,
            )
        plain = srda_alpha_path(X, y, [0.5, 5.0], max_iter=500, tol=1e-10)
        for fast, ref in zip(path, plain):
            assert fast.solver_used_ == "lsqr"
            assert fast.fit_report_.solver == "lsqr"
            assert fast.fit_report_.requested_solver == "sketched_lsqr"
            np.testing.assert_allclose(
                fast.components_, ref.components_, atol=1e-8
            )

    def test_invalid_sketch_parameters_rejected(self):
        with pytest.raises(ValueError, match="sketch_size"):
            SRDA(config=SolverConfig(sketch_size=0))
        with pytest.raises(ValueError, match="solver"):
            SRDA(config=SolverConfig(solver="sketch"))

    @pytest.mark.parametrize(
        "surface", ["SolverConfig", "SRDA", "srda_alpha_path"]
    )
    def test_no_sketch_family_keyword(self, rng, surface):
        # CountSketch is the only family: there is no knob to pass.
        X, y = ill_conditioned_classification(rng, m=60, n=10)
        build = {
            "SolverConfig": lambda: SolverConfig(sketch="countsketch"),
            "SRDA": lambda: SRDA(sketch="countsketch"),
            "srda_alpha_path": lambda: srda_alpha_path(
                X, y, [1.0], sketch="countsketch"
            ),
        }[surface]
        with pytest.raises(TypeError, match="sketch"):
            build()


class TestShardedComposition:
    def test_backends_are_bitwise_identical_when_sharded(self, rng):
        # m=1200 rows shard into >1 block; the layout is a pure
        # function of the data, so backend and worker count must not
        # change a bit.  (The unsharded fit differs in the rmatmat
        # fold's low bits — that is the parallel layer's documented
        # contract, tested separately below at the 1e-6 level.)
        X, y = sparse_classification_skewed(rng, m=1200, n=80)
        config = SolverConfig(solver="sketched_lsqr")
        kwargs = dict(alpha=0.5, max_iter=800, tol=1e-10)
        serial = SRDA(
            config=config.replace(backend="serial"), **kwargs
        ).fit(X, y)
        thread2 = SRDA(
            config=config.replace(backend="thread", n_jobs=2), **kwargs
        ).fit(X, y)
        thread4 = SRDA(
            config=config.replace(backend="thread", n_jobs=4), **kwargs
        ).fit(X, y)
        for other in (thread2, thread4):
            assert np.array_equal(serial.components_, other.components_)
            assert np.array_equal(serial.intercept_, other.intercept_)
        assert thread2.solver_used_ == "sketched_lsqr"

    def test_sharded_fit_matches_unsharded(self, rng):
        X, y = sparse_classification_skewed(rng, m=1200, n=80)
        config = SolverConfig(solver="sketched_lsqr")
        kwargs = dict(alpha=0.5, max_iter=800, tol=1e-10)
        unsharded = SRDA(config=config, **kwargs).fit(X, y)
        sharded = SRDA(
            config=config.replace(backend="thread", n_jobs=2), **kwargs
        ).fit(X, y)
        np.testing.assert_allclose(
            sharded.components_, unsharded.components_, atol=1e-6
        )


class TestSketchedAlphaPath:
    def test_path_matches_independent_sketched_fits(self, rng):
        # The path and a single fit build their preconditioners from
        # the same sketch Gram, so every alpha agrees bit for bit.
        X, y = ill_conditioned_classification(rng, m=160, n=24)
        alphas = [0.1, 1.0, 10.0]
        path = srda_alpha_path(
            X, y, alphas, config=SolverConfig(solver="sketched_lsqr"),
            max_iter=800, tol=1e-10,
        )
        for alpha, model in zip(alphas, path):
            single = SRDA(
                config=SolverConfig(solver="sketched_lsqr"), alpha=alpha,
                max_iter=800, tol=1e-10,
            ).fit(X, y)
            assert model.components_.tobytes() == single.components_.tobytes()
            assert model.intercept_.tobytes() == single.intercept_.tobytes()
            assert model.lsqr_iterations_ == single.lsqr_iterations_
            assert model.solver_used_ == "sketched_lsqr"
            assert model.fit_report_.solver == "sketched_lsqr"

    def test_path_builds_one_sketch(self, rng):
        # Every alpha factors the one sketch Gram: a single sketch.build.
        from repro.observability import InMemorySink, configure

        X, y = ill_conditioned_classification(rng, m=160, n=24)
        sink = InMemorySink()
        configure(sink=sink)
        try:
            srda_alpha_path(
                X, y, [0.1, 1.0, 10.0],
                config=SolverConfig(solver="sketched_lsqr"),
                max_iter=800, tol=1e-10,
            )
            (record,) = sink.find("sketch.build")
        finally:
            configure(enabled=False)
        assert record["attributes"]["rows"] == 160

    def test_path_matches_lsqr_path(self, rng):
        X, y = ill_conditioned_classification(rng, m=160, n=24)
        alphas = [0.5, 5.0]
        plain = srda_alpha_path(X, y, alphas, max_iter=2000, tol=1e-10)
        fast = srda_alpha_path(
            X, y, alphas, config=SolverConfig(solver="sketched_lsqr"),
            max_iter=2000, tol=1e-10,
        )
        for a, b in zip(plain, fast):
            np.testing.assert_allclose(
                a.components_, b.components_, atol=1e-5
            )

    def test_invalid_solver_rejected(self, rng):
        X, y = ill_conditioned_classification(rng, m=60, n=10)
        with pytest.raises(ValueError, match="solver"):
            srda_alpha_path(X, y, [1.0], config=SolverConfig(solver="normal"))
