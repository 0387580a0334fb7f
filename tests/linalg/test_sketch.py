"""Unit tests for repro.linalg.sketch: operators, apply, preconditioner."""

import numpy as np
import pytest

from repro.analysis.contracts import verify_operator
from repro.linalg.block_lsqr import block_lsqr
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    DenseOperator,
    LinearOperator,
)
from repro.linalg.sketch import (
    CountSketchOperator,
    PreconditionedOperator,
    SketchingError,
    SketchPreconditioner,
    build_preconditioner,
    default_sketch_size,
    preconditioner_from_gram,
    sketch_apply,
    sketch_gram,
)
from repro.linalg.sparse import CSRMatrix
from tests.lsqr_reference import scipy_lsqr


def dense_sketch(S):
    """Materialize a sketch operator as its dense (s, m) matrix."""
    return np.asarray(S.matmat(np.eye(S.shape[1])))


def ill_conditioned(rng, m=300, n=24, cond=1e3):
    """Dense (m, n) matrix with geometrically decaying column scales."""
    scales = np.logspace(0, np.log10(cond), n)
    return rng.standard_normal((m, n)) / scales


class TestSketchOperators:
    def test_contract(self):
        S = CountSketchOperator(m=37, sketch_size=16, seed=3)
        assert verify_operator(S, rng=0).ok

    def test_products_match_dense_matrix(self, rng):
        S = CountSketchOperator(m=29, sketch_size=12, seed=1)
        dense = dense_sketch(S)
        v = rng.standard_normal(29)
        u = rng.standard_normal(12)
        B = rng.standard_normal((29, 4))
        U = rng.standard_normal((12, 3))
        np.testing.assert_allclose(S.matvec(v), dense @ v, atol=1e-12)
        np.testing.assert_allclose(S.rmatvec(u), dense.T @ u, atol=1e-12)
        np.testing.assert_allclose(S.matmat(B), dense @ B, atol=1e-12)
        np.testing.assert_allclose(S.rmatmat(U), dense.T @ U, atol=1e-12)

    def test_seed_determinism(self, rng):
        v = rng.standard_normal(41)
        a = CountSketchOperator(m=41, sketch_size=16, seed=7).matvec(v)
        b = CountSketchOperator(m=41, sketch_size=16, seed=7).matvec(v)
        c = CountSketchOperator(m=41, sketch_size=16, seed=8).matvec(v)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mean_isometry_in_expectation(self):
        # E[SᵀS] = I: averaging ‖S x‖² over many seeds should recover
        # ‖x‖² within a few percent.
        x = np.sin(np.arange(64)) / np.linalg.norm(np.sin(np.arange(64)))
        norms = [
            float(
                np.linalg.norm(
                    CountSketchOperator(64, 48, seed=s).matvec(x)
                )
                ** 2
            )
            for s in range(200)
        ]
        assert abs(np.mean(norms) - 1.0) < 0.1

    def test_countsketch_one_nonzero_per_column(self):
        S = CountSketchOperator(m=23, sketch_size=9, seed=0)
        dense = dense_sketch(S)
        assert ((dense != 0).sum(axis=0) == 1).all()
        assert set(np.abs(dense[dense != 0])) == {1.0}

    def test_float32_dtype_preserved(self, rng):
        S = CountSketchOperator(20, 8, seed=0, dtype=np.float32)
        out = S.matvec(rng.standard_normal(20).astype(np.float32))
        assert out.dtype == np.float32

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SketchingError, match="m must be"):
            CountSketchOperator(m=0, sketch_size=4)
        with pytest.raises(SketchingError, match="sketch_size"):
            CountSketchOperator(m=10, sketch_size=0)
        with pytest.raises(SketchingError, match="dtype"):
            CountSketchOperator(m=10, sketch_size=4, dtype=np.int64)


class TestSketchApply:
    def test_csr_fast_path_matches_dense(self, rng):
        dense = rng.standard_normal((40, 9))
        dense[rng.random((40, 9)) > 0.3] = 0.0
        matrix = CSRMatrix.from_dense(dense)
        S = CountSketchOperator(40, 16, seed=2)
        np.testing.assert_allclose(
            sketch_apply(S, matrix), dense_sketch(S) @ dense, atol=1e-12
        )

    def test_csr_fallback_when_accumulator_too_large(self, rng, monkeypatch):
        import repro.linalg.sketch as sketch_mod

        dense = rng.standard_normal((30, 7))
        matrix = CSRMatrix.from_dense(dense)
        S = CountSketchOperator(30, 12, seed=0)
        expected = sketch_apply(S, matrix)
        monkeypatch.setattr(sketch_mod, "_DENSE_ACCUMULATOR_LIMIT", 1)
        assert S.sketch_csr(matrix) is None
        np.testing.assert_allclose(
            sketch_apply(S, matrix), expected, atol=1e-12
        )

    def test_append_ones_peel(self, rng):
        dense = rng.standard_normal((25, 6))
        S = CountSketchOperator(25, 10, seed=1)
        got = sketch_apply(S, AppendOnesOperator(DenseOperator(dense)))
        expected = dense_sketch(S) @ np.hstack([dense, np.ones((25, 1))])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_centering_peel(self, rng):
        dense = rng.standard_normal((25, 6)) + 3.0
        S = CountSketchOperator(25, 10, seed=1)
        got = sketch_apply(S, CenteringOperator(DenseOperator(dense)))
        centered = dense - dense.mean(axis=0)
        np.testing.assert_allclose(
            got, dense_sketch(S) @ centered, atol=1e-12
        )

    def test_generic_operator_fallback(self, rng):
        # An operator exposing neither .matrix nor .array exercises the
        # chunked rmatmat path.
        dense = rng.standard_normal((31, 5))

        class Opaque(LinearOperator):
            def __init__(self):
                super().__init__()
                self.shape = dense.shape

            def _matmat(self, B):
                return dense @ B

            def _rmatmat(self, U):
                return dense.T @ U

        S = CountSketchOperator(31, 11, seed=4)
        np.testing.assert_allclose(
            sketch_apply(S, Opaque(), chunk=3),
            dense_sketch(S) @ dense,
            atol=1e-12,
        )

    def test_shape_mismatch_rejected(self, rng):
        S = CountSketchOperator(10, 4, seed=0)
        with pytest.raises(SketchingError, match="rows"):
            sketch_apply(S, rng.standard_normal((11, 3)))

    def test_default_sketch_size(self):
        assert default_sketch_size(10_000, 100) == 400
        assert default_sketch_size(10_000, 10) == 74
        assert default_sketch_size(50, 100) == 50
        assert default_sketch_size(1, 1) == 1


class TestSketchPreconditioner:
    def test_apply_inverts_the_factor(self, rng):
        A = ill_conditioned(rng)
        pre = build_preconditioner(A, alpha=0.1, seed=0)
        R = pre.factor_lower.T
        W = rng.standard_normal((pre.n, 3))
        np.testing.assert_allclose(R @ pre.apply(W), W, atol=1e-8)
        np.testing.assert_allclose(
            R.T @ pre.apply_adjoint(W), W, atol=1e-8
        )
        assert pre.n_applies == 2

    def test_preconditioned_system_is_well_conditioned(self, rng):
        A = ill_conditioned(rng, cond=1e4)
        alpha = 1e-6 * np.linalg.norm(A) ** 2 / A.shape[1]
        pre = build_preconditioner(A, alpha=alpha, seed=0)
        stacked = np.vstack([A, np.sqrt(alpha) * np.eye(A.shape[1])])
        inv_r = np.linalg.inv(pre.factor_lower.T)
        plain = np.linalg.cond(stacked)
        preconditioned = np.linalg.cond(stacked @ inv_r)
        assert preconditioned < 10
        assert preconditioned < plain / 10

    def test_sketch_gram_is_the_gram_of_the_seeded_sketch(self, rng):
        A = ill_conditioned(rng)
        gram, size = sketch_gram(A, sketch_size=96, seed=5)
        sketched = sketch_apply(CountSketchOperator(A.shape[0], 96, seed=5), A)
        assert size == 96
        assert gram.tobytes() == (sketched.T @ sketched).tobytes()

    def test_sketch_gram_default_and_capped_size(self, rng):
        A = rng.standard_normal((50, 4))
        assert sketch_gram(A)[1] == default_sketch_size(50, 4)
        assert sketch_gram(A, sketch_size=500)[1] == 50

    def test_gram_route_matches_operator_route(self, rng):
        A = ill_conditioned(rng)
        direct = build_preconditioner(A, alpha=0.5, sketch_size=96, seed=5)
        gram, size = sketch_gram(A, sketch_size=96, seed=5)
        from_gram = preconditioner_from_gram(gram, alpha=0.5, sketch_size=size)
        assert direct.factor_lower.tobytes() == from_gram.factor_lower.tobytes()
        assert direct.sketch_size == from_gram.sketch_size == 96

    def test_wrapped_operator_contract(self, rng):
        A = ill_conditioned(rng, m=60, n=8)
        pre = build_preconditioner(A, alpha=0.3, seed=0)
        assert verify_operator(pre.wrap(DenseOperator(A)), rng=0).ok

    def test_jitter_rescues_rank_deficient_gram(self):
        # A singular Gram at alpha=0 (duplicate columns) still factors.
        gram = np.ones((4, 4))
        pre = preconditioner_from_gram(gram, alpha=0.0)
        assert pre.jitter > 0

    def test_unfixable_gram_raises(self):
        with pytest.raises(SketchingError, match="positive definite"):
            preconditioner_from_gram(-np.eye(3), alpha=0.0)

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(SketchingError, match="square"):
            preconditioner_from_gram(np.ones((2, 3)))
        with pytest.raises(SketchingError, match="alpha"):
            preconditioner_from_gram(np.eye(2), alpha=-1.0)
        with pytest.raises(SketchingError, match="square lower-triangular"):
            SketchPreconditioner(np.ones((2, 3)))
        with pytest.raises(SketchingError, match="alpha"):
            build_preconditioner(rng.standard_normal((5, 2)), alpha=-1.0)
        with pytest.raises(SketchingError, match="sketch_size"):
            build_preconditioner(
                rng.standard_normal((5, 2)), sketch_size=0
            )

    def test_dimension_mismatch_with_operator(self, rng):
        A = rng.standard_normal((20, 5))
        pre = build_preconditioner(A, alpha=0.1)
        with pytest.raises(SketchingError, match="does not match"):
            PreconditionedOperator(
                DenseOperator(rng.standard_normal((20, 6))), pre
            )

    def test_build_emits_span_and_applies_bump_counter(self, rng):
        from repro.observability import InMemorySink, configure, get_tracer

        sink = InMemorySink()
        configure(sink=sink)
        try:
            A = ill_conditioned(rng, m=80, n=10)
            with get_tracer().span("outer"):
                pre = build_preconditioner(A, alpha=0.2, seed=0)
            pre.apply(np.zeros(pre.n))
            record = sink.find("sketch.build")[0]
            assert record["attributes"] == {
                "sketch_size": default_sketch_size(80, 10),
                "rows": 80,
                "cols": 10,
            }
            (factor,) = [
                event
                for event in sink.find("outer")[0]["events"]
                if event["name"] == "sketch.factor"
            ]
            assert factor["attributes"] == {"alpha": 0.2, "jitter": 0.0}
            counters = get_tracer().metrics.snapshot()["counters"]
            assert counters["precond.apply"] == 1.0
        finally:
            configure(enabled=False)


class TestPreconditionedSolvers:
    def test_lsqr_parity_and_iteration_cut(self, rng):
        A = ill_conditioned(rng, cond=1e3)
        x_true = rng.standard_normal(A.shape[1])
        b = A @ x_true
        alpha = 1e-8 * np.linalg.norm(A) ** 2 / A.shape[1]
        damp = float(np.sqrt(alpha))
        plain = scipy_lsqr(
            A, b, damp=damp, atol=1e-10, btol=1e-10, iter_lim=2000
        )
        pre = build_preconditioner(A, alpha=alpha, seed=0)
        fast = block_lsqr(
            A, b, damp=damp, atol=1e-10, btol=1e-10, iter_lim=2000,
            precondition=pre,
        ).column(0)
        np.testing.assert_allclose(fast.x, plain.x, atol=1e-6)
        assert fast.itn < plain.itn / 2

    def test_lsqr_preconditioned_warm_start(self, rng):
        A = ill_conditioned(rng, m=120, n=10)
        b = rng.standard_normal(120)
        pre = build_preconditioner(A, alpha=0.01, seed=0)
        damp = 0.1
        cold = block_lsqr(
            A, b, damp=damp, precondition=pre, atol=1e-12, btol=1e-12
        ).column(0)
        warm = block_lsqr(
            A, b, damp=damp, precondition=pre, X0=cold.x,
            atol=1e-12, btol=1e-12,
        ).column(0)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)
        assert warm.itn <= cold.itn

    def test_block_lsqr_parity(self, rng):
        # cond 1e2: the unpreconditioned baseline itself only reaches
        # ~1e-6 accuracy beyond that, which would dominate the parity.
        A = ill_conditioned(rng, cond=1e2)
        B = rng.standard_normal((A.shape[0], 3))
        alpha = 1e-6 * np.linalg.norm(A) ** 2 / A.shape[1]
        damp = float(np.sqrt(alpha))
        plain = block_lsqr(A, B, damp=damp, atol=1e-10, btol=1e-10,
                           iter_lim=2000)
        pre = build_preconditioner(A, alpha=alpha, seed=0)
        fast = block_lsqr(
            A, B, damp=damp, atol=1e-10, btol=1e-10, iter_lim=2000,
            precondition=pre,
        )
        np.testing.assert_allclose(fast.X, plain.X, atol=1e-6)
        assert int(np.max(fast.itn)) < int(np.max(plain.itn))

    def test_lsqr_dimension_mismatch(self, rng):
        A = rng.standard_normal((20, 5))
        pre = build_preconditioner(rng.standard_normal((20, 6)), alpha=0.1)
        with pytest.raises(ValueError, match="preconditioner dimension"):
            block_lsqr(A, np.zeros(20), precondition=pre)
