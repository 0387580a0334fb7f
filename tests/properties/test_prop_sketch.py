"""Property-based tests for the CountSketch operator (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import verify_operator
from repro.linalg.sketch import CountSketchOperator, sketch_gram
from repro.linalg.sparse import CSRMatrix

seeds = st.integers(0, 2**31 - 1)
# m >= 16 keeps the adjoint probe vectors long enough to be
# informative; s <= m is the regime a sketch is drawn in.
dims = st.tuples(st.integers(16, 96), st.integers(1, 96)).map(
    lambda t: (t[0], min(t[0], t[1]))
)


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_adjoint_contract_holds_for_any_draw(dims, seed):
    """Every draw satisfies <Sv, u> = <v, S'u> exactly."""
    m, s = dims
    S = CountSketchOperator(m, s, seed=seed)
    assert verify_operator(S, rng=0).ok


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_same_seed_is_bitwise_identical(dims, seed):
    """Equal parameters give bitwise-equal products — no hidden state."""
    m, s = dims
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    B = rng.standard_normal((m, 3))
    a = CountSketchOperator(m, s, seed=seed)
    b = CountSketchOperator(m, s, seed=seed)
    assert np.array_equal(a.matvec(v), b.matvec(v))
    assert np.array_equal(a.matmat(B), b.matmat(B))
    # ... and the draw really depends on the seed.
    c = CountSketchOperator(m, s, seed=seed + 1)
    assert not np.array_equal(
        np.asarray(a.matmat(np.eye(m))), np.asarray(c.matmat(np.eye(m)))
    )


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_float32_dtype_is_preserved(dims, seed):
    """float32 sketches keep float32 products in every direction."""
    m, s = dims
    S = CountSketchOperator(m, s, seed=seed, dtype=np.float32)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m).astype(np.float32)
    u = rng.standard_normal(s).astype(np.float32)
    assert S.matvec(v).dtype == np.float32
    assert S.rmatvec(u).dtype == np.float32
    assert S.matmat(np.tile(v[:, None], 2)).dtype == np.float32
    assert S.rmatmat(np.tile(u[:, None], 2)).dtype == np.float32


@settings(max_examples=60, deadline=None)
@given(dims, seeds)
def test_every_column_is_one_signed_unit(dims, seed):
    """Each row of the data lands in one bucket with sign ±1, so
    ‖S eᵢ‖ = 1 exactly and diag(SᵀS) = 1 for any draw."""
    m, s = dims
    dense = np.asarray(CountSketchOperator(m, s, seed=seed).matmat(np.eye(m)))
    assert ((dense != 0).sum(axis=0) == 1).all()
    assert set(np.abs(dense[dense != 0]).tolist()) == {1.0}
    assert np.array_equal(np.diag(dense.T @ dense), np.ones(m))


@settings(max_examples=40, deadline=None)
@given(dims, st.integers(1, 12), seeds)
def test_sketch_gram_of_csr_matches_dense(dims, n, seed):
    """The CSR sketch fast path forms the same Gram as the dense path."""
    m, s = dims
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A[rng.random((m, n)) > 0.4] = 0.0
    dense_gram, dense_size = sketch_gram(A, sketch_size=s, seed=seed)
    csr_gram, csr_size = sketch_gram(
        CSRMatrix.from_dense(A), sketch_size=s, seed=seed
    )
    assert csr_size == dense_size == s
    np.testing.assert_allclose(csr_gram, dense_gram, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_embedding_distortion_is_bounded_for_gaussian_vectors(seed):
    """|‖Sx‖² − ‖x‖²| ≤ 0.75 ‖x‖² for Gaussian x at s = 256, m = 512.

    This is the probabilistic guarantee the preconditioner rides on
    (E[SᵀS] = I with variance O(1/s)); for Gaussian test vectors the
    deviation concentrates near ~√(2/s) ≈ 9%, so 75% gives many
    standard deviations of slack.  (The bound is *not* adversarial:
    a vector aimed at a CountSketch hash collision can cancel —
    which is exactly why the preconditioner only needs bounded,
    not pointwise-tiny, distortion.)
    """
    m, s = 512, 256
    S = CountSketchOperator(m, s, seed=seed)
    x = np.random.default_rng(seed).standard_normal(m)
    norm_sq = float(x @ x)
    sketched_sq = float(np.linalg.norm(S.matvec(x)) ** 2)
    assert abs(sketched_sq - norm_sq) <= 0.75 * norm_sq
