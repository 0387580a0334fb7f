"""Property-based tests for LSQR against closed-form oracles.

Each problem has one right-hand side, a one-column block of
:func:`repro.linalg.block_lsqr`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.block_lsqr import block_lsqr


def lsqr_column(A, b, **kwargs):
    """LSQR on a 1-D ``b``, as the one column's result."""
    return block_lsqr(A, b, **kwargs).column(0)


def random_problem(seed, max_m=25, max_n=15):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, max_m))
    n = int(rng.integers(1, max_n))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return A, b


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_converged_solution_matches_lstsq(seed):
    A, b = random_problem(seed)
    result = lsqr_column(A, b, atol=1e-13, btol=1e-13, iter_lim=2000)
    expected = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.allclose(result.x, expected, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1e-3, 1e3))
def test_damped_solution_matches_ridge(seed, alpha):
    A, b = random_problem(seed)
    n = A.shape[1]
    result = lsqr_column(
        A, b, damp=np.sqrt(alpha), atol=1e-13, btol=1e-13, iter_lim=2000
    )
    expected = np.linalg.solve(A.T @ A + alpha * np.eye(n), A.T @ b)
    assert np.allclose(result.x, expected, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_normal_equations_optimality(seed):
    """At convergence Aᵀ(b − Ax) ≈ 0 — first-order optimality."""
    A, b = random_problem(seed)
    result = lsqr_column(A, b, atol=1e-13, btol=1e-13, iter_lim=2000)
    gradient = A.T @ (b - A @ result.x)
    scale = max(1.0, np.linalg.norm(A, ord="fro") * np.linalg.norm(b))
    assert np.linalg.norm(gradient) < 1e-6 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 30))
def test_iteration_cap_always_respected(seed, cap):
    A, b = random_problem(seed)
    result = lsqr_column(A, b, iter_lim=cap, atol=0, btol=0)
    assert result.itn <= cap


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_residual_monotone_nonincreasing(seed):
    A, b = random_problem(seed)
    result = lsqr_column(A, b, iter_lim=30, atol=0, btol=0, record_history=True)
    history = np.asarray(result.residual_history)
    assert np.all(np.diff(history) <= 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 10.0))
def test_damping_shrinks_solution_norm(seed, extra_damp):
    A, b = random_problem(seed)
    base = lsqr_column(A, b, damp=0.1, atol=1e-12, btol=1e-12, iter_lim=2000)
    damped = lsqr_column(
        A, b, damp=0.1 + extra_damp, atol=1e-12, btol=1e-12, iter_lim=2000
    )
    assert damped.xnorm <= base.xnorm + 1e-8
