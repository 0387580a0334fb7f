"""Forced Cholesky breakdowns must degrade through the fallback chain."""

import warnings

import numpy as np
import pytest

from repro import SemiSupervisedSRDA, SpectralRegressionEmbedding
from repro.baselines.ridge import RidgeClassifier
from repro.core.kernel_srda import KernelSRDA
from repro.core.solver_config import SolverConfig
from repro.core.srda import SRDA
from repro.eval.classifiers import NearestCentroid
from repro.robustness import RobustnessWarning

pytestmark = pytest.mark.robustness


@pytest.fixture
def rank_deficient(rng):
    """m > n data whose Gram matrix is exactly singular (duplicate and
    zero columns), with real class structure in the healthy features."""
    m, n_classes = 45, 3
    y = np.arange(m) % n_classes
    base = rng.standard_normal((m, 4))
    for k in range(n_classes):
        base[y == k, k] += 4.0
    X = np.hstack([base, base[:, :2], np.zeros((m, 2))])
    return X, y


class TestSRDAFallback:
    def test_breakdown_no_longer_raises_by_default(self, rank_deficient):
        """The acceptance scenario: rank-deficient Gram, alpha=0."""
        X, y = rank_deficient
        with pytest.warns(RobustnessWarning, match="degraded"):
            model = SRDA(alpha=0.0, config=SolverConfig(solver="normal")).fit(X, y)
        report = model.fit_report_
        # the report names the fallback taken, ...
        assert report.solver in ("cholesky+jitter", "lsqr-rescue")
        assert any("cholesky failed" in step for step in report.fallbacks)
        # ... the condition estimate, ...
        assert report.condition_estimate is not None
        assert report.condition_estimate > 1.0
        # ... and the effective alpha.
        assert report.effective_alpha is not None
        if report.solver == "cholesky+jitter":
            assert report.effective_alpha > 0.0
        # and the fit is actually usable
        assert model.score(X, y) > 0.9

    def test_degraded_embedding_matches_reference_on_data(self, rank_deficient):
        """Any null-space ambiguity in the degraded solve is invisible
        where it matters: the training embedding equals the one from a
        reference min-norm least-squares fit."""
        X, y = rank_deficient
        with pytest.warns(RobustnessWarning):
            model = SRDA(alpha=0.0, config=SolverConfig(solver="normal")).fit(X, y)
        centered = X - X.mean(axis=0)
        reference, *_ = np.linalg.lstsq(centered, model.responses_, rcond=None)
        np.testing.assert_allclose(
            centered @ model.components_, centered @ reference, atol=1e-6
        )

    def test_clean_fit_reports_clean(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        report = model.fit_report_
        assert report.solver == "cholesky"
        assert report.fallbacks == []
        assert report.effective_alpha == 1.0
        assert not report.degraded
        assert np.isfinite(report.condition_estimate)

    def test_lsqr_path_records_termination_codes(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15, tol=0.0).fit(X, y)
        report = model.fit_report_
        assert report.solver == "lsqr"
        assert len(report.lsqr_istop) == 2  # c - 1 response columns
        assert len(report.lsqr_iterations) == 2
        assert len(report.lsqr_residuals) == 2
        assert report.converged

    def test_zero_variance_features_recorded(self, rng):
        X = rng.standard_normal((30, 6))
        X[:, 2] = 7.0  # constant feature
        y = np.arange(30) % 3
        model = SRDA(alpha=1.0, config=SolverConfig(solver="normal")).fit(X, y)
        assert any(
            "zero variance" in w for w in model.fit_report_.warnings
        )

    def test_report_summary_is_one_line(self, small_classification):
        X, y = small_classification
        model = SRDA(alpha=1.0).fit(X, y)
        summary = model.fit_report_.summary()
        assert "\n" not in summary
        assert "solver=" in summary


class TestKernelSRDAFallback:
    def test_singular_kernel_degrades(self, rng):
        # duplicated samples make the linear kernel matrix singular;
        # a tiny alpha is crushed by the kernel's scale, breaking the
        # factorization in floating point
        base = rng.standard_normal((12, 3)) * 100.0
        X = np.vstack([base, base])
        y = np.concatenate([np.arange(12) % 2, np.arange(12) % 2])
        model = KernelSRDA(alpha=1e-12, kernel="linear")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            model.fit(X, y)  # must not raise
        report = model.fit_report_
        assert report is not None
        if report.fallbacks:
            assert report.solver in ("cholesky+jitter", "lsqr-rescue")

    def test_clean_kernel_fit_reports(self, small_classification):
        X, y = small_classification
        model = KernelSRDA(alpha=1.0, kernel="rbf").fit(X, y)
        assert model.fit_report_.solver == "cholesky"


class TestRidgeClassifierReport:
    def test_normal_path_report(self, small_classification):
        X, y = small_classification
        model = RidgeClassifier(alpha=0.5, config=SolverConfig(solver="normal")).fit(X, y)
        assert model.fit_report_.solver == "cholesky"
        assert model.fit_report_.effective_alpha == 0.5

    def test_lsqr_path_report(self, small_classification):
        X, y = small_classification
        model = RidgeClassifier(alpha=0.5, config=SolverConfig(solver="lsqr"), max_iter=25).fit(X, y)
        assert model.fit_report_.solver == "lsqr"
        assert len(model.fit_report_.lsqr_istop) == 3

    def test_alpha_zero_uses_guarded_chain(self, small_classification):
        """α = 0 goes through the same guarded chain as SRDA: on a
        full-rank Gram the plain Cholesky rung succeeds and gives the
        least-squares solution."""
        X, y = small_classification
        model = RidgeClassifier(alpha=0.0, config=SolverConfig(solver="normal")).fit(X, y)
        assert model.fit_report_.solver == "cholesky"
        targets = -np.ones((y.shape[0], 3))
        targets[np.arange(y.shape[0]), y] = 1.0
        augmented = np.hstack([X, np.ones((X.shape[0], 1))])
        reference, *_ = np.linalg.lstsq(augmented, targets, rcond=None)
        np.testing.assert_allclose(model.coef_, reference[:-1], atol=1e-8)
        np.testing.assert_allclose(model.intercept_, reference[-1], atol=1e-8)


def _fit_semi_supervised(X, y):
    partial = y.copy()
    partial[::4] = -1
    model = SemiSupervisedSRDA(alpha=0.0).fit(X, partial)
    return model, model.score(X, y)


def _fit_spectral(X, y):
    model = SpectralRegressionEmbedding(alpha=0.0).fit(X)
    Z = model.transform(X)
    return model, NearestCentroid().fit(Z, y).score(Z, y)


def _fit_ridge(X, y):
    model = RidgeClassifier(alpha=0.0, config=SolverConfig(solver="normal")).fit(X, y)
    return model, model.score(X, y)


class TestSharedStageFallback:
    """The estimators on SRDA's regression stage inherit its ladder."""

    @pytest.mark.parametrize(
        "fit", [_fit_semi_supervised, _fit_spectral, _fit_ridge]
    )
    def test_rank_deficient_alpha_zero_degrades(self, rank_deficient, fit):
        X, y = rank_deficient
        with pytest.warns(RobustnessWarning, match="degraded"):
            model, score = fit(X, y)
        report = model.fit_report_
        assert report.solver in ("cholesky+jitter", "lsqr-rescue")
        assert any("cholesky failed" in step for step in report.fallbacks)
        assert report.degraded
        assert score > 0.9
