"""The fit benchmark's workloads: seeded inputs, timed loops and checks.

Four fit workloads time ``SRDA.fit`` plus ``predict`` over seeded
splits of the paper's dataset shapes, made by the local
``repro.datasets`` generators.  One serving workload times single-row
requests through ``repro.serving`` while a writer keeps updating the
served model.  Every run also checks that what it timed is correct.

A run has three phases:

1. make the inputs from the seed (reported as ``inputs_s``, not timed
   as set-up);
2. set up several times (see :data:`SETUP_REPEATS`): cut split 0 into
   the estimator's input types, fit and predict once (for serving:
   build the served model by ``partial_fit`` and serve a warm-up
   batch); the median is ``setup_s``;
3. measure for the requested number of seconds: a fit workload cycles
   through a fixed set of seeded splits, so every run sees the same
   splits however fast the code is.

Set-ups, fits and predicts are each timed right after a calibration
(``hostspeed.py``) and reported in reference seconds; the times as
measured go to the info line as ``raw_s``.
"""

from __future__ import annotations

import contextlib
import copy
import resource
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lsqr as reference_lsqr

from repro import SRDA
from repro.core.solver_config import SolverConfig
from repro.datasets.base import Dataset
from repro.datasets.digits import make_digits
from repro.datasets.faces import make_faces
from repro.datasets.splits import (
    per_class_split,
    per_class_split_from_pool,
    ratio_split,
)
from repro.datasets.text import make_text
from repro.linalg import kernels
from repro.linalg.sparse import CSRMatrix
from repro.serving import BatchingPredictor, ModelRegistry

from hostspeed import HostSpeed
from layers import (
    Instrumented,
    LayerClock,
    LayerTracer,
    breakdown,
    cost_model_flam,
)

#: Regularization and LSQR iteration count of every fit (the paper's
#: alpha = 1 and its fixed 20 iterations; ``tol=0`` never stops early,
#: so a fit's iteration count is part of the workload, not a result).
ALPHA = 1.0
MAX_ITER = 20

#: Set-ups per run: at least SETUP_REPEATS, and more, up to SETUP_MAX,
#: until they add up to SETUP_SECONDS, so that a 40 ms set-up is not
#: judged on three samples.  ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX = 25

#: Predictions timed per fitted split; the split's ``predict_s`` sample
#: is their median, because one predict is short enough (2-70 ms) for a
#: single scheduler hiccup to double it.
PREDICT_REPEATS = 5

#: A served request meets its objective when answered this long after
#: it was due.
SLO_S = 0.010

#: How far a fit's error rate may exceed that of the reference weights
#: computed by the checks (absolute, on split 0's test set).
ERROR_SLACK = 0.002

#: Relative gap between a row's two nearest centroids below which the
#: independent nearest-centroid check treats them as tied.
TIE_TOLERANCE = 1e-9

#: Rows a served batch may hold and how long the batcher waits for them
#: (``BatchingPredictor``'s defaults).
MAX_BATCH = 64
MAX_WAIT_S = 0.002

#: Dataset sizes per scale.  ``smoke`` shrinks everything so the whole
#: command finishes in seconds; its timings mean nothing.
#:
#: ``splits`` is the size of a fit workload's fixed split set.  A run
#: cycles through it, so it is small enough that a 12 s run on the
#: 2-core reference host covers it at least once, and most of it twice
#: (pie: 11-15 fits per run, mnist: 64-88, news_lsqr: 6-8,
#: news_sharded: 5-6).  The serving writer cycles through its
#: ``update_pool`` of held-out rows, so it keeps writing however long
#: the run.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "pie": dict(n_subjects=68, images_per_subject=170, side=32,
                    train_per_class=60, splits=8),
        "mnist": dict(n_train=2000, n_test=2000, train_per_class=30,
                      splits=60),
        "news": dict(n_docs=18941, vocab_size=26214, n_classes=20,
                     train_ratio=0.3, splits=4),
        "serve": dict(n_subjects=68, images_per_subject=60, side=32,
                      train_per_class=30, update_pool=10, rate=2000.0,
                      update_every=2.0),
    },
    "smoke": {
        "pie": dict(n_subjects=10, images_per_subject=40, side=16,
                    train_per_class=30, splits=2),
        "mnist": dict(n_train=200, n_test=200, train_per_class=10,
                      splits=3),
        "news": dict(n_docs=4000, vocab_size=3000, n_classes=6,
                     train_ratio=0.3, splits=2),
        "serve": dict(n_subjects=10, images_per_subject=30, side=16,
                      train_per_class=12, update_pool=3, rate=400.0,
                      update_every=0.1),
    },
}

#: Highest mean error rate a correct run may show, per scale.  Set from
#: measured runs with margin; a fit that goes wrong lands far above.
ERROR_CEILING: Dict[str, Dict[str, float]] = {
    "full": {
        "pie_normal": 0.08,
        "mnist_dual": 0.09,
        "news_lsqr": 0.04,
        "news_sharded": 0.04,
        "serve_faces": 0.20,
    },
    "smoke": {
        "pie_normal": 0.30,
        "mnist_dual": 0.30,
        "news_lsqr": 0.30,
        "news_sharded": 0.30,
        "serve_faces": 0.50,
    },
}

@dataclass
class Check:
    """One correctness check of a run."""

    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self) -> None:
        self.ok = bool(self.ok)


@dataclass
class Outcome:
    """What one run measured and whether its outputs were correct."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: List[Check]
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_alloc_mb(fn: Callable[[], Any]) -> float:
    """Peak MiB allocated while ``fn`` runs, beyond what existed before.

    Counted by ``tracemalloc``, which numpy reports its buffers to, so
    the number depends on the program's allocations alone — unlike the
    resident set, which also moves with the allocator's reuse of freed
    pages.  Tracing slows allocation, so this runs outside timed code.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------


@dataclass
class FitCase:
    """A dataset, its seeded split protocol and the estimator to fit."""

    name: str
    dataset: Dataset
    seed: int
    draw: Callable[[np.random.Generator], Tuple[np.ndarray, np.ndarray]]
    config: SolverConfig
    error_ceiling: float
    n_splits: int

    def split(self, index: int):
        """``(X_train, y_train, X_test, y_test)`` of split ``index``.

        Cut afresh on every call, so a fit starts from inputs with no
        cached transpose, as a user's first fit does.
        """
        train, test = self.draw(np.random.default_rng([self.seed, index]))
        X_train, y_train = self.dataset.subset(train)
        X_test, y_test = self.dataset.subset(test)
        return X_train, y_train, X_test, y_test

    def model(self, **changes: Any) -> SRDA:
        max_iter = changes.pop("max_iter", MAX_ITER)
        config = self.config.replace(**changes) if changes else self.config
        return SRDA(alpha=ALPHA, config=config, max_iter=max_iter, tol=0.0)

    @property
    def solver(self) -> str:
        return self.config.solver


def make_fit_case(name: str, seed: int, scale: str) -> FitCase:
    """Generate the dataset of fit workload ``name`` from ``seed``."""
    ceiling = ERROR_CEILING[scale][name]
    if name == "pie_normal":
        size = SIZES[scale]["pie"]
        data = make_faces(
            n_subjects=size["n_subjects"],
            images_per_subject=size["images_per_subject"],
            side=size["side"],
            seed=seed,
        )
        per_class = size["train_per_class"]
        return FitCase(
            name, data, seed,
            lambda rng: per_class_split(data.y, per_class, rng),
            SolverConfig(solver="normal"), ceiling, size["splits"],
        )
    if name == "mnist_dual":
        size = SIZES[scale]["mnist"]
        data = make_digits(
            n_train=size["n_train"], n_test=size["n_test"], seed=seed
        )
        per_class = size["train_per_class"]
        train_pool = data.metadata["train_pool"]
        test_pool = data.metadata["test_pool"]
        return FitCase(
            name, data, seed,
            lambda rng: per_class_split_from_pool(
                data.y, train_pool, test_pool, per_class, rng
            ),
            SolverConfig(solver="normal"), ceiling, size["splits"],
        )
    if name in ("news_lsqr", "news_sharded"):
        size = SIZES[scale]["news"]
        data = make_text(
            n_docs=size["n_docs"],
            vocab_size=size["vocab_size"],
            n_classes=size["n_classes"],
            seed=seed,
        )
        ratio = size["train_ratio"]
        config = SolverConfig(solver="lsqr")
        if name == "news_sharded":
            config = config.replace(n_jobs=2, backend="thread")
        return FitCase(
            name, data, seed,
            lambda rng: ratio_split(data.y, ratio, rng),
            config, ceiling, size["splits"],
        )
    raise ValueError(f"unknown fit workload {name!r}")


def _repeat_setup(host: HostSpeed, setup: Callable[[], SRDA]):
    """``(seconds, reference seconds, model)`` of each set-up, per the
    SETUP_* rule."""
    results = [host.timed(setup) for _ in range(SETUP_REPEATS)]
    while (
        len(results) < SETUP_MAX
        and sum(seconds for seconds, _, _ in results) < SETUP_SECONDS
    ):
        results.append(host.timed(setup))
    return results


def _setup_fit(case: FitCase) -> SRDA:
    X_train, y_train, X_test, _ = case.split(0)
    model = case.model().fit(X_train, y_train)
    model.predict(X_test)
    return model


def _measured_splits(case: FitCase, seconds: float):
    """Split indices 0, 1, ..., n_splits - 1, 0, 1, ... until ``seconds`` pass.

    At least one whole cycle, so every run measures every split of the
    set; the number of times each split is measured differs by at most
    one.
    """
    start = time.perf_counter()
    count = 0
    while count < case.n_splits or time.perf_counter() - start < seconds:
        yield count % case.n_splits
        count += 1


def _same_bits(a: SRDA, b: SRDA) -> bool:
    return (
        a.components_.tobytes() == b.components_.tobytes()
        and a.intercept_.tobytes() == b.intercept_.tobytes()
    )


def _nnz(X: Any) -> int:
    return int(X.nnz if isinstance(X, CSRMatrix) else X.size)


def _uncached(X: Any) -> Any:
    """``X`` without the row structure a CSR product caches on it, so
    each timed predict pays for it as a user's single predict does."""
    if isinstance(X, CSRMatrix):
        return CSRMatrix(X.data, X.indices, X.indptr, X.shape)
    return X


def _as_scipy(X: Any) -> Any:
    if isinstance(X, CSRMatrix):
        return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
    return np.asarray(X, dtype=np.float64)


def check_fit(
    case: FitCase, model: SRDA, X_train: Any, y_train: np.ndarray,
    X_test: Any, y_test: np.ndarray, predictions: np.ndarray,
) -> List[Check]:
    """Check one fitted model against a reference computed here.

    - the responses are orthonormal, orthogonal to the all-ones vector
      and constant within each class;
    - normal equations: the solution satisfies
      ``(X̄ᵀX̄ + αI) a = X̄ᵀȳ`` on the centered data; the reference is
      ``numpy.linalg.solve`` of that system;
    - LSQR: the reference is scipy's LSQR on ``[X | 1]`` with the same
      damping and iteration count.  Each column's damped objective may
      not exceed the reference's, and the residuals the fit reports
      must match the ones recomputed from its weights;
    - predictions equal nearest-centroid labels recomputed from the
      model's weights (rows where two centroids tie excepted), and
      their error rate is within
      :data:`ERROR_SLACK` of the reference weights' error rate.
    """
    checks = []
    R = np.asarray(model.responses_)
    m = R.shape[0]
    gram_error = float(np.abs(R.T @ R - np.eye(R.shape[1])).max())
    ones_error = float(np.abs(R.sum(axis=0)).max()) / np.sqrt(m)
    labels = np.unique(y_train)
    spread = max(float(np.ptp(R[y_train == k], axis=0).max()) for k in labels)
    checks.append(Check(
        "responses", max(gram_error, ones_error, spread) < 1e-10,
        f"|RᵀR-I|={gram_error:.1e} |1ᵀR|/√m={ones_error:.1e} "
        f"within-class spread={spread:.1e}",
    ))

    A = np.asarray(model.components_, dtype=np.float64)
    b = np.asarray(model.intercept_, dtype=np.float64)
    X = _as_scipy(X_train)
    if case.solver == "normal":
        mean = X.mean(axis=0)
        centered = X - mean
        rhs = centered.T @ R
        normal = centered.T @ (centered @ A) + ALPHA * A - rhs
        relative = float(np.linalg.norm(normal) / np.linalg.norm(rhs))
        intercept = float(np.abs(b + mean @ A).max())
        checks.append(Check(
            "normal_equations", relative < 1e-8 and intercept < 1e-10,
            f"relative residual {relative:.1e}, intercept error {intercept:.1e}",
        ))
        gram = centered.T @ centered
        gram[np.diag_indices_from(gram)] += ALPHA
        A_ref = np.linalg.solve(gram, rhs)
        b_ref = -(mean @ A_ref)
    else:
        augmented = sp.hstack([X, np.ones((m, 1))]).tocsr()
        weights = np.vstack([A, b[None, :]])
        reference = np.empty_like(weights)
        worst, mismatch = -np.inf, 0.0
        reported = np.asarray(model.fit_report_.lsqr_residuals)
        for j in range(R.shape[1]):
            reference[:, j] = reference_lsqr(
                augmented, R[:, j], damp=np.sqrt(ALPHA), atol=0.0,
                btol=0.0, conlim=0.0, iter_lim=MAX_ITER,
            )[0]
            mine = _damped_objective(augmented, weights[:, j], R[:, j])
            theirs = _damped_objective(augmented, reference[:, j], R[:, j])
            worst = max(worst, mine / theirs - 1.0)
            mismatch = max(
                mismatch, abs(np.sqrt(mine) - reported[j]) / np.sqrt(mine)
            )
        checks.append(Check(
            "lsqr_vs_scipy", worst < 1e-3 and mismatch < 1e-8,
            f"objective vs scipy lsqr {worst:+.1e} at worst; reported "
            f"residuals off by {mismatch:.1e}",
        ))
        A_ref, b_ref = reference[:-1], reference[-1]

    classes = model.classes_
    X_test = _as_scipy(X_test)
    mine, gap = _nearest_centroid(X, y_train, X_test, classes, A, b)
    # The model ranks classes by 2·zᵀc − ‖c‖², this by the full squared
    # distance, so the two may only disagree where two centroids tie.
    tied = gap <= TIE_TOLERANCE
    wrong = int(np.sum((mine != predictions) & ~tied))
    checks.append(Check(
        "predict_nearest_centroid", wrong == 0,
        f"{wrong} of {mine.shape[0]} test labels differ "
        f"({int(tied.sum())} tied rows exempt)",
    ))
    error = float(np.mean(predictions != y_test))
    reference, _ = _nearest_centroid(X, y_train, X_test, classes, A_ref, b_ref)
    reference_error = float(np.mean(reference != y_test))
    checks.append(Check(
        "error_rate_vs_reference", error <= reference_error + ERROR_SLACK,
        f"{error:.4f} vs reference {reference_error:.4f}",
    ))
    return checks


def _nearest_centroid(X_train, y_train, X_test, classes, A, b):
    """Nearest-centroid labels, and each row's gap between its two
    nearest centroids relative to the size of the distances."""
    Z_train = X_train @ A + b
    centroids = np.vstack([Z_train[y_train == k].mean(axis=0) for k in classes])
    Z_test = X_test @ A + b
    row_norms = (Z_test * Z_test).sum(axis=1)[:, None]
    centroid_norms = (centroids * centroids).sum(axis=1)[None, :]
    distances = row_norms - 2.0 * Z_test @ centroids.T + centroid_norms
    nearest = np.sort(distances, axis=1)[:, :2]
    scale = row_norms[:, 0] + centroid_norms.max()
    gap = (nearest[:, 1] - nearest[:, 0]) / scale
    return classes[np.argmin(distances, axis=1)], gap


def _damped_objective(A: Any, x: np.ndarray, r: np.ndarray) -> float:
    residual = A @ x - r
    return float(residual @ residual + ALPHA * (x @ x))


def _check_sharded(case: FitCase, model: SRDA, split) -> List[Check]:
    """``news_sharded`` against the direct path on the same split.

    The program promises bits that depend only on the shard layout, so
    the thread backend must equal the serial one exactly.  Against the
    unsharded operator the adjoint fan-in rounds differently, and LSQR
    amplifies that: 1e-15 apart after one iteration, about 1e-3 after
    twenty.  So the direct path is compared after two iterations, and
    at twenty only by its predictions.
    """
    X_train, y_train, X_test, _ = split
    serial = case.model(backend="serial", n_jobs=1).fit(X_train, y_train)
    direct = case.model(backend=None, n_jobs=None).fit(X_train, y_train)
    short_sharded = case.model(max_iter=2).fit(X_train, y_train)
    short_direct = case.model(backend=None, n_jobs=None, max_iter=2).fit(
        X_train, y_train
    )
    scale = float(np.abs(short_direct.components_).max())
    gap = float(
        np.abs(short_sharded.components_ - short_direct.components_).max()
    ) / scale
    agree = float(np.mean(model.predict(X_test) == direct.predict(X_test)))
    return [
        Check("sharded_thread_equals_serial", _same_bits(model, serial)),
        Check("sharded_vs_direct_2_iterations", gap < 1e-12,
              f"relative gap {gap:.1e}"),
        Check("sharded_vs_direct_predictions", agree >= 0.99,
              f"{agree:.4f} of test labels agree"),
    ]


def run_fit(case: FitCase, seconds: float) -> Outcome:
    """Set-ups, then timed fit + predict over seeded splits.

    Every time is taken twice: as measured (the info line's ``raw_s``)
    and in reference seconds (the metrics; see ``hostspeed.py``).
    """
    host = HostSpeed()
    setups = _repeat_setup(host, lambda: _setup_fit(case))
    fit_s: List[float] = []
    fit_raw: List[float] = []
    predict_s: List[float] = []
    predict_raw: List[float] = []
    errors: Dict[int, float] = {}
    failures: List[str] = []
    attempted = 0
    refit = None
    for index in _measured_splits(case, seconds):
        X_train, y_train, X_test, y_test = case.split(index)
        tests = [_uncached(X_test) for _ in range(PREDICT_REPEATS)]
        model = case.model()
        try:
            attempted += 1
            raw, ref, _ = host.timed(lambda: model.fit(X_train, y_train))
            fit_raw.append(raw)
            fit_s.append(ref)
            repeats, repeats_raw = [], []
            for X in tests:
                attempted += 1
                raw, ref, predictions = host.timed(lambda: model.predict(X))
                repeats_raw.append(raw)
                repeats.append(ref)
            predict_raw.append(_median(repeats_raw))
            predict_s.append(_median(repeats))
        # Boundary: a failed fit is counted and the run goes on.
        except Exception as exc:  # repro: noqa-RPR002
            failures.append(f"split {index}: {type(exc).__name__}: {exc}")
            continue
        errors[index] = float(np.mean(predictions != y_test))
        if refit is None and index == 0:
            refit = model
    rss = peak_rss_mb()

    # Memory and checks use split 0 after the timed loop, so they
    # neither eat into the measured seconds nor keep a second split
    # alive during it.  Memory goes first, on inputs no fit has touched
    # (a fit caches the transpose of its CSR input).
    split = case.split(0)
    X_train, y_train, X_test, y_test = split
    peak_mem = peak_alloc_mb(
        lambda: case.model().fit(X_train, y_train).predict(X_test)
    )
    model = setups[-1][2]
    checks = [Check(
        "deterministic",
        refit is not None and all(_same_bits(refit, m) for _, _, m in setups),
        "split 0 refit equals every set-up fit bit for bit",
    )]
    checks.extend(check_fit(
        case, model, X_train, y_train, X_test, y_test, model.predict(X_test)
    ))
    if case.name == "news_sharded":
        checks.extend(_check_sharded(case, model, split))
    error_rate = float(np.mean(list(errors.values()))) if errors else 1.0
    checks.append(Check(
        "error_rate_ceiling", error_rate <= case.error_ceiling,
        f"{error_rate:.4f} <= {case.error_ceiling}",
    ))
    return Outcome(
        metrics={
            "setup_s": _median([ref for _, ref, _ in setups]),
            "fit_s": _median(fit_s),
            "predict_s": _median(predict_s),
            # no latency objective on a fit: the share of splits that
            # were fitted and predicted without an error
            "slo_share": len(predict_s) / max(1, len(predict_s) + len(failures)),
            "peak_mem_mb": peak_mem,
        },
        attempted=attempted,
        failed=len(failures),
        checks=checks,
        info={
            "samples": len(fit_s),
            "splits": case.n_splits,
            "raw_s": {
                "setup_s": _median([raw for raw, _, _ in setups]),
                "fit_s": _median(fit_raw),
                "predict_s": _median(predict_raw),
            },
            "error_rate": error_rate,
            "peak_rss_mb": rss,
            "fit_s_per_iter": (
                _median(fit_s) / MAX_ITER if case.solver == "lsqr" else None
            ),
            "shape": [int(s) for s in X_train.shape],
            "nnz": _nnz(X_train),
            "classes": int(model.classes_.shape[0]),
            "failures": failures[:5],
        },
    )


def run_fit_traced(case: FitCase, seconds: float) -> Outcome:
    """Alternate untraced and traced fits of each split; break them down."""
    _setup_fit(case)
    clock = LayerClock()
    untraced: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    mismatched: List[int] = []
    failures: List[str] = []
    attempted = 0
    for count, index in enumerate(_measured_splits(case, seconds)):
        X_train, y_train, _, _ = case.split(index)
        # the second fit of a split finds its transpose cached
        order = (False, True) if count % 2 == 0 else (True, False)
        fitted = {}
        for with_trace in order:
            attempted += 1
            try:
                if with_trace:
                    clock.reset()
                    tracer = LayerTracer(clock)
                    model = case.model()
                    model.trace = tracer
                    with Instrumented(clock):
                        _, wall = clock.run_root(
                            lambda: model.fit(X_train, y_train)
                        )
                    traced.append(wall)
                    m, n = X_train.shape
                    c = int(model.classes_.shape[0])
                    layers.append(breakdown(
                        clock, wall, tracer.lsqr_iterations(), tracer,
                        cost_model_flam(
                            case.solver, m, n, c, MAX_ITER, _nnz(X_train)
                        ),
                    ))
                else:
                    model = case.model()
                    start = time.perf_counter()
                    model.fit(X_train, y_train)
                    untraced.append(time.perf_counter() - start)
            # Boundary: a failed fit is counted and the run goes on.
            except Exception as exc:  # repro: noqa-RPR002
                failures.append(f"split {index}: {type(exc).__name__}: {exc}")
                continue
            fitted[with_trace] = model
        if len(fitted) == 2 and not _same_bits(fitted[False], fitted[True]):
            mismatched.append(index)

    metrics = {
        name: _median([layer[name] for layer in layers])
        for name in (layers[0] if layers else {})
    }
    metrics["trace.overhead"] = (
        _median(traced) / _median(untraced) - 1.0 if untraced and traced else 0.0
    )
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=len(failures),
        checks=[
            Check("traced_fits_ran", bool(layers), "; ".join(failures)),
            Check(
                "traced_equals_untraced", not mismatched,
                f"splits whose traced fit differs: {mismatched}",
            ),
        ],
        info={
            "samples": len(layers),
            "fit_s_traced": _median(traced),
            "fit_s_untraced": _median(untraced),
            "glue_share_max": max(
                (layer["srda.glue_share"] for layer in layers), default=1.0
            ),
        },
    )


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------

#: The one workload that serves requests; every other one fits.
SERVE_WORKLOAD = "serve_faces"

MODEL_NAME = "faces"


@dataclass
class ServeCase:
    """Training, update and request rows for the served face model."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_updates: List[np.ndarray]
    y_updates: List[np.ndarray]
    requests: np.ndarray
    labels: np.ndarray
    rate: float
    update_every: float
    error_ceiling: float

    def model(self) -> SRDA:
        return SRDA(
            alpha=ALPHA, config=SolverConfig(solver="lsqr"),
            max_iter=MAX_ITER, tol=0.0,
        )


def make_serve_case(seed: int, scale: str) -> ServeCase:
    """Faces split per subject into training, update and request rows."""
    size = SIZES[scale]["serve"]
    data = make_faces(
        n_subjects=size["n_subjects"],
        images_per_subject=size["images_per_subject"],
        side=size["side"],
        seed=seed,
    )
    rng = np.random.default_rng([seed, 0])
    n_train, n_pool = size["train_per_class"], size["update_pool"]
    train, pool, rest = [], [], []
    for label in np.unique(data.y):
        members = rng.permutation(np.flatnonzero(data.y == label))
        train.append(members[:n_train])
        pool.append(members[n_train:n_train + n_pool])
        rest.append(members[n_train + n_pool:])
    # one held-out row per subject in each update
    updates = [np.array([rows[u] for rows in pool]) for u in range(n_pool)]
    requests = rng.permutation(np.concatenate(rest))
    return ServeCase(
        X_train=data.X[np.concatenate(train)],
        y_train=data.y[np.concatenate(train)],
        X_updates=[data.X[rows] for rows in updates],
        y_updates=[data.y[rows] for rows in updates],
        requests=data.X[requests].astype(np.float32),
        labels=data.y[requests],
        rate=size["rate"],
        update_every=size["update_every"],
        error_ceiling=ERROR_CEILING[scale][SERVE_WORKLOAD],
    )


class _StampedModel:
    """The served model for one batch; logs when the batch ran.

    ``BatchingPredictor`` looks its model up once per batch and serves
    tickets first in, first out, so this log maps every request to the
    batch — and the model version — that answered it.
    """

    def __init__(self, record: Any, log: List[Tuple[float, float, int, int]]):
        self._model = record.model
        self._version = record.version
        self._log = log

    def predict(self, X: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        try:
            return self._model.predict(X)
        finally:
            self._log.append(
                (start, time.perf_counter(), X.shape[0], self._version)
            )


def _setup_serve(case: ServeCase) -> SRDA:
    model = case.model().partial_fit(case.X_train, case.y_train)
    registry = ModelRegistry()
    registry.register(MODEL_NAME, model)
    log: List[Tuple[float, float, int, int]] = []
    with BatchingPredictor(
        lambda: _StampedModel(registry.get(MODEL_NAME), log),
        max_batch=MAX_BATCH, max_wait=MAX_WAIT_S,
    ) as predictor:
        tickets = [predictor.submit(row) for row in case.requests[:MAX_BATCH]]
        for ticket in tickets:
            ticket.done.wait(30.0)
    return model


@dataclass
class _ServeLog:
    """What the load threads and the batcher recorded in one run."""

    due: np.ndarray
    submitted: np.ndarray
    tickets: List[Any]
    batches: List[Tuple[float, float, int, int]] = field(default_factory=list)
    updates: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def run_serve(case: ServeCase, seconds: float, trace: bool) -> Outcome:
    """Open-loop single-row requests while a writer updates the model.

    Two load threads: the generator submits request ``k`` when it is
    due, ``k / rate`` seconds after the start, however far behind the
    server is; the writer copies the active model, absorbs one update
    batch with ``partial_fit`` and promotes the copy, every
    ``update_every`` seconds.

    Set-ups, which run alone, are reported in reference seconds (see
    ``hostspeed.py``).  Updates and requests are reported as measured:
    they run while three threads share the cores, and neither followed
    the calibration there (see the README).
    """
    host = HostSpeed()
    setups = _repeat_setup(host, lambda: _setup_serve(case))
    registry = ModelRegistry()
    registry.register(MODEL_NAME, setups[-1][2])
    clock = LayerClock() if trace else None

    n_requests = max(1, int(seconds * case.rate))
    n_updates = max(1, int(seconds / case.update_every))
    log = _ServeLog(
        due=np.full(n_requests, np.nan),
        submitted=np.full(n_requests, np.nan),
        tickets=[None] * n_requests,
    )
    predictor = BatchingPredictor(
        lambda: _StampedModel(registry.get(MODEL_NAME), log.batches),
        max_batch=MAX_BATCH, max_wait=MAX_WAIT_S,
    )
    start = time.perf_counter() + 0.05

    def generate() -> None:
        try:
            for k in range(n_requests):
                log.due[k] = start + k / case.rate
                delay = log.due[k] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                log.submitted[k] = time.perf_counter()
                log.tickets[k] = predictor.submit(
                    case.requests[k % case.requests.shape[0]]
                )
        # Boundary: the load thread hands its failure to the main thread.
        except Exception as exc:  # repro: noqa-RPR002
            log.errors.append(f"generator: {type(exc).__name__}: {exc}")

    def update(u: int) -> Dict[str, Any]:
        began = time.perf_counter()
        model = copy.deepcopy(registry.active(MODEL_NAME))
        copied = time.perf_counter()
        # the pool repeats, so a long run keeps its write rate
        u %= len(case.X_updates)
        X, y = case.X_updates[u], case.y_updates[u]
        layers = None
        if clock is None:
            model.partial_fit(X, y)
        else:
            clock.reset()
            _, wall = clock.run_root(lambda: model.partial_fit(X, y))
            m, n = int(model.fit_report_.incremental["rows_total"]), X.shape[1]
            layers = breakdown(
                clock, wall, max(model.lsqr_iterations_),
                flam_model=cost_model_flam(
                    "lsqr", m, n, int(model.classes_.shape[0]), MAX_ITER, m * n
                ),
            )
        fitted = time.perf_counter()
        version = registry.register(MODEL_NAME, model)
        registry.promote(MODEL_NAME, version)
        done = time.perf_counter()
        return {
            "total_s": done - began,
            "copy_s": copied - began,
            "partial_fit_s": fitted - copied,
            "promote_s": done - fitted,
            "lsqr_iters": max(model.lsqr_iterations_),
            "rows_total": model.fit_report_.incremental["rows_total"],
            "layers": layers,
        }

    def write() -> None:
        try:
            for u in range(n_updates):
                delay = start + (u + 0.5) * case.update_every - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                log.updates.append(update(u))
        # Boundary: the load thread hands its failure to the main thread.
        except Exception as exc:  # repro: noqa-RPR002
            log.errors.append(f"writer: {type(exc).__name__}: {exc}")

    generator = threading.Thread(target=generate, name="fitbench-requests")
    writer = threading.Thread(target=write, name="fitbench-updates")
    with Instrumented(clock) if clock is not None else contextlib.nullcontext():
        try:
            generator.start()
            writer.start()
            generator.join(seconds + 60.0)
            writer.join(seconds + 60.0)
            answered = all(
                ticket is not None and ticket.done.wait(30.0)
                for ticket in log.tickets
            )
        finally:
            predictor.close()
    drained = answered and not generator.is_alive() and not writer.is_alive()
    rss = peak_rss_mb()

    checks, latency, queue_wait, info = _check_serve(case, registry, log, drained)
    info["peak_rss_mb"] = rss
    sizes = [b[2] for b in log.batches]
    failed = sum(1 for t in log.tickets if t is None or t.error is not None)
    attempted = n_requests + len(log.updates)
    updates = log.updates
    if not trace:
        served = latency[np.isfinite(latency)]
        info["raw_s"] = {"setup_s": _median([raw for raw, _, _ in setups])}
        metrics = {
            "setup_s": _median([ref for _, ref, _ in setups]),
            "fit_s": _median([u["total_s"] for u in updates]),
            "predict_s": float(np.median(served)) if served.size else 0.0,
            "slo_share": float(np.mean(latency <= SLO_S)),
            # one more update of the final model, outside the timed window
            "peak_mem_mb": peak_alloc_mb(
                lambda: copy.deepcopy(registry.active(MODEL_NAME)).partial_fit(
                    case.X_updates[0], case.y_updates[0]
                )
            ),
        }
        return Outcome(metrics, attempted, failed + len(log.errors), checks, info)
    metrics = {
        name: _median([u["layers"][name] for u in updates])
        for name in (updates[0]["layers"] if updates else {})
    }
    metrics.update({
        "serving.queue_wait_s": float(np.median(queue_wait)),
        "serving.compute_s": _median([b[1] - b[0] for b in log.batches]),
        "serving.batch_size": float(np.mean(sizes)) if sizes else 0.0,
        "serving.generator_lag_s": float(
            np.nanpercentile(log.submitted - log.due, 99)
        ),
        "update.copy_s": _median([u["copy_s"] for u in updates]),
        "update.partial_fit_s": _median([u["partial_fit_s"] for u in updates]),
        "update.promote_s": _median([u["promote_s"] for u in updates]),
        "update.lsqr_iters": _median([float(u["lsqr_iters"]) for u in updates]),
    })
    return Outcome(metrics, attempted, failed + len(log.errors), checks, info)


def _check_serve(case: ServeCase, registry: ModelRegistry, log: _ServeLog,
                 drained: bool):
    """Checks of a serving run, plus per-request latency and queue wait.

    A request that failed or was never answered gets infinite latency,
    so it counts as a miss.
    """
    n = len(log.tickets)
    ok = np.array([t is not None and t.error is None for t in log.tickets])
    results = np.array(
        [t.result if ok[i] else -1 for i, t in enumerate(log.tickets)]
    )
    sizes = np.array([b[2] for b in log.batches], dtype=np.int64)
    mapped = int(sizes.sum()) == n
    expected_rows = [
        case.X_train.shape[0] + case.X_updates[0].shape[0] * (i + 1)
        for i in range(len(log.updates))
    ]
    checks = [
        Check("load_threads", not log.errors, "; ".join(log.errors)),
        Check("drained", drained,
              "every request answered and both load threads stopped"),
        Check("no_failed_requests", ok.all(), f"{int((~ok).sum())} failed"),
        Check("batches_cover_requests", mapped, f"{int(sizes.sum())} of {n}"),
        Check(
            "updates_absorbed",
            bool(log.updates)
            and [u["rows_total"] for u in log.updates] == expected_rows,
            f"{len(log.updates)} updates",
        ),
    ]
    latency = np.full(n, np.inf)
    queue_wait = np.zeros(n)
    pool_row = np.arange(n) % case.requests.shape[0]
    if mapped:
        batch_of = np.repeat(np.arange(len(log.batches)), sizes)
        starts, ends = (np.array(c) for c in list(zip(*log.batches))[:2])
        latency = np.where(ok, ends[batch_of] - log.due, np.inf)
        queue_wait = starts[batch_of] - log.submitted
        # Each batch again, as the same float32 rows in the same order,
        # through the version that served it: the answers must match
        # exactly.
        wrong = 0
        firsts = np.cumsum(sizes) - sizes
        for (_, _, size, version), first in zip(log.batches, firsts):
            model = registry.get(MODEL_NAME, version).model
            rows = slice(first, first + size)
            expected = model.predict(case.requests[pool_row[rows]])
            wrong += int(np.sum(expected != results[rows]))
        checks.append(Check(
            "served_equals_version_predict", wrong == 0,
            f"{n - wrong} of {n} answers equal their version's predict "
            f"of the same batch",
        ))
    labels = case.labels[pool_row]
    error_rate = float(np.mean(results[ok] != labels[ok])) if ok.any() else 1.0
    checks.append(Check(
        "error_rate_ceiling", error_rate <= case.error_ceiling,
        f"{error_rate:.4f} <= {case.error_ceiling}",
    ))
    served = latency[np.isfinite(latency)]
    info = {
        "requests": n,
        "updates": len(log.updates),
        "batches": len(log.batches),
        "error_rate": error_rate,
        "request_p99_s": float(np.percentile(served, 99)) if served.size else 0.0,
        "generator_lag_max_s": float(np.nanmax(log.submitted - log.due)),
    }
    return checks, latency, queue_wait, info


def run(name: str, seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    """Make workload ``name``'s inputs from ``seed`` and run it once."""
    start = time.perf_counter()
    if name == SERVE_WORKLOAD:
        case = make_serve_case(seed, scale)
        inputs_s = time.perf_counter() - start
        outcome = run_serve(case, seconds, trace)
    else:
        case = make_fit_case(name, seed, scale)
        inputs_s = time.perf_counter() - start
        runner = run_fit_traced if trace else run_fit
        outcome = runner(case, seconds)
    outcome.info["inputs_s"] = inputs_s
    outcome.info["kernel_backend"] = kernels.active_backend()
    return outcome
