"""The experiment runner behind every table and figure.

Protocol (Section IV): for each training size, repeat over random splits
(the paper uses 20); per split, fit each algorithm on the training
partition, time the fit ("computational time of computing the projection
functions"), classify the test partition, and report mean ± std error
plus mean time.

Three split protocols, selected by ``dataset.metadata["split_protocol"]``:

- ``"per_class_within"`` — sample ``l`` per class, test on the rest (PIE);
- ``"per_class_from_pool"`` — sample ``l`` per class from a fixed train
  pool, always test on the fixed test pool (Isolet, MNIST);
- ``"ratio"`` — stratified fraction per class (20Newsgroups).

The **memory-budget guard** reproduces the dashes in Tables IX/X: before
fitting, each algorithm's predicted peak working set (the Table-I model
in :func:`repro.complexity.flam.estimate_fit_bytes`) is compared to the
budget — the paper's machine had 2 GB — and over-budget runs are recorded
as failures instead of executed.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.complexity.flam import estimate_fit_bytes
from repro.datasets.base import Dataset
from repro.datasets.splits import (
    per_class_split,
    per_class_split_from_pool,
    ratio_split,
    split_seeds,
)
from repro.eval.metrics import error_rate, mean_std
from repro.observability import current_tracer
from repro.parallel import Backend, resolve_backend
from repro.robustness import RobustnessWarning

#: Cell key: (algorithm name, training-size label).
CellKey = Tuple[str, str]

#: Failure-type sentinels for non-exception failure modes.
MEMORY_BUDGET_FAILURE = "MemoryBudgetExceeded"
FIT_TIMEOUT_FAILURE = "FitTimeout"

#: The experiment machine in the paper had 2 GB of RAM.
PAPER_MEMORY_BUDGET_BYTES = 2 * 1024**3


@dataclass
class CellResult:
    """All splits of one (algorithm, training size) cell."""

    errors: List[float] = field(default_factory=list)
    fit_seconds: List[float] = field(default_factory=list)
    failure: Optional[str] = None
    #: Machine-readable failure class: the exception type name for
    #: fit/predict errors, or a sentinel (:data:`MEMORY_BUDGET_FAILURE`,
    #: :data:`FIT_TIMEOUT_FAILURE`) for guard-imposed failures.
    failure_type: Optional[str] = None
    retries: int = 0

    @property
    def failed(self) -> bool:
        """True when the cell could not run (e.g. over memory budget)."""
        return self.failure is not None

    def record_failure(self, message: str, failure_type: str) -> None:
        """Mark the cell failed, discarding any partial measurements."""
        self.failure = message
        self.failure_type = failure_type
        self.errors.clear()
        self.fit_seconds.clear()

    @property
    def mean_error(self) -> float:
        return mean_std(np.asarray(self.errors))[0] if self.errors else float("nan")

    @property
    def std_error(self) -> float:
        return mean_std(np.asarray(self.errors))[1] if self.errors else float("nan")

    @property
    def mean_time(self) -> float:
        if not self.fit_seconds:
            return float("nan")
        return float(np.mean(self.fit_seconds))


@dataclass
class ExperimentResult:
    """Everything needed to print one dataset's tables and figure."""

    dataset_name: str
    algorithm_names: List[str]
    size_labels: List[str]
    cells: Dict[CellKey, CellResult]
    n_splits: int

    def cell(self, algorithm: str, size_label: str) -> CellResult:
        """Fetch one cell by algorithm and size label."""
        return self.cells[(algorithm, size_label)]

    def error_matrix(self) -> np.ndarray:
        """Mean errors, shape (n_sizes, n_algorithms); NaN where failed."""
        out = np.full(
            (len(self.size_labels), len(self.algorithm_names)), np.nan
        )
        for i, size in enumerate(self.size_labels):
            for j, algo in enumerate(self.algorithm_names):
                cell = self.cells[(algo, size)]
                if not cell.failed:
                    out[i, j] = cell.mean_error
        return out

    def time_matrix(self) -> np.ndarray:
        """Mean fit times, same layout as :meth:`error_matrix`."""
        out = np.full(
            (len(self.size_labels), len(self.algorithm_names)), np.nan
        )
        for i, size in enumerate(self.size_labels):
            for j, algo in enumerate(self.algorithm_names):
                cell = self.cells[(algo, size)]
                if not cell.failed:
                    out[i, j] = cell.mean_time
        return out


def _make_split(
    dataset: Dataset,
    size: Union[int, float],
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    protocol = dataset.metadata.get("split_protocol", "per_class_within")
    if protocol == "per_class_within":
        return per_class_split(dataset.y, int(size), rng)
    if protocol == "per_class_from_pool":
        return per_class_split_from_pool(
            dataset.y,
            dataset.metadata["train_pool"],
            dataset.metadata["test_pool"],
            int(size),
            rng,
        )
    if protocol == "ratio":
        return ratio_split(dataset.y, float(size), rng)
    raise ValueError(f"unknown split protocol {protocol!r}")


def size_label(size: Union[int, float]) -> str:
    """Human-readable training-size label ("30" or "20%")."""
    if isinstance(size, float) and size < 1:
        return f"{int(round(size * 100))}%"
    return str(int(size))


# ----------------------------------------------------------------------
# Checkpoint/resume for multi-split sweeps
# ----------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def _checkpoint_signature(
    dataset_name: str,
    names: List[str],
    labels: List[str],
    n_splits: int,
    seed: int,
) -> Dict[str, Any]:
    return {
        "dataset": dataset_name,
        "algorithms": list(names),
        "size_labels": list(labels),
        "n_splits": int(n_splits),
        "seed": int(seed),
    }


def _write_checkpoint(
    path: Path,
    signature: Dict[str, Any],
    completed: Dict[str, int],
    cells: Dict[CellKey, CellResult],
) -> None:
    """Atomically persist sweep progress (temp file + rename)."""
    labels: List[str] = signature["size_labels"]
    state = {
        "version": _CHECKPOINT_VERSION,
        "signature": signature,
        "completed_splits": completed,
        "cells": {
            label: {
                name: {
                    "errors": cell.errors,
                    "fit_seconds": cell.fit_seconds,
                    "failure": cell.failure,
                    "failure_type": cell.failure_type,
                    "retries": cell.retries,
                }
                for (name, lab), cell in cells.items()
                if lab == label
            }
            for label in labels
        },
    }
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(state))
    os.replace(tmp, path)


def _load_checkpoint(
    path: Path,
    signature: Dict[str, Any],
    cells: Dict[CellKey, CellResult],
) -> Dict[str, int]:
    """Restore progress from ``path`` into ``cells``.

    Returns completed-split counts per size label.  A missing file means
    a fresh start; an unreadable or mismatched checkpoint is ignored
    with a :class:`RobustnessWarning` (never fails the sweep).
    """
    if not path.exists():
        return {}
    try:
        state = json.loads(path.read_text())
        if state.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported version {state.get('version')!r}")
        stored_signature = state["signature"]
        completed = state["completed_splits"]
        stored_cells = state["cells"]
    except (json.JSONDecodeError, KeyError, OSError, ValueError) as exc:
        warnings.warn(
            f"ignoring unreadable experiment checkpoint {path}: {exc}",
            RobustnessWarning,
            stacklevel=3,
        )
        return {}
    if stored_signature != signature:
        warnings.warn(
            f"ignoring experiment checkpoint {path}: it belongs to a "
            "different sweep configuration",
            RobustnessWarning,
            stacklevel=3,
        )
        return {}
    for label, per_algo in stored_cells.items():
        for name, stored in per_algo.items():
            cell = cells[(name, label)]
            cell.errors = [float(e) for e in stored["errors"]]
            cell.fit_seconds = [float(t) for t in stored["fit_seconds"]]
            cell.failure = stored["failure"]
            # Checkpoints written before failure_type existed lack the
            # key; those cells keep None rather than invalidating.
            cell.failure_type = stored.get("failure_type")
            cell.retries = int(stored.get("retries", 0))
    return {label: int(done) for label, done in completed.items()}


def run_experiment(
    dataset: Dataset,
    algorithms: Dict[str, Callable[[], object]],
    train_sizes: Optional[Sequence[Union[int, float]]] = None,
    n_splits: int = 20,
    seed: int = 0,
    memory_budget_bytes: Optional[float] = None,
    continue_on_error: bool = False,
    retries: int = 0,
    fit_timeout_seconds: Optional[float] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    n_jobs: Optional[int] = None,
    backend: Union[str, Backend, None] = None,
) -> ExperimentResult:
    """Run the full (algorithm × training size × split) sweep.

    Parameters
    ----------
    dataset:
        A :class:`Dataset` whose metadata declares the split protocol.
    algorithms:
        Mapping of display name → zero-argument factory returning a
        fresh, unfitted estimator with ``fit``/``predict``.
    train_sizes:
        Per-class counts or ratios; defaults to the dataset's declared
        paper sizes.
    n_splits:
        Random repetitions (paper: 20).
    seed:
        Base seed; split ``j`` of size ``i`` derives a unique stream, so
        every algorithm sees the *same* splits.
    memory_budget_bytes:
        When set, algorithms whose predicted working set exceeds it are
        skipped and marked failed (use
        :data:`PAPER_MEMORY_BUDGET_BYTES` to emulate the paper's 2 GB
        machine).
    continue_on_error:
        When True, an exception raised by one algorithm's fit/predict is
        recorded as that cell's failure (like the paper's "—" entries)
        instead of aborting the whole sweep.  Default False: long sweeps
        should not silently hide implementation bugs unless asked to.
    retries:
        Re-attempt a failed fit/predict (fresh estimator, same split) up
        to this many extra times before declaring the cell failed; the
        attempt count is recorded on :attr:`CellResult.retries`.
    fit_timeout_seconds:
        When set, a fit that takes longer than this marks the cell
        failed and the algorithm is skipped for the rest of the sweep.
        The check is cooperative (measured after the fit returns) — it
        cannot interrupt a hung BLAS call, but it stops a slow algorithm
        from consuming every remaining split.
    checkpoint_path:
        When set, sweep progress is persisted (atomically) to this JSON
        file after every completed split, and a matching checkpoint is
        resumed from instead of recomputing.  Checkpoints from a
        different configuration are ignored with a warning.  The file is
        removed on successful completion.
    n_jobs:
        Cells of one split (one fit/predict per algorithm) run
        concurrently on this many worker threads; ``None``/1 keeps the
        sequential loop.  Splits are still drawn sequentially from the
        same per-label seed streams and cells never share state, so the
        recorded errors are bitwise identical at any ``n_jobs`` — only
        the wall-clock timings differ.  Checkpointing (after each full
        split), retries, and the timeout guard are unaffected.
    backend:
        Execution backend for the parallel cells: ``None`` (pick from
        ``n_jobs``), ``"serial"``/``"thread"``, or a live
        :class:`repro.parallel.Backend` (shared, not closed).
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if train_sizes is None:
        train_sizes = dataset.metadata.get("train_sizes") or dataset.metadata.get(
            "train_ratios"
        )
        if train_sizes is None:
            raise ValueError(
                "dataset declares no default train sizes; pass train_sizes"
            )
    labels = [size_label(size) for size in train_sizes]
    names = list(algorithms)
    cells: Dict[CellKey, CellResult] = {
        (name, label): CellResult() for name in names for label in labels
    }

    signature = _checkpoint_signature(
        dataset.name, names, labels, n_splits, seed
    )
    completed: Dict[str, int] = {}
    ckpt: Optional[Path] = (
        Path(checkpoint_path) if checkpoint_path is not None else None
    )
    if ckpt is not None:
        completed = _load_checkpoint(ckpt, signature, cells)

    n_classes = dataset.n_classes
    avg_nnz: Optional[float] = (
        dataset.X.mean_nnz_per_row() if dataset.is_sparse else None
    )

    runner = resolve_backend(backend, n_jobs)
    owns_runner = not isinstance(backend, Backend)

    tracer = current_tracer()
    try:
        with tracer.span(
            "experiment.run",
            dataset=dataset.name,
            n_algorithms=len(names),
            n_splits=int(n_splits),
            n_workers=int(runner.n_workers),
        ):
            for size, label in zip(train_sizes, labels):
                seeds = split_seeds(seed + hash(label) % 100003, n_splits)
                for split_index, split_seed in enumerate(seeds):
                    if split_index < completed.get(label, 0):
                        continue  # restored from checkpoint
                    with tracer.span(
                        "experiment.split", size=label, split=int(split_index)
                    ):
                        rng = np.random.default_rng(int(split_seed))
                        train_idx, test_idx = _make_split(dataset, size, rng)
                        X_train, y_train = dataset.subset(train_idx)
                        X_test, y_test = dataset.subset(test_idx)
                        m, n = X_train.shape

                        def run_one(name: str) -> None:
                            _run_cell(
                                cells[(name, label)],
                                name,
                                algorithms[name],
                                X_train,
                                y_train,
                                X_test,
                                y_test,
                                (m, n, n_classes, avg_nnz),
                                memory_budget_bytes,
                                continue_on_error,
                                retries,
                                fit_timeout_seconds,
                                tracer,
                            )

                        # Each cell owns disjoint state (its CellResult),
                        # so fanning the per-algorithm cells of ONE split
                        # across workers cannot reorder or race anything
                        # the serial loop produced; the barrier below
                        # keeps checkpoint-after-split exact.
                        runner.map(run_one, names)

                    completed[label] = split_index + 1
                    if ckpt is not None:
                        _write_checkpoint(ckpt, signature, completed, cells)
    finally:
        if owns_runner:
            runner.close()

    if ckpt is not None:
        ckpt.unlink(missing_ok=True)

    return ExperimentResult(
        dataset_name=dataset.name,
        algorithm_names=names,
        size_labels=labels,
        cells=cells,
        n_splits=n_splits,
    )


def _run_cell(
    cell: CellResult,
    name: str,
    factory: Callable[[], Any],
    X_train: Any,
    y_train: np.ndarray,
    X_test: Any,
    y_test: np.ndarray,
    problem: Tuple[int, int, int, Optional[float]],
    memory_budget_bytes: Optional[float],
    continue_on_error: bool,
    retries: int,
    fit_timeout_seconds: Optional[float],
    tracer: Any,
) -> None:
    """One algorithm's fit/predict on one split, with every guard.

    Failures (memory budget, exception after retries, timeout) set both
    the human-readable :attr:`CellResult.failure` message and the
    machine-readable :attr:`CellResult.failure_type`, and land as an
    ``experiment.failure`` event on the enclosing split span.
    """
    if cell.failed:
        return
    m, n, n_classes, avg_nnz = problem

    def _fail(message: str, failure_type: str) -> None:
        cell.record_failure(message, failure_type)
        tracer.event(
            "experiment.failure",
            algorithm=name,
            failure_type=failure_type,
            message=message,
        )

    if memory_budget_bytes is not None:
        predicted = estimate_fit_bytes(name, m, n, n_classes, s=avg_nnz)
        if predicted > memory_budget_bytes:
            _fail(
                f"predicted working set {predicted / 1e9:.1f} GB "
                f"exceeds budget {memory_budget_bytes / 1e9:.1f} GB",
                MEMORY_BUDGET_FAILURE,
            )
            return
    outcome: Optional[Tuple[float, float]] = None
    with tracer.span("experiment.fit", algorithm=name) as fit_span:
        for attempt in range(retries + 1):
            model = factory()
            try:
                start = time.perf_counter()
                model.fit(X_train, y_train)
                elapsed = time.perf_counter() - start
                error = error_rate(y_test, model.predict(X_test))
                outcome = (elapsed, error)
                break
            # Sanctioned boundary: the resilient runner must survive
            # any solver failure mode to finish the sweep.
            except Exception as exc:  # repro: noqa-RPR002
                if attempt < retries:
                    cell.retries += 1
                    continue
                if not continue_on_error:
                    raise
                _fail(f"{type(exc).__name__}: {exc}", type(exc).__name__)
        if outcome is not None:
            fit_span.set_attribute("fit_seconds", outcome[0])
            fit_span.set_attribute("error", outcome[1])
    if outcome is None:
        return
    elapsed, error = outcome
    if fit_timeout_seconds is not None and elapsed > fit_timeout_seconds:
        _fail(
            f"fit took {elapsed:.2f}s, exceeding the "
            f"{fit_timeout_seconds:.2f}s timeout",
            FIT_TIMEOUT_FAILURE,
        )
        return
    cell.fit_seconds.append(elapsed)
    cell.errors.append(error)
