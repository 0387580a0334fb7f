"""SRDA — Spectral Regression Discriminant Analysis (Section III).

The two-step algorithm:

1. **Responses** (spectral step): the ``c - 1`` closed-form eigenvectors
   of the LDA graph matrix, from :mod:`repro.core.responses`.
2. **Regularized regression** (Eqn 14/19): for each response ``ȳ``,

       a = argmin_a  Σᵢ (aᵀxᵢ + b - ȳᵢ)² + α ‖a‖².

Centering vs bias absorption (Section III-B).  Eqn 14 penalizes only the
projection vector ``a``, with the offset ``b`` free.  There are two ways
to realize that:

- **center the data** — regress ``ȳ`` on ``X - μ`` (the responses are
  already orthogonal to the all-ones vector, so they need no centering)
  and set ``b = -μᵀa``.  Exactly Eqn 14; used for *dense* input, as the
  reference implementation does.
- **append a constant 1 feature** — the trick the paper introduces for
  sparse data, where the centered matrix would be dense and blow the
  memory budget.  The absorbed bias then falls inside the penalty — a
  deliberate approximation the paper accepts for the sparse case.
  Realized matrix-free by :class:`AppendOnesOperator`.

``centering="auto"`` (default) picks centering for dense input and
bias absorption for sparse input.  For dense data the centering is
explicit; for sparse data with ``centering=True`` the implicit
:class:`CenteringOperator` keeps the matrix untouched (only LSQR can run
this path).

Two solvers, matching Section III-C:

- ``"normal"`` — normal equations ``(X̄ᵀX̄ + αI) a = X̄ᵀȳ`` (Eqn 20)
  factored once by our Cholesky and reused for all ``c - 1`` right-hand
  sides.  When ``n > m`` the dual identity
  ``(X̄ᵀX̄ + αI)⁻¹X̄ᵀ = X̄ᵀ(X̄X̄ᵀ + αI)⁻¹`` (the finite-α form of Eqn 21)
  switches to an ``m × m`` system.
- ``"lsqr"`` — the Paige–Saunders iteration with ``damp = √α``, touching
  the data only through mat-vecs: the linear-time path.  The paper runs
  15–20 iterations; ``max_iter`` defaults to 20.

``solver="auto"`` picks LSQR for sparse input and for problems where
``min(m, n)`` is large, normal equations otherwise — mirroring how the
paper ran its experiments (closed form on PIE/Isolet/MNIST, LSQR on
20Newsgroups).

Step 2 is :func:`solve_ridge`, the package's one regression stage.
:class:`~repro.core.semi_supervised.SemiSupervisedSRDA`,
:class:`~repro.core.spectral_embedding.SpectralRegressionEmbedding` and
:class:`~repro.baselines.ridge.RidgeClassifier` regress through it too,
and :func:`srda_alpha_path` shares its operator lifetime.
"""

from __future__ import annotations

import copy
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro._typing import FloatArray, MatrixLike

from repro.core.base import LinearEmbedder, as_dense, validate_data
from repro.core.responses import response_table_from_counts
from repro.core.solver_config import SolverConfig
from repro.linalg import kernels
from repro.linalg.block_lsqr import (
    FAILURE_ISTOPS,
    ISTOP_REASONS,
    BlockLSQRResult,
    SharedBidiagonalization,
    block_lsqr,
)
from repro.linalg.dense import dense_matmul, normal_gram
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    LinearOperator,
    as_operator,
)
from repro.linalg.sparse import CSRMatrix, is_sparse
from repro.observability import Tracer, resolve_tracer
from repro.parallel import ShardedOperator, effective_n_jobs
from repro.robustness import FitReport, guarded_solve

#: Above this min(m, n) the Gram matrix of the normal-equations path gets
#: expensive (cubic factor); "auto" switches to LSQR.
_AUTO_NORMAL_LIMIT = 2000


def _note_parallel_backend(report: FitReport, sharded) -> None:
    """Record which backend served the products of a sharded solve."""
    if sharded is not None:
        report.backend = sharded.backend.name


def _note_singletons(counts, report: FitReport, emit: bool) -> None:
    """Record (and optionally warn) when some classes have one sample."""
    singletons = int(np.sum(counts == 1))
    if singletons:
        report.add_warning(
            f"{singletons} of {counts.shape[0]} classes have a single "
            "sample; their within-class scatter is zero and the fit "
            "may overfit those classes",
            emit=emit,
        )


def _record_lsqr_columns(columns, report: FitReport, tol: float, alpha: float):
    """Fold per-column LSQR results into a :class:`FitReport`.

    Shared by :func:`solve_ridge` and :func:`srda_alpha_path`, so the
    diagnostics and warning text are identical no matter which engine
    produced the columns.  Returns the per-column iteration counts.
    """
    iterations: List[int] = []
    istops: List[int] = []
    residuals: List[float] = []
    for j, result in enumerate(columns):
        iterations.append(result.itn)
        istops.append(result.istop)
        residuals.append(float(result.r2norm))
        if result.istop in FAILURE_ISTOPS:
            report.converged = False
            report.add_warning(
                f"LSQR failed on response {j}: "
                f"istop={result.istop} ({ISTOP_REASONS[result.istop]}) "
                f"after {result.itn} iterations, r2norm={result.r2norm:.3g}"
            )
        elif result.istop == 7 and tol > 0:
            # Hitting the cap is only noteworthy when the caller
            # asked for tolerance-based convergence (tol=0 runs a
            # fixed iteration count by design, per the paper).
            report.add_warning(
                f"LSQR hit the iteration limit on response {j} "
                f"before reaching tol={tol:g}",
                emit=False,
            )
    report.solver = "lsqr"
    report.lsqr_istop = istops
    report.lsqr_iterations = iterations
    report.lsqr_residuals = residuals
    report.effective_alpha = alpha
    return iterations


# ----------------------------------------------------------------------
# The regression stage (step 2), shared by every estimator
# ----------------------------------------------------------------------
@contextmanager
def _ridge_operator(
    X: MatrixLike, center: bool, config: SolverConfig
) -> Iterator[Tuple[Any, Optional[ShardedOperator]]]:
    """The LSQR system operator, inside the sharded operator's lifetime.

    Yields ``(op, sharded)``: the :class:`CenteringOperator` (Eqn 14)
    or :class:`AppendOnesOperator` (Section III-B) around the data
    operator, and the :class:`~repro.parallel.ShardedOperator` serving
    its products — ``None`` on the direct path, which adds no wrapper
    and no overhead.  The sharded operator closes when the block exits,
    on error too (the centering pass already runs inside it).
    """
    wrap = CenteringOperator if center else AppendOnesOperator
    if config.backend is None and effective_n_jobs(config.n_jobs) <= 1:
        yield wrap(as_operator(X)), None
        return
    with ShardedOperator(
        X, backend=config.backend, n_jobs=config.n_jobs
    ) as sharded:
        yield wrap(sharded), sharded


def _sketch_pays(op: LinearOperator, report: FitReport) -> bool:
    """Whether a sketch preconditioner is worth building for ``op``.

    On wide data (``n >= m``) the preconditioner's ``(n, n)`` Gram and
    Cholesky factor would dominate the data itself, and its
    per-iteration triangular solves cost more than the products they
    save: record a :class:`~repro.robustness.RobustnessWarning` and
    answer ``False`` so the caller runs plain LSQR.
    """
    m_rows, n_cols = op.shape
    if n_cols < m_rows:
        return True
    report.add_warning(
        f"sketched_lsqr right-preconditions through an (n x n) sketch "
        f"Gram, which only pays for tall systems; X is {m_rows} x "
        f"{n_cols} (n >= m), so the fit fell back to plain LSQR"
    )
    return False


def _contract_check(op: LinearOperator, tracer: Tracer) -> None:
    """Run :func:`verify_operator` on the actual solve operator."""
    from repro.analysis.contracts import verify_operator

    with tracer.span(
        "srda.contract_check", operator=type(op).__name__
    ) as span:
        contract = verify_operator(op)
        span.set_attribute("checks", len(contract.checks))
        span.set_attribute("ok", contract.ok)


def _normal_equations(
    X: FloatArray,
    targets: FloatArray,
    alpha: float,
    mean: Optional[FloatArray],
    report: FitReport,
    emit_warnings: bool,
) -> FloatArray:
    """Normal equations (Eqn 20), dual (Eqn 21) when wide, on dense X.

    Solves for ``X̄ = X - 1μᵀ`` (``mean`` given) or ``[X 1]``.  The
    primal ``n × n`` system (``n + 1`` bordered) is accumulated by
    :func:`~repro.linalg.dense.normal_gram` from row blocks, so its
    working memory beyond ``X`` is ``O(n² + B·n)`` for a block of ``B``
    rows: one Gram, one factor, one block, never ``X̄``.  The dual
    ``m × m`` system forms ``X̄`` when centered (``m < n`` there, so it
    is no larger than ``X``) and ``XXᵀ + 11ᵀ`` in place when bordered.

    Both systems go through :func:`repro.robustness.guarded_solve`, so
    a rank-deficient Gram matrix (including the ``alpha = 0`` limit of
    Theorem 2) degrades through the fallback chain — jittered ridge,
    then a minimum-norm LSQR rescue — instead of raising
    ``NotPositiveDefiniteError``.
    """
    m, n = X.shape
    if (n if mean is not None else n + 1) <= m:
        gram, rhs = normal_gram(X, targets, mean)
        if mean is not None:
            _note_zero_variance(
                int(np.sum(np.diagonal(gram) == 0)), report, emit_warnings
            )
        result = guarded_solve(gram, rhs, alpha=alpha, report=report)
        solution = result.x
    elif mean is not None:
        # Dual: (X̄X̄ᵀ + αI) B = Ȳ in m dims, then A = X̄ᵀ B — exact
        # because X̄ᵀ(X̄X̄ᵀ + αI)⁻¹ = (X̄ᵀX̄ + αI)⁻¹X̄ᵀ.
        centered = X - mean
        _note_zero_variance(
            int(np.sum(~centered.any(axis=0))), report, emit_warnings
        )
        result = guarded_solve(
            centered @ centered.T, targets, alpha=alpha, report=report
        )
        solution = dense_matmul(centered.T, result.x)
    else:
        # Bordered dual: [X 1][X 1]ᵀ = XXᵀ + 11ᵀ, weights [XᵀB; 1ᵀB].
        gram = X @ X.T
        gram += 1.0
        result = guarded_solve(gram, targets, alpha=alpha, report=report)
        solution = np.empty((n + 1, targets.shape[1]))
        solution[:n] = dense_matmul(X.T, result.x)
        solution[n] = result.x.sum(axis=0)
    if result.fallbacks:
        report.add_warning(
            f"normal-equations solve degraded to {result.solver} "
            f"(effective_alpha={result.effective_alpha:.3g}, "
            f"condition~{result.condition_estimate:.3g})"
        )
    return solution


def _note_zero_variance(
    zero_var: int, report: FitReport, emit_warnings: bool
) -> None:
    """Record the features a centered fit found constant."""
    if zero_var:
        report.add_warning(
            f"{zero_var} features have zero variance; they carry "
            "no discriminant information and make the Gram "
            "matrix singular at alpha=0",
            emit=emit_warnings,
        )


def _split_weights(
    weights: FloatArray, mean: Optional[FloatArray]
) -> Tuple[FloatArray, FloatArray]:
    """``(components, intercept)`` of solved weights.

    Centered fits (``mean`` given) have ``b = -μᵀA`` (Eqn 14);
    augmented fits carry the intercept as the last weight row.
    """
    if mean is not None:
        return weights, -(mean @ weights)
    return weights[:-1], weights[-1]


def solve_ridge(
    X: MatrixLike,
    targets: FloatArray,
    alpha: float,
    solver: str,
    center: bool,
    config: SolverConfig,
    max_iter: int,
    tol: float,
    report: FitReport,
    tracer: Tracer,
    x0: Optional[FloatArray] = None,
    validate: bool = False,
    emit_warnings: bool = False,
) -> Tuple[FloatArray, FloatArray, str, Optional[List[int]]]:
    """SRDA's regression stage: ridge-regress every target column on X.

    Complexity: O(iters·k·(nnz + m + n)) on the LSQR path for ``k``
    target columns; O(m·n·min(m, n) + min(m, n)^3) on the normal path.

    Solves ``min_A ‖X̄A - T‖² + α‖A‖²`` (Eqn 14/19) for all ``k`` columns
    of ``targets`` at once, where ``X̄`` is ``X`` centered (``center``,
    intercept outside the penalty) or ``X`` with a constant column
    appended (Section III-B, intercept inside the penalty).  Every
    estimator that regresses onto responses or indicators goes through
    here:

    - ``solver="normal"`` — :func:`_normal_equations` on dense ``X``:
      primal ``n × n`` or dual ``m × m`` Gram, whichever is smaller,
      through the guarded fallback chain.  The primal Gram is
      accumulated from row blocks of ``B`` rows, so the working memory
      beyond ``X`` is ``O(n² + B·n)``: ``X̄`` is never formed;
    - ``"lsqr"`` — one blocked Golub–Kahan run
      (:func:`~repro.linalg.block_lsqr.block_lsqr`, damping ``√α``)
      over the implicit centering / append-ones operator, sharded when
      ``config.n_jobs``/``config.backend`` ask for it, warm-started
      from ``x0`` (``(n, k)`` centered, ``(n+1, k)`` augmented);
    - ``"sketched_lsqr"`` — the same run right-preconditioned by a
      CountSketch of the actual system (``config.sketch_size``/
      ``config.sketch_seed``), or plain LSQR
      with a recorded warning when the data is wide.

    Diagnostics (guarded-solve rungs, per-column LSQR codes, the
    backend that served the products) land in ``report``; ``tracer``
    receives per-iteration events and the ``srda.flam`` counter.
    ``validate`` contract-checks the solve operator first;
    ``emit_warnings`` also emits the zero-variance note as a warning.

    Returns ``(components, intercept, solver_used, lsqr_iterations)``,
    the last ``None`` off the LSQR path.
    """
    if solver == "normal":
        if center and (isinstance(X, CSRMatrix) or is_sparse(X)):
            raise ValueError(
                "centering sparse input densifies it; use "
                "solver='lsqr' (implicit centering) or centering=False"
            )
        X = as_dense(X)
        mean = X.mean(axis=0) if center else None
        if validate:
            data = as_operator(X)
            _contract_check(
                CenteringOperator(data, mean)
                if center
                else AppendOnesOperator(data),
                tracer,
            )
        weights = _normal_equations(
            X, targets, alpha, mean, report, emit_warnings
        )
        return _split_weights(weights, mean) + (solver, None)

    with _ridge_operator(X, center, config) as (system, sharded):
        precondition = None
        if solver == "sketched_lsqr":
            if _sketch_pays(system, report):
                from repro.linalg.sketch import build_preconditioner

                # Sketch the structural operator before instrumentation:
                # the sketch pass sees the exact system the solver
                # iterates on, the flam counter meters only the solve.
                precondition = build_preconditioner(
                    system,
                    alpha=alpha,
                    sketch_size=config.sketch_size,
                    seed=config.sketch_seed,
                )
            else:
                solver = "lsqr"
        op = system
        if validate:
            _contract_check(op, tracer)
        if tracer.enabled:
            from repro.complexity.counter import FlamCountingOperator

            op = FlamCountingOperator(
                op, metrics=tracer.metrics, metric="srda.flam"
            )
        blocked = block_lsqr(
            op,
            targets,
            damp=float(np.sqrt(alpha)),
            atol=tol,
            btol=tol,
            iter_lim=max_iter,
            X0=x0,
            on_iteration=tracer.iteration_hook(),
            precondition=precondition,
        )
        iterations = _record_lsqr_columns(
            [blocked.column(j) for j in range(targets.shape[1])],
            report,
            tol,
            alpha,
        )
        report.solver = solver
        _note_parallel_backend(report, sharded)
    weights = np.asarray(blocked.X, dtype=np.float64)
    mean = system.column_means if center else None
    return _split_weights(weights, mean) + (solver, iterations)


#: Capacity factor of the ``partial_fit`` row store: a reallocation
#: makes room for half again the rows (and stored entries) it holds.
_GROWTH = 1.5


def _grown(filled: int, extra: int) -> int:
    """Capacity for ``filled + extra`` items after a reallocation.

    The first allocation is exact (a stream fed once holds no slack);
    later ones grow geometrically, so appends copy O(1) amortized.
    """
    return max(filled + extra, int(_GROWTH * filled))


class _SharedRows:
    """The buffers behind every :class:`_RowStore` that shares them.

    ``data`` is the dense ``(capacity, n)`` row buffer, or the CSR
    values beside ``indices``/``indptr``; ``labels`` holds one label
    per row.  ``written`` is the high-water mark: rows below it are
    filled and never written again, which is what lets copies share.
    """

    __slots__ = ("data", "indices", "indptr", "labels", "written", "lock")

    def __init__(
        self,
        data: np.ndarray,
        indices: Optional[np.ndarray],
        indptr: Optional[np.ndarray],
        labels: np.ndarray,
        written: int,
    ) -> None:
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.labels = labels
        self.written = written
        self.lock = threading.Lock()

    def arrays(self) -> Tuple:
        """``(data, indices, indptr, labels)``; dense rows have no index
        arrays (``None``)."""
        return (self.data, self.indices, self.indptr, self.labels)


class _RowStore:
    """A stream's rows and labels, contiguous and append-only.

    Dense rows are copied into one row-major float64 buffer; CSR rows
    into ``data``/``indices``/``indptr`` buffers, the values promoted
    as ``np.concatenate`` would (float32 stays float32 until a float64
    batch arrives).  :meth:`matrix` is a read-only, zero-copy view of
    the filled prefix, so the solve reads the same values in the same
    layout as a ``vstack`` of the batches without making one.

    Copies share the buffers: ``deepcopy`` copies this handle, not the
    rows.  Only the handle whose row count equals the buffers'
    high-water mark appends in place (under the buffers' lock); any
    other handle — an older version, a rolled-back model, a second
    copy — first copies its own prefix into new buffers, as does an
    append that outgrows the capacity or promotes a dtype.  So no
    handle's rows ever change under it.  Pickling writes the filled
    prefix only.
    """

    __slots__ = ("sparse", "n_features", "rows", "nnz", "_shared")

    def __init__(self, X: Any, y: np.ndarray) -> None:
        """Start a store with its first batch, in buffers of its size."""
        self.sparse = isinstance(X, CSRMatrix)
        self.n_features = int(X.shape[1])
        self.rows = self.nnz = 0
        values = X.data if self.sparse else X
        self._shared = self._allocate(
            X.shape[0], values.shape[0], values.dtype, y.dtype
        )
        self._write(X, y)

    def matrix(self) -> Union[np.ndarray, CSRMatrix]:
        """The stored rows: a view of the filled prefix."""
        data, indices, indptr, _ = self._filled()
        if not self.sparse:
            return data
        return CSRMatrix(data, indices, indptr, (self.rows, self.n_features))

    def labels(self) -> np.ndarray:
        """The stored labels: a view of the filled prefix."""
        return self._filled()[3]

    def append(self, X: Any, y: np.ndarray) -> None:
        """Copy one validated batch and its labels onto the end."""
        shared = self._shared
        values = X.data if self.sparse else X
        value_dtype = np.result_type(shared.data.dtype, values.dtype)
        label_dtype = np.result_type(shared.labels.dtype, y.dtype)
        with shared.lock:
            if (
                shared.written == self.rows
                and shared.labels.shape[0] >= self.rows + X.shape[0]
                and (
                    not self.sparse
                    or shared.data.shape[0] >= self.nnz + values.shape[0]
                )
                and value_dtype == shared.data.dtype
                and label_dtype == shared.labels.dtype
            ):
                self._write(X, y)
                return
        fresh = self._allocate(
            _grown(self.rows, X.shape[0]),
            _grown(self.nnz, values.shape[0]),
            value_dtype,
            label_dtype,
        )
        for target, source in zip(fresh.arrays(), self._filled()):
            if target is not None:
                target[: source.shape[0]] = source
        self._shared = fresh
        self._write(X, y)

    def _allocate(
        self, capacity: int, entries: int, value_dtype: Any, label_dtype: Any
    ) -> _SharedRows:
        """Unfilled buffers for ``capacity`` rows (``entries`` CSR values)."""
        labels = np.empty(capacity, dtype=label_dtype)
        if not self.sparse:
            data = np.empty((capacity, self.n_features), dtype=np.float64)
            return _SharedRows(data, None, None, labels, self.rows)
        indptr = np.empty(capacity + 1, dtype=np.int64)
        indptr[0] = 0
        return _SharedRows(
            np.empty(entries, dtype=value_dtype),
            np.empty(entries, dtype=np.int64),
            indptr,
            labels,
            self.rows,
        )

    def _filled(self) -> Tuple[Any, ...]:
        """Read-only prefix views of ``(data, indices, indptr, labels)``."""
        sizes = (
            self.nnz if self.sparse else self.rows,
            self.nnz,
            self.rows + 1,
            self.rows,
        )
        views = []
        for array, size in zip(self._shared.arrays(), sizes):
            if array is not None:
                array = array[:size]
                array.flags.writeable = False
            views.append(array)
        return tuple(views)

    def _write(self, X: Any, y: np.ndarray) -> None:
        """Copy the batch behind the prefix; advance the high-water mark."""
        shared = self._shared
        start, stop = self.rows, self.rows + X.shape[0]
        shared.labels[start:stop] = y
        if self.sparse:
            end = self.nnz + X.data.shape[0]
            shared.data[self.nnz:end] = X.data
            shared.indices[self.nnz:end] = X.indices
            np.add(
                X.indptr[1:], self.nnz, out=shared.indptr[start + 1:stop + 1]
            )
            self.nnz = end
        else:
            shared.data[start:stop] = X
        self.rows = shared.written = stop

    def __deepcopy__(self, memo: Dict[int, Any]) -> "_RowStore":
        twin = _RowStore.__new__(_RowStore)
        for name in _RowStore.__slots__:
            setattr(twin, name, getattr(self, name))
        return twin

    def __getstate__(self) -> Tuple:
        fields = (self.sparse, self.n_features, self.rows, self.nnz)
        return fields + (self._filled(),)

    def __setstate__(self, state: Tuple) -> None:
        self.sparse, self.n_features, self.rows, self.nnz, arrays = state
        self._shared = _SharedRows(*arrays, written=self.rows)


class _IncrementalState:
    """Everything :meth:`SRDA.partial_fit` accumulates between batches.

    The response construction needs only *integer* per-class counts
    (the Gram matrix of ``[1, e_1 … e_c]`` is a function of counts
    alone), so the incremental bookkeeping is exact and independent of
    batch order.  The solver, by contrast, needs the actual rows: each
    batch is copied once into ``store``, a :class:`_RowStore` that the
    solve reads in place and that copies of the model share.
    """

    __slots__ = (
        "store",
        "batches",
        "classes",
        "counts",
        "solved_classes",
        "solved_counts",
        "solved_table",
    )

    def __init__(self, store: _RowStore) -> None:
        self.store = store
        self.batches = 0
        #: sorted array of distinct labels seen so far (None before the
        #: first batch) and the aligned int64 per-class running sums
        self.classes = None
        self.counts = None
        #: snapshot of (classes, counts, response table) at the last
        #: solve — what the previous coefficients were fitted against,
        #: needed to project them into the new response basis
        self.solved_classes = None
        self.solved_counts = None
        self.solved_table = None

    def response_rebasing(self, classes, table):
        """Map old response columns onto the new ones: ``(c₀-1, c-1)``.

        The response targets are renormalized every batch (each value
        scales like ``1/√m_k``), so the previous coefficients are
        systematically off-scale as a warm start.  But the ridge
        solution is *linear* in its targets, and the old table's
        columns are orthonormal under the old count-weighted inner
        product — so ``M = T₀ᵀ·diag(counts₀)·T[old_rows]`` expresses
        each new response column in the old basis (restricted to the
        rows both solves share), and ``components @ M`` is the exact
        old-data solution for the *new* targets.  The remaining warm
        start error is only what the new rows genuinely change.  Class
        growth needs no special case: new classes have no old rows, so
        their columns project through the shared classes alone.
        """
        if self.solved_table is None:
            return None
        old_rows = np.searchsorted(classes, self.solved_classes)
        weighted = self.solved_counts[:, None] * table[old_rows, :]
        return self.solved_table.T @ weighted

    def absorb_labels(self, y: FloatArray) -> FloatArray:
        """Merge one batch into the running class histogram.

        Returns the labels first seen in this batch.  The update is
        O(c + batch): integer adds over a sorted merge, so the
        histogram — and the response table built from it — is bitwise
        independent of batch order.
        """
        batch_classes, batch_indices = np.unique(y, return_inverse=True)
        batch_counts = np.bincount(
            batch_indices, minlength=batch_classes.shape[0]
        ).astype(np.int64)
        if self.classes is None:
            self.classes = batch_classes
            self.counts = batch_counts
            return batch_classes
        new_labels = batch_classes[~np.isin(batch_classes, self.classes)]
        if new_labels.shape[0]:
            merged = np.union1d(self.classes, batch_classes)
            counts = np.zeros(merged.shape[0], dtype=np.int64)
            counts[np.searchsorted(merged, self.classes)] = self.counts
            self.classes = merged
            self.counts = counts
        self.counts[
            np.searchsorted(self.classes, batch_classes)
        ] += batch_counts
        return new_labels


class SRDA(LinearEmbedder):
    """Spectral Regression Discriminant Analysis.

    Parameters
    ----------
    alpha:
        Tikhonov regularization ``α ≥ 0``.  The paper uses 1.0 for all
        reported tables and shows (Fig 5) that performance is flat over
        a wide range.  ``alpha = 0`` reproduces plain LDA directions in
        the linearly independent case (Corollary 3); the normal-equation
        path then falls back to a minimum-norm least-squares solve since
        the Gram matrix may be singular.
    config:
        A :class:`~repro.core.solver_config.SolverConfig` bundling the
        execution knobs: ``solver`` (``"normal"``, ``"lsqr"``,
        ``"sketched_lsqr"``, or ``"auto"`` — see module docstring),
        the sketch (``sketch_size``/``sketch_seed`` for
        ``"sketched_lsqr"``: one CountSketch pass sketches the fit
        operator, an ``n × n`` Cholesky factor of the regularized Gram
        right-preconditions the iteration, typically dropping
        iteration counts 2–5×; on wide data ``n >= m`` the fit
        degrades to plain LSQR with a
        :class:`~repro.robustness.RobustnessWarning` and
        ``solver_used_ == "lsqr"``), and the parallel substrate
        (``n_jobs``/``backend`` for sharded operator products — the
        shard layout depends only on the data shape, so any worker
        count and backend is bitwise identical).  ``None`` means
        ``SolverConfig()`` (all defaults).  It is the only spelling of
        these settings: read them as ``model.config.solver`` etc.
    centering:
        ``"auto"`` (center dense input, append-ones for sparse), or an
        explicit ``True``/``False``.  ``True`` is exactly Eqn 14
        (intercept outside the penalty); ``False`` is the Section III-B
        bias-absorption trick (intercept inside the penalty).
    max_iter:
        LSQR iteration cap (paper: 15–20 suffice).
    tol:
        LSQR relative tolerance (applied as both atol and btol).  Set to
        0 to force exactly ``max_iter`` iterations, as the paper's fixed
        iteration count does.
    warm_start:
        When True and the model was fitted before with compatible
        shapes, the LSQR path starts each solve from the previous
        projection vectors.  This is the incremental-update story the
        paper's IDR/QR comparison is named for: when data arrives in
        batches, refitting converges in a handful of iterations instead
        of starting cold.  Ignored by the normal-equations solver.
    on_invalid:
        Degradation policy for degenerate input: ``"raise"`` (default)
        rejects non-finite features and single-class problems;
        ``"warn"`` sanitizes non-finite entries, accepts a single class
        (producing a zero-dimensional embedding), and emits
        :class:`~repro.robustness.RobustnessWarning` for each
        degradation.
    trace:
        Observability control (see :mod:`repro.observability`):
        ``None`` uses the process-wide tracer (disabled unless
        ``repro.observability.configure()`` ran); ``True`` attaches a
        fresh in-memory tracer exposed as ``tracer_`` after fit;
        ``False`` disables tracing for this estimator regardless of the
        global; a ``Tracer`` or ``Sink`` is used directly.  When
        enabled, ``fit`` emits nested spans (``srda.fit`` →
        validate/responses/solve/embed), per-iteration LSQR events, and
        an ``srda.flam`` counter.
    validate_operators:
        When True, ``fit`` runs
        :func:`repro.analysis.contracts.verify_operator` on the actual
        operator it is about to solve with (adjointness, linearity,
        shape contracts) and emits an ``srda.contract_check`` span.
        Raises :class:`~repro.exceptions.ContractViolationError` on a
        violation — the debug switch for custom operators.

    Attributes
    ----------
    components_:
        ``(n, c-1)`` projection matrix.
    intercept_:
        Length ``c-1`` offset (``-μᵀA`` when centering, the absorbed
        bias weight otherwise).
    responses_:
        The ``(m, c-1)`` spectral responses used during fit.
    solver_used_:
        Which solver actually ran ("normal", "lsqr", or
        "sketched_lsqr"; a degraded sketched fit reports "lsqr", with
        the request kept in ``fit_report_.requested_solver``).
    centered_:
        Whether the fit used centering (True) or bias absorption.
    lsqr_iterations_:
        Iterations used per response column (LSQR path only).
    fit_report_:
        :class:`~repro.robustness.FitReport` with the solver actually
        used, any fallback-chain steps, the condition estimate, the
        effective α, and per-response LSQR termination codes.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        config: Optional[SolverConfig] = None,
        centering: Union[str, bool] = "auto",
        max_iter: int = 20,
        tol: float = 1e-10,
        warm_start: bool = False,
        on_invalid: str = "raise",
        trace=None,
        validate_operators: bool = False,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if centering not in ("auto", True, False):
            raise ValueError("centering must be 'auto', True, or False")
        if max_iter < 1:
            raise ValueError("max_iter must be positive")
        if on_invalid not in ("raise", "warn"):
            raise ValueError("on_invalid must be 'raise' or 'warn'")
        if config is None:
            config = SolverConfig()
        elif not isinstance(config, SolverConfig):
            raise ValueError(
                f"config must be a SolverConfig, got {type(config).__name__}"
            )
        self.alpha = float(alpha)
        self.config = config
        self.centering = centering
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.warm_start = bool(warm_start)
        self.on_invalid = on_invalid
        self.trace = trace
        self.validate_operators = bool(validate_operators)
        self.tracer_: Optional[Tracer] = None
        self.components_ = None
        self.intercept_ = None
        self.classes_ = None
        self.centroids_ = None
        self.responses_ = None
        self.solver_used_: Optional[str] = None
        self.centered_: Optional[bool] = None
        self.lsqr_iterations_: Optional[List[int]] = None
        self.fit_report_: Optional[FitReport] = None
        # partial_fit accumulator; None until the first partial_fit call
        self._incremental: Optional[_IncrementalState] = None

    def __deepcopy__(self, memo: Dict[int, Any]) -> "SRDA":
        """A deep copy that shares a streamed model's responses.

        ``partial_fit`` leaves ``responses_`` read-only and replaces it
        on the next batch, so a copy made to take that batch (the
        serving layer's copy-update-promote) would only copy ``m·(c-1)``
        values to drop them.  Every other attribute is copied as
        ``copy.deepcopy`` would, through ``__getstate__``.
        """
        twin = type(self).__new__(type(self))
        memo[id(self)] = twin
        responses = self.responses_
        if responses is not None and not responses.flags.writeable:
            memo[id(responses)] = responses
        twin.__setstate__(copy.deepcopy(self.__getstate__(), memo))
        return twin

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "SRDA":
        """Learn the ``c - 1`` projective functions from labeled data.

        Complexity: O(iters·c·(nnz + m + n) + m·c + c^2) — the paper's
        linear-time claim: response generation (a ``c²`` closed-form
        table and an ``m·c`` lookup) plus ``c - 1`` regressions at
        ``2·nnz + 3m + 5n`` flam per LSQR iteration.  Dense inputs have
        ``nnz = m·n``.
        """
        tracer = resolve_tracer(self.trace)
        self.tracer_ = tracer if tracer.enabled else None
        with kernels.use_backend(self.config.kernel_backend), tracer.span(
            "srda.fit", alpha=self.alpha, solver=self.config.solver
        ) as fit_span:
            return self._fit_phases(X, y, tracer, fit_span)

    def _fit_phases(self, X, y, tracer: Tracer, fit_span) -> "SRDA":
        """The fit pipeline, one observability span per phase."""
        with tracer.span("srda.validate"):
            report = FitReport()
            self.fit_report_ = report
            # A cold fit discards any partial_fit stream: the model now
            # describes exactly the data passed here.
            self._incremental = None
            X, classes, y_indices = validate_data(
                X,
                y,
                on_invalid=self.on_invalid,
                min_classes=1 if self.on_invalid == "warn" else 2,
            )
            n_classes = classes.shape[0]
            if n_classes >= 2:
                counts = np.bincount(y_indices, minlength=n_classes)
                _note_singletons(counts, report, self.on_invalid == "warn")
            self.classes_ = classes
        if n_classes < 2:
            return self._fit_single_class(X, y_indices, report)
        with tracer.span("srda.responses", n_classes=int(n_classes)):
            responses = response_table_from_counts(counts)[y_indices]
            self.responses_ = responses

        with tracer.span("srda.solve") as solve_span:
            sparse_input = isinstance(X, CSRMatrix) or is_sparse(X)
            solver = self._resolve_solver(X, sparse_input)
            report.requested_solver = solver
            center = self._center(sparse_input)
            solve_span.set_attribute("solver", solver)
            solve_span.set_attribute("centered", center)
            fit_span.set_attribute("shape", [int(s) for s in X.shape])
            self._solve(X, responses, solver, center, report, tracer)
            fit_span.set_attribute("solver_used", self.solver_used_)
        with tracer.span("srda.embed"):
            self._store_centroids(self.transform(X), y_indices)
        return self

    # ------------------------------------------------------------------
    # Incremental fitting
    # ------------------------------------------------------------------
    def partial_fit(self, X, y) -> "SRDA":
        """Absorb one labeled batch and refresh the model incrementally.

        Complexity: O(iters·c·(nnz + m + n) + m·c + c^2) — one
        warm-started solve over the *accumulated* ``m`` rows / ``nnz``
        entries, a table lookup (``m·c``) for the responses, and the
        closed-form count-space table (``c^2``) independent of ``m``.
        Storing the batch costs only its own entries, amortized: it is
        copied once onto the stream's append-only row store (which
        grows 1.5× when full), and the solve reads the stored prefix in
        place, so no call re-copies the accumulated rows.  The win over
        a cold refit is in ``iters``: the solve starts from the previous
        batch's coefficients, so typically converges in a small fraction
        of the cold iteration count (asserted by the incremental
        benchmarks).

        The spectral step never touches old rows again: per-class
        *integer* running sums (updated in O(c + batch) per call) feed
        :func:`repro.core.responses.response_table_from_counts`, whose
        ``(c, c-1)`` table is an exact, batch-order-independent
        function of the class histogram; the ``(m, c-1)`` response
        matrix is a lookup into it.  The regression step then re-solves
        the whole stream with LSQR started from the previous projection
        vectors — the iterative analogue of the paper's incremental
        (IDR/QR) comparison point.

        Semantics and restrictions:

        - The first ``partial_fit`` call starts a fresh stream; a later
          ``fit`` discards the stream.  Batches must agree in feature
          count and sparsity (no mixing sparse and dense).
        - Labels unseen in earlier batches are welcome: the class set
          grows, the new response columns start cold while the old ones
          warm-start (zero-padded when the class count changes), and
          ``classes_`` stays the sorted union.
        - A stream whose cumulative data still has a single class fits
          the degenerate zero-dimensional embedding (it does not raise,
          unlike ``fit`` with ``on_invalid="raise"`` — a stream
          legitimately starts narrow and widens).
        - ``solver="normal"`` is rejected: refactoring normal equations
          per batch is exactly the cold refit this method exists to
          avoid.  ``"auto"`` resolves to ``"lsqr"``.
        - Each batch is copied, so the caller may reuse or edit its row
          and label arrays afterwards.  ``copy.deepcopy`` copies of the
          model share the stored rows, and each copy continues its own
          stream: a copy that is not the latest to append first copies
          its rows into a buffer of its own.

        After each call ``fit_report_.incremental`` records the batch
        count, new/total rows, cumulative classes, labels first seen in
        this batch, and whether the solve warm-started.

        Converged solves match ``fit`` on the concatenated data to
        solver tolerance: both minimize the same ridge objective, whose
        solution is unique for ``alpha > 0``, and the warm start moves
        only the iteration count, never the fixed point.  (With
        ``tol=0`` LSQR runs exactly ``max_iter`` iterations from
        *different* starting points, so use a tolerance-based stop when
        equivalence matters.)
        """
        tracer = resolve_tracer(self.trace)
        self.tracer_ = tracer if tracer.enabled else None
        with kernels.use_backend(self.config.kernel_backend), tracer.span(
            "srda.partial_fit", alpha=self.alpha, solver=self.config.solver
        ) as fit_span:
            return self._partial_fit_phases(X, y, tracer, fit_span)

    def _partial_fit_phases(self, X, y, tracer: Tracer, fit_span) -> "SRDA":
        """Validate-accumulate-solve pipeline for one batch."""
        solver = self.config.solver
        if solver == "normal":
            raise ValueError(
                "partial_fit requires an iterative solver ('lsqr' or "
                "'sketched_lsqr'); solver='normal' refactors from "
                "scratch every batch — call fit() instead"
            )
        if solver == "auto":
            solver = "lsqr"

        report = FitReport()
        self.fit_report_ = report
        with tracer.span("srda.validate"):
            X, _, _ = validate_data(
                X, y, on_invalid=self.on_invalid, min_classes=1
            )
        if not isinstance(X, CSRMatrix) and is_sparse(X):
            X = CSRMatrix.from_scipy(X)
        sparse_input = isinstance(X, CSRMatrix)

        y = np.asarray(y)
        state = self._incremental
        if state is None:
            state = _IncrementalState(_RowStore(X, y))
            self._incremental = state
            # a new stream never warm-starts from whatever an earlier
            # cold fit learned on unrelated data
            self.components_ = None
            self.intercept_ = None
        elif sparse_input != state.store.sparse:
            raise ValueError(
                "cannot mix sparse and dense batches in one "
                "partial_fit stream"
            )
        elif X.shape[1] != state.store.n_features:
            raise ValueError(
                f"batch has {X.shape[1]} features, stream has "
                f"{state.store.n_features}"
            )
        else:
            state.store.append(X, y)
        new_labels = state.absorb_labels(y)
        state.batches += 1

        classes = state.classes
        n_classes = classes.shape[0]
        self.classes_ = classes
        previous = self.components_
        report.incremental = {
            "batches": state.batches,
            "rows_new": int(X.shape[0]),
            "rows_total": int(state.store.rows),
            "n_classes": int(n_classes),
            "classes_added": np.asarray(new_labels).tolist(),
            "warm_started": bool(
                previous is not None and previous.shape[1] > 0
            ),
        }
        fit_span.set_attribute("batches", state.batches)

        full_X = state.store.matrix()
        y_indices = np.searchsorted(classes, state.store.labels())
        if n_classes < 2:
            return self._fit_single_class(full_X, y_indices, report)

        _note_singletons(state.counts, report, self.on_invalid == "warn")
        with tracer.span("srda.responses", n_classes=int(n_classes)):
            table = response_table_from_counts(state.counts)
            responses = table[y_indices]
        # Read-only: the next batch replaces it, never writes it, so
        # copies of the model share it (``__deepcopy__``).
        responses.flags.writeable = False
        self.responses_ = responses

        rebase = state.response_rebasing(classes, table)
        if previous is not None and previous.shape[1] and rebase is not None:
            # Re-express the previous solve in the new response basis
            # (the targets renormalize every batch); the warm start is
            # then off only by what the new rows genuinely change.
            self.components_ = previous @ rebase
            self.intercept_ = self.intercept_ @ rebase

        report.requested_solver = solver
        center = self._center(sparse_input)
        fit_span.set_attribute("shape", [int(s) for s in full_X.shape])
        with tracer.span("srda.solve", solver=solver, centered=center):
            self._solve(
                full_X, responses, solver, center, report, tracer,
                force_warm=True,
            )
        fit_span.set_attribute("solver_used", self.solver_used_)
        state.solved_classes = classes
        state.solved_counts = state.counts.copy()
        state.solved_table = table
        with tracer.span("srda.embed"):
            self._store_centroids(self.transform(full_X), y_indices)
        return self

    def _fit_single_class(self, X, y_indices, report: FitReport) -> "SRDA":
        """Degenerate one-class fit: a zero-dimensional embedding.

        With ``c = 1`` there are ``c - 1 = 0`` discriminant directions;
        the model still supports ``transform`` (an ``(m, 0)`` embedding)
        and ``predict`` (always the single class) so pipelines survive
        pathological splits.
        """
        n = X.shape[1]
        report.add_warning(
            "only one class present; fitting a zero-dimensional "
            "embedding (predict will always return that class)"
        )
        report.solver = "degenerate"
        report.requested_solver = self.config.solver
        self.responses_ = np.zeros((X.shape[0], 0))
        self.solver_used_ = None
        self.centered_ = False
        self.components_ = np.zeros((n, 0))
        self.intercept_ = np.zeros(0)
        self.lsqr_iterations_ = None
        self._store_centroids(np.zeros((X.shape[0], 0)), y_indices)
        return self

    def _resolve_solver(self, X, sparse_input: bool) -> str:
        if self.config.solver != "auto":
            return self.config.solver
        if sparse_input:
            return "lsqr"
        m, n = X.shape
        return "normal" if min(m, n) <= _AUTO_NORMAL_LIMIT else "lsqr"

    def _center(self, sparse_input: bool) -> bool:
        """Centering (Eqn 14) or bias absorption (Section III-B)."""
        if self.centering == "auto":
            return not sparse_input
        return bool(self.centering)

    def _solve(
        self, X, responses, solver, center, report, tracer, force_warm=False
    ) -> None:
        """Run :func:`solve_ridge` and store its solution on the model."""
        n_weights = X.shape[1] + (0 if center else 1)
        (
            self.components_,
            self.intercept_,
            self.solver_used_,
            self.lsqr_iterations_,
        ) = solve_ridge(
            X,
            responses,
            self.alpha,
            solver,
            center,
            self.config,
            self.max_iter,
            self.tol,
            report,
            tracer,
            x0=self._warm_start_matrix(
                n_weights, responses.shape[1], force_warm
            ),
            validate=self.validate_operators,
            emit_warnings=self.on_invalid == "warn",
        )
        self.centered_ = center

    def _warm_start_matrix(self, n_weights: int, n_targets: int, force: bool):
        """Previous solution as LSQR starting points, when compatible.

        ``partial_fit`` forces this on (``force``), and on that path a
        changed class count zero-pads/truncates the target columns
        instead of bailing: the leading columns stay aligned
        (exactly so when new labels sort after the old ones; otherwise
        the start is merely a worse guess — a warm start moves only the
        iteration count, never the converged solution), and brand-new
        response columns start cold at zero.
        """
        if not (self.warm_start or force) or self.components_ is None:
            return None
        previous = self.components_
        if self.centered_ is False:
            # augmented path solved for [components; intercept]
            previous = np.vstack([previous, self.intercept_[None, :]])
        if previous.shape == (n_weights, n_targets):
            return previous
        if (
            not force
            or previous.shape[0] != n_weights
            or previous.shape[1] == 0
        ):
            return None
        padded = np.zeros((n_weights, n_targets))
        width = min(previous.shape[1], n_targets)
        padded[:, :width] = previous[:, :width]
        return padded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SRDA(alpha={self.alpha}, config={self.config!r}, "
            f"centering={self.centering!r}, max_iter={self.max_iter})"
        )


def srda_alpha_path(
    X,
    y,
    alphas,
    centering: Union[str, bool] = "auto",
    max_iter: int = 20,
    tol: float = 1e-10,
    on_invalid: str = "raise",
    trace=None,
    config: Optional[SolverConfig] = None,
) -> List[SRDA]:
    """Fit SRDA for every ``alpha`` with ONE pass over the data.

    The Golub–Kahan basis built by LSQR depends only on the operator and
    the right-hand sides — the damping ``√α`` enters solely through the
    scalar QR recurrences.  This function therefore bidiagonalizes once
    (:class:`repro.linalg.block_lsqr.SharedBidiagonalization`,
    ``2·max_iter + 1`` block products) and replays the recurrences per
    alpha at zero additional operator cost.  Each fitted model is
    numerically identical to
    ``SRDA(alpha=a, config=SolverConfig(solver="lsqr")).fit(X, y)`` run
    cold with the same ``max_iter``/``tol``.

    This is the engine behind the Fig-5 alpha sweep and
    :func:`repro.eval.model_selection.grid_search_alpha_srda`: a grid of
    nine alphas costs one fit's worth of data passes instead of nine.

    Parameters
    ----------
    X, y:
        Training data and labels, as for :meth:`SRDA.fit`.
    alphas:
        Iterable of non-negative regularization values.
    centering, max_iter, tol, on_invalid:
        As the :class:`SRDA` constructor.
    trace:
        Observability control, as :class:`SRDA`'s ``trace`` parameter.
        When enabled the sweep emits one ``srda.alpha_path`` span with
        a nested ``srda.bidiagonalize`` span (the single data pass) and
        one ``srda.replay`` span per alpha (the zero-cost recurrence
        replays); with ``config.solver="sketched_lsqr"`` the nested spans are
        one ``sketch.build`` and one ``srda.sketched_solve`` per alpha.
    config:
        A :class:`~repro.core.solver_config.SolverConfig`; ``None``
        means ``SolverConfig(solver="lsqr")``.  ``config.solver`` must
        be ``"lsqr"`` or ``"sketched_lsqr"``: ``"lsqr"`` shares one
        bidiagonalization and replays it per alpha — total data passes
        ``2·max_iter + 1`` regardless of grid size — while
        ``"sketched_lsqr"`` shares one sketch pass and its Gram
        instead, each alpha paying only an ``n × n`` Cholesky of
        ``gram + α I`` plus a *short* preconditioned solve (typically
        2–5× fewer iterations; solves each alpha exactly where the
        replayed basis can degrade at extreme damping).
        ``config.n_jobs``/``config.backend`` parallelize the shared
        data pass (and, on the sketched path, the per-alpha solves);
        ``config.sketch_size``/``config.sketch_seed`` steer the
        sketched engine.

    Returns
    -------
    list of fitted :class:`SRDA`, one per alpha, in input order.
    """
    alphas = [float(a) for a in alphas]
    if any(a < 0 for a in alphas):
        raise ValueError("alpha must be non-negative")
    if config is None:
        config = SolverConfig(solver="lsqr")
    solver = config.solver
    if solver not in ("lsqr", "sketched_lsqr"):
        raise ValueError(
            f"alpha-path solver must be 'lsqr' or 'sketched_lsqr', "
            f"got {solver!r}"
        )
    if not alphas:
        return []
    tracer = resolve_tracer(trace)

    def make_model(alpha: float) -> SRDA:
        return SRDA(
            alpha=alpha,
            config=config,
            centering=centering,
            max_iter=max_iter,
            tol=tol,
            on_invalid=on_invalid,
        )

    X, classes, y_indices = validate_data(
        X,
        y,
        on_invalid=on_invalid,
        min_classes=1 if on_invalid == "warn" else 2,
    )
    n_classes = classes.shape[0]
    if n_classes < 2:
        # Degenerate one-class data: nothing to share, every alpha
        # yields the same zero-dimensional embedding.
        return [make_model(alpha).fit(X, y) for alpha in alphas]

    counts = np.bincount(y_indices, minlength=n_classes)
    responses = response_table_from_counts(counts)[y_indices]

    sparse_input = isinstance(X, CSRMatrix) or is_sparse(X)
    center = not sparse_input if centering == "auto" else bool(centering)
    # Per-class means of the raw features (one block product): the
    # embedding centroid of class k is linear in the class mean, so
    # every per-alpha model gets its centroids without another pass.
    indicator = np.zeros((X.shape[0], n_classes))
    indicator[np.arange(X.shape[0]), y_indices] = 1.0 / counts[y_indices]

    with kernels.use_backend(config.kernel_backend), tracer.span(
        "srda.alpha_path",
        n_alphas=len(alphas),
        max_iter=int(max_iter),
        solver=solver,
    ):
        backend_report = FitReport()
        with _ridge_operator(X, center, config) as (op, sharded):
            class_means = op.base.rmatmat(indicator).T
            mean = op.column_means if center else None
            engine = solver
            if solver == "sketched_lsqr" and not _sketch_pays(
                op, backend_report
            ):
                engine = "lsqr"
            if engine == "sketched_lsqr":
                # Unlike the replayed path, the per-alpha solves here
                # DO touch the data, inside the operator's lifetime.
                solved = _sketched_alpha_solves(
                    op, responses, alphas, config, max_iter, tol, tracer
                )
            else:
                with tracer.span("srda.bidiagonalize"):
                    shared = SharedBidiagonalization(
                        op, responses, iter_lim=max_iter
                    )
            _note_parallel_backend(backend_report, sharded)

        if engine == "lsqr":
            # The per-alpha replays touch no data: the sharded operator
            # (and any pool it owns) is already closed.
            solved = []
            for alpha in alphas:
                with tracer.span("srda.replay", alpha=alpha):
                    solved.append(
                        shared.solve(
                            damp=float(np.sqrt(alpha)),
                            atol=tol,
                            btol=tol,
                            on_iteration=tracer.iteration_hook(),
                        )
                    )

        models: List[SRDA] = []
        for alpha, result in zip(alphas, solved):
            # Identical assembly for the replayed and the sketched
            # engines: the models differ only in how the weights were
            # produced.
            model = make_model(alpha)
            report = FitReport()
            report.requested_solver = solver
            report.backend = backend_report.backend
            for note in backend_report.warnings:
                # Already emitted once for the shared pass; the
                # per-alpha copies are record-only.
                report.add_warning(note, emit=False)
            _note_singletons(counts, report, on_invalid == "warn")
            model.lsqr_iterations_ = _record_lsqr_columns(
                [result.column(j) for j in range(responses.shape[1])],
                report,
                tol,
                alpha,
            )
            report.solver = engine
            components, intercept = _split_weights(
                np.asarray(result.X, dtype=np.float64), mean
            )
            model.fit_report_ = report
            model.classes_ = classes
            model.responses_ = responses
            model.solver_used_ = engine
            model.centered_ = center
            model.components_ = components
            model.intercept_ = intercept
            model.centroids_ = class_means @ components + intercept[None, :]
            models.append(model)
    return models


def _sketched_alpha_solves(
    op: LinearOperator,
    responses: FloatArray,
    alphas: List[float],
    config: SolverConfig,
    max_iter: int,
    tol: float,
    tracer: Tracer,
) -> List[BlockLSQRResult]:
    """One sketch pass and Gram for the grid, a short solve per alpha."""
    from repro.linalg.sketch import preconditioner_from_gram, sketch_gram

    # One sketch pass and one Gram serve the whole grid; each alpha
    # below only re-factors gram + alpha*I.
    gram, size = sketch_gram(
        op, sketch_size=config.sketch_size, seed=config.sketch_seed
    )
    solved = []
    for alpha in alphas:
        with tracer.span("srda.sketched_solve", alpha=alpha):
            pre = preconditioner_from_gram(
                gram, alpha=alpha, sketch_size=size
            )
            solved.append(
                block_lsqr(
                    op,
                    responses,
                    damp=float(np.sqrt(alpha)),
                    atol=tol,
                    btol=tol,
                    iter_lim=max_iter,
                    on_iteration=tracer.iteration_hook(),
                    precondition=pre,
                )
            )
    return solved
