"""CountSketch and the sketch-and-precondition path.

The paper reduces LDA to ``c-1`` regularized least-squares problems
solved by LSQR, so the total cost is *iterations × data passes*.  The
parallel layer attacks the passes; this module attacks the iteration
count, following "Randomized Iterative Algorithms for Fisher
Discriminant Analysis" (Chowdhury–Yang–Drineas, arXiv:1809.03045): a
random sketch ``S`` with ``s ≪ m`` rows embeds the column space of the
``(m, n)`` data operator well enough that the factor ``R`` of

    ``RᵀR = (S X)ᵀ(S X) + α I``

is a *right preconditioner* — ``[X; √α·I] R⁻¹`` has condition number
bounded by the sketch distortion (a small constant), independent of how
ill-conditioned ``X`` is.  LSQR on the preconditioned system then
converges in a few iterations where the plain iteration needs hundreds.

The sketch is a :class:`CountSketchOperator` — one ±1 entry per input
coordinate, so ``S v`` is a signed :func:`numpy.bincount` (``O(m)`` per
apply) and sketching a CSR matrix costs ``O(nnz)``.  It is a
first-class :class:`~repro.linalg.operators.LinearOperator` (it
composes with ``ShardedOperator``/``CenteringOperator`` and passes
``verify_operator``).  Preconditioning only needs the distortion to be
bounded, not tiny, so denser sketches buy nothing here:
``BENCH_sketch.json`` records the iteration counts this one reaches.

The build has two halves.  :func:`sketch_gram` sketches the data
operator (peeling :class:`~repro.linalg.operators.AppendOnesOperator` /
:class:`~repro.linalg.operators.CenteringOperator` wrappers so the
structural tricks stay matrix-free) and forms the small ``n × n`` Gram
of the sketch; :func:`preconditioner_from_gram` factors ``gram + α I``
with LAPACK through :func:`~repro.linalg.cholesky.cholesky` and returns
a :class:`SketchPreconditioner` whose triangular solves the solvers
apply per iteration.  :func:`build_preconditioner` runs both for one
``α``; the sketched alpha path builds the Gram once and factors it per
``α``.  ``lsqr``/``block_lsqr`` accept the preconditioner via their
``precondition`` parameter; :class:`repro.core.srda.SRDA` exposes the
whole path as ``solver="sketched_lsqr"``.

Observability: the sketch pass and Gram run under one ``sketch.build``
span (sizes), each factorization attaches a ``sketch.factor`` event
(``alpha``, ``jitter``) to the ambient span, and every triangular solve
bumps the ``precond.apply`` counter, so iteration savings and
preconditioner cost land in the same trace as the ``lsqr.iteration``
events they pay for.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._typing import (
    DTypeLike,
    Float64Array,
    FloatArray,
    FloatDType,
    IntArray,
    MatrixLike,
)
from repro.exceptions import ReproError
from repro.linalg.cholesky import (
    NotPositiveDefiniteError,
    cholesky,
    solve_triangular,
)
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    LinearOperator,
    as_operator,
)
from repro.linalg.sparse import CSRMatrix
from repro.observability import current_tracer

__all__ = [
    "CountSketchOperator",
    "PreconditionedOperator",
    "SketchPreconditioner",
    "SketchingError",
    "build_preconditioner",
    "default_sketch_size",
    "preconditioner_from_gram",
    "sketch_apply",
    "sketch_gram",
]

#: Above this many cells the fused-bincount CSR sketch kernel would
#: allocate an unreasonable dense accumulator; fall back to the chunked
#: generic path instead.
_DENSE_ACCUMULATOR_LIMIT = 50_000_000

#: Identity-block width of the generic (operator-only) sketch path.
_SKETCH_CHUNK = 64

#: Jitter escalation for rank-deficient sketch Grams at alpha = 0
#: (relative to the mean diagonal), mirroring guarded_solve's ladder.
_JITTER_STEPS = (1e-12, 1e-10, 1e-8, 1e-6)


class SketchingError(ReproError, ValueError):
    """Raised for invalid sketch configuration or unusable sketches."""


class CountSketchOperator(LinearOperator):
    """CountSketch ``S : R^m → R^s``: each coordinate lands in one ±1 bucket.

    ``S`` has exactly one nonzero per *column*: coordinate ``i`` is
    hashed to row ``bucket[i]`` with sign ``sign[i]``.  ``S B`` is a
    signed scatter-add (``O(m·k)`` for ``k`` columns); the adjoint is a
    gather.  ``E[SᵀS] = I``
    and the sketch embeds any fixed ``n``-dimensional column space with
    constant distortion once ``s = O(n²/δ)`` — in practice a small
    multiple of ``n`` suffices for preconditioning, which only needs the
    distortion to be bounded, not tiny.

    The hash and sign arrays are drawn from
    ``np.random.default_rng(seed)`` at construction, so two instances
    with equal parameters produce bitwise-identical products — the
    determinism the benchmarks assert.  ``dtype`` declares the value
    dtype of products (float32 keeps the half-bandwidth pipeline
    intact); outputs are computed and returned in
    ``np.result_type(self.dtype, operand.dtype)``.
    """

    def __init__(
        self,
        m: int,
        sketch_size: int,
        seed: int = 0,
        dtype: DTypeLike = np.float64,
    ) -> None:
        super().__init__()
        if m < 1:
            raise SketchingError(f"m must be >= 1, got {m}")
        if sketch_size < 1:
            raise SketchingError(
                f"sketch_size must be >= 1, got {sketch_size}"
            )
        self.shape = (int(sketch_size), int(m))
        self.seed = int(seed)
        self._dtype: FloatDType = np.dtype(dtype)
        if self._dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise SketchingError(
                f"sketch dtype must be float32 or float64, got {dtype!r}"
            )
        rng = np.random.default_rng(self.seed)
        self.buckets: IntArray = rng.integers(
            0, self.shape[0], size=m, dtype=np.int64
        )
        self.signs: Float64Array = np.where(
            rng.integers(0, 2, size=m) == 1, 1.0, -1.0
        )

    @property
    def dtype(self) -> FloatDType:
        return self._dtype

    def _out_dtype(self, operand: FloatArray) -> FloatDType:
        return np.dtype(np.result_type(self._dtype, operand.dtype))

    def _matmat(self, B: FloatArray) -> FloatArray:
        out_dtype = self._out_dtype(B)
        out = np.zeros((self.shape[0], B.shape[1]), dtype=np.float64)
        np.add.at(out, self.buckets, self.signs[:, None] * B)
        return out.astype(out_dtype, copy=False)

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        out_dtype = self._out_dtype(U)
        out = self.signs[:, None] * U[self.buckets]
        return out.astype(out_dtype, copy=False)

    def sketch_csr(self, matrix: CSRMatrix) -> Optional[Float64Array]:
        """``S @ X`` for CSR ``X`` via one fused-key bincount, or None.

        Entry ``(r, c, x)`` of ``X`` contributes ``sign[r]·x`` to output
        cell ``(bucket[r], c)``; flattening cells to ``bucket·n + c``
        keys turns the whole product into a single ``O(nnz)`` bincount.
        Returns ``None`` when the dense accumulator would be too large
        (the caller falls back to the chunked operator path).
        """
        s, n = self.shape[0], matrix.shape[1]
        if s * n > _DENSE_ACCUMULATOR_LIMIT:
            return None
        row_ids = matrix._row_ids
        keys = self.buckets[row_ids] * n + matrix.indices
        weights = self.signs[row_ids] * matrix.data
        flat = np.bincount(keys, weights=weights, minlength=s * n)
        return flat.reshape(s, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountSketchOperator(shape={self.shape}, seed={self.seed})"
        )


def default_sketch_size(m: int, n: int) -> int:
    """Default sketch rows: ``min(m, max(4n, n + 64))``.

    Complexity: O(1) — integer arithmetic.

    Four rows of ``S`` per column of ``X`` keeps the CountSketch
    distortion comfortably below 1 for preconditioning (the convergence
    rate only degrades with the *bound* on the distortion); the ``n+64``
    floor keeps tiny problems full-rank, and sketching never exceeds the
    data's own row count.
    """
    return max(1, min(m, max(4 * n, n + 64)))


def sketch_apply(
    S: CountSketchOperator,
    A: MatrixLike,
    chunk: int = _SKETCH_CHUNK,
) -> Float64Array:
    """Compute the dense sketch ``S @ A`` of an ``(m, n)`` operator.

    Complexity: O(nnz) on the CSR fast path (one scatter per stored
    entry; here ``s`` counts sketch rows, so the output adds an
    ``O(s·n)`` write).  Dense payloads cost a
    ``matmat``; generic operators fall back to chunked block products.

    Structural wrappers are peeled so the paper's memory tricks stay
    intact: ``S·[X|1] = [S·X | S·1]`` and ``S·(X − 1μᵀ) = S·X − (S·1)μᵀ``
    each cost one extra sketch mat-vec, never a densified matrix.  The
    base data is sketched by the ``O(nnz)`` CSR kernel or a
    dense ``matmat`` when the payload is reachable (this includes
    :class:`~repro.parallel.sharded.ShardedOperator`, whose underlying
    matrix is sketched directly — the build is a one-time coordinator
    step); arbitrary operators fall back to chunked
    ``(A ᵀ Sᵀ)ᵀ`` block products of width ``chunk``.
    """
    op = as_operator(A)
    if S.shape[1] != op.shape[0]:
        raise SketchingError(
            f"sketch expects {S.shape[1]} rows, operator has {op.shape[0]}"
        )
    if isinstance(op, AppendOnesOperator):
        inner = sketch_apply(S, op.base, chunk=chunk)
        ones_image = np.asarray(
            S.matvec(np.ones(op.shape[0])), dtype=np.float64
        )
        return np.hstack([inner, ones_image[:, None]])
    if isinstance(op, CenteringOperator):
        inner = sketch_apply(S, op.base, chunk=chunk)
        ones_image = np.asarray(
            S.matvec(np.ones(op.shape[0])), dtype=np.float64
        )
        means = np.asarray(op.column_means, dtype=np.float64)
        return inner - np.outer(ones_image, means)
    matrix = getattr(op, "matrix", None)
    if isinstance(matrix, CSRMatrix):
        fast = S.sketch_csr(matrix)
        if fast is not None:
            return fast
    array = getattr(op, "array", None)
    if array is not None:
        return np.asarray(
            S.matmat(np.asarray(array, dtype=np.float64)), dtype=np.float64
        )
    return _sketch_via_rmatmat(S, op, chunk)


def _sketch_via_rmatmat(
    S: CountSketchOperator, op: LinearOperator, chunk: int
) -> Float64Array:
    """Generic ``S @ A`` via ``(Aᵀ · (Sᵀ block))ᵀ`` in identity chunks.

    Works for any operator (only ``rmatmat`` is required) at the cost of
    ``⌈s/chunk⌉`` block products of width ``chunk`` — the path taken
    when the data payload is hidden behind a custom operator.
    """
    s, m = S.shape
    n = op.shape[1]
    chunk = max(1, int(chunk))
    out = np.empty((s, n), dtype=np.float64)
    for start in range(0, s, chunk):
        stop = min(start + chunk, s)
        # fresh float64 identity block per chunk: the preconditioner path is
        # deliberately float64 end-to-end, and the block's width varies on
        # the ragged last chunk so a scratch buffer would need re-slicing
        basis = np.zeros((s, stop - start), dtype=np.float64)  # repro: noqa-RPR010
        basis[np.arange(start, stop), np.arange(stop - start)] = 1.0
        st_block = np.asarray(S.rmatmat(basis), dtype=np.float64)
        out[start:stop] = np.asarray(
            op.rmatmat(st_block), dtype=np.float64
        ).T
    return out


class SketchPreconditioner:
    """Right preconditioner ``R⁻¹`` with ``RᵀR = (S X)ᵀ(S X) + α I``.

    Holds the lower Cholesky factor ``L = Rᵀ`` of the regularized sketch
    Gram; :meth:`apply` maps preconditioned coordinates back
    (``W ↦ R⁻¹ W``) and :meth:`apply_adjoint` applies ``R⁻ᵀ`` (the
    adjoint direction the solvers need).  Both are ``O(n²)`` triangular
    solves per column — independent of ``m``, the whole point.

    Every application bumps the ``precond.apply`` counter on the ambient
    tracer, so preconditioner cost is visible next to the
    ``lsqr.iteration`` events it eliminates.
    """

    def __init__(
        self,
        factor_lower: Float64Array,
        alpha: float = 0.0,
        sketch_size: int = 0,
        jitter: float = 0.0,
    ) -> None:
        factor = np.asarray(factor_lower, dtype=np.float64)
        if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
            raise SketchingError(
                "preconditioner factor must be a square lower-triangular "
                f"matrix, got shape {factor.shape}"
            )
        self.factor_lower = factor
        self.shape: Tuple[int, int] = factor.shape
        self.alpha = float(alpha)
        self.sketch_size = int(sketch_size)
        self.jitter = float(jitter)
        self.n_applies = 0

    @property
    def n(self) -> int:
        """Dimension of the (column) space the preconditioner acts on."""
        return self.shape[0]

    def _count(self) -> None:
        self.n_applies += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.counter("precond.apply").add(1.0)

    def apply(self, W: FloatArray) -> Float64Array:
        """``R⁻¹ W`` — map preconditioned coordinates to solutions."""
        self._count()
        return solve_triangular(self.factor_lower.T, W, lower=False)

    def apply_adjoint(self, W: FloatArray) -> Float64Array:
        """``R⁻ᵀ W`` — the transposed solve used by adjoint products."""
        self._count()
        return solve_triangular(self.factor_lower, W, lower=True)

    def wrap(self, op: LinearOperator) -> "PreconditionedOperator":
        """The preconditioned operator ``op · R⁻¹`` the solvers iterate on."""
        return PreconditionedOperator(op, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SketchPreconditioner(n={self.n}, "
            f"sketch_size={self.sketch_size}, alpha={self.alpha})"
        )


class PreconditionedOperator(LinearOperator):
    """``A R⁻¹`` — a base operator right-multiplied by a preconditioner.

    The solvers iterate on this operator in the well-conditioned ``z``
    coordinates (``x = R⁻¹ z``); each forward product pays one
    triangular solve before the base product, each adjoint one after.
    Products keep the base operator's value dtype.
    """

    def __init__(
        self, base: LinearOperator, precondition: SketchPreconditioner
    ) -> None:
        super().__init__()
        if precondition.n != base.shape[1]:
            raise SketchingError(
                f"preconditioner dimension {precondition.n} does not match "
                f"operator column count {base.shape[1]}"
            )
        self.base = base
        self.precondition = precondition
        self.shape = base.shape

    @property
    def dtype(self) -> FloatDType:
        return self.base.dtype

    def _cast(self, out: FloatArray) -> FloatArray:
        return np.asarray(out).astype(self.dtype, copy=False)

    def _matmat(self, B: FloatArray) -> FloatArray:
        return self.base.matmat(self._cast(self.precondition.apply(B)))

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        return self._cast(self.precondition.apply_adjoint(self.base.rmatmat(U)))


def _factor_with_jitter(
    gram: Float64Array, alpha: float
) -> Tuple[Float64Array, float]:
    """Cholesky of ``gram + α I``, escalating jitter if rank-deficient.

    At ``alpha = 0`` a rank-deficient sketch (``s < n``, duplicate
    columns) makes the Gram semidefinite; mirroring ``guarded_solve``,
    a jitter ladder relative to the mean diagonal retries before giving
    up.  Returns ``(L, jitter_used)``.
    """
    n = gram.shape[0]
    work = np.array(gram, dtype=np.float64, copy=True)
    if alpha > 0:
        work[np.diag_indices(n)] += alpha
    scale = float(np.trace(work)) / max(1, n)
    if scale <= 0 or not np.isfinite(scale):
        scale = 1.0
    last_error: Optional[NotPositiveDefiniteError] = None
    for step, relative in enumerate((0.0,) + _JITTER_STEPS):
        jitter = relative * scale
        try:
            attempt = work if step == 0 else _with_jitter(work, jitter)
            return cholesky(attempt), jitter
        except NotPositiveDefiniteError as exc:
            last_error = exc
    raise SketchingError(
        "sketch Gram matrix is not positive definite even after jitter "
        f"escalation: {last_error}"
    )


def _with_jitter(gram: Float64Array, jitter: float) -> Float64Array:
    out = np.array(gram, copy=True)
    out[np.diag_indices(gram.shape[0])] += jitter
    return out


def sketch_gram(
    A: MatrixLike,
    sketch_size: Optional[int] = None,
    seed: int = 0,
) -> Tuple[Float64Array, int]:
    """The Gram ``(S A)ᵀ(S A)`` of a seeded CountSketch of ``A``.

    Complexity: O(nnz + s·n^2) with ``s`` sketch rows — one sketch
    pass and the ``n × n`` Gram product.

    ``A`` is the ``(m, n)`` data operator (dense array, CSR matrix, or
    any :class:`~repro.linalg.operators.LinearOperator`, including the
    structural SRDA wrappers and sharded operators).  ``sketch_size``
    rows of ``S`` default to :func:`default_sketch_size` and are capped
    at ``m``; a fixed ``seed`` means a bitwise reproducible Gram, and so
    bitwise reproducible sketched solves.  Returns ``(gram, s)``.

    Every sketch preconditioner starts here: :func:`build_preconditioner`
    factors the Gram for one ``α``, the sketched alpha path once per
    ``α``.  Emits one ``sketch.build`` span (``sketch_size``, ``rows``,
    ``cols``) on the ambient tracer.
    """
    op = as_operator(A)
    m, n = op.shape
    size = default_sketch_size(m, n) if sketch_size is None else int(sketch_size)
    S = CountSketchOperator(m, min(size, m), seed=seed)
    with current_tracer().span(
        "sketch.build", sketch_size=S.shape[0], rows=int(m), cols=int(n)
    ):
        sketched = sketch_apply(S, op)
        gram = sketched.T @ sketched
    return gram, S.shape[0]


def preconditioner_from_gram(
    gram: Float64Array,
    alpha: float = 0.0,
    sketch_size: int = 0,
) -> SketchPreconditioner:
    """Factor a sketch Gram ``(S X)ᵀ(S X)`` into ``R⁻¹``.

    Complexity: O(n^3) — one LAPACK Cholesky of the shifted Gram.

    ``alpha`` is the ridge regularization ``α``, folded into the Gram
    so the factor preconditions the damped system ``[X; √α·I]``
    exactly; with ``alpha > 0`` the Gram is positive definite for any
    sketch size.  The alpha sweep shares one :func:`sketch_gram` across
    a whole grid: the ``O(s·n²)`` Gram is built once, and each alpha
    pays only the ``O(n³/6)`` Cholesky of ``gram + α I``.  Attaches one
    ``sketch.factor`` event (``alpha``, ``jitter``) to the ambient span.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise SketchingError(
            f"gram must be square, got shape {gram.shape}"
        )
    if alpha < 0:
        raise SketchingError("alpha must be non-negative")
    factor, jitter = _factor_with_jitter(gram, alpha)
    current_tracer().event("sketch.factor", alpha=float(alpha), jitter=jitter)
    return SketchPreconditioner(
        factor, alpha=alpha, sketch_size=sketch_size, jitter=jitter
    )


def build_preconditioner(
    A: MatrixLike,
    alpha: float = 0.0,
    sketch_size: Optional[int] = None,
    seed: int = 0,
) -> SketchPreconditioner:
    """Sketch ``A`` and factor the regularized Gram into ``R⁻¹``.

    Complexity: O(nnz + s·n^2 + n^3) with ``s`` sketch rows — sketch
    apply, Gram build, and Cholesky; all one-time coordinator work.

    :func:`sketch_gram` (``A``, ``sketch_size``, ``seed``) followed by
    :func:`preconditioner_from_gram` (``alpha``).
    """
    gram, size = sketch_gram(A, sketch_size=sketch_size, seed=seed)
    return preconditioner_from_gram(gram, alpha=alpha, sketch_size=size)
