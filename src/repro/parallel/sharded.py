"""Row-partitioned operators: LSQR-shaped sharding with exact fan-in.

SRDA's whole cost is products against the data operator, and those
products decompose along rows: for ``X`` split into contiguous row
blocks ``X_s``,

- forward:  ``X v   = concat_s (X_s v)``        (disjoint writes)
- adjoint:  ``X.T u = sum_s   (X_s.T u_s)``     (a reduction)

:class:`ShardedOperator` realizes that decomposition behind the
standard :class:`~repro.linalg.operators.LinearOperator` contract, so
``block_lsqr``, ``verify_operator`` and FLAM counting all work
unchanged, and fans the per-shard kernels out on any
:class:`~repro.parallel.backends.Backend`.

Determinism contract
--------------------
Results depend on the *shard layout* (a pure function of the data: row
count, plus — for CSR — the nnz profile via
:func:`nnz_shard_bounds`) and never on the backend or worker count:

- CSR ``matvec``/``matmat`` are **bitwise identical** to the unsharded
  kernels — the handwritten CSR kernels reduce each row in storage
  order, and row segments never straddle a shard boundary.
- CSR ``rmatvec`` is also **bitwise identical**: shards compute only
  the *elementwise* stage (``data * u[row_ids]`` over their contiguous
  slice of storage order) into one products buffer, and the coordinator
  applies the single canonical reduction
  (:meth:`~repro.linalg.sparse.CSRMatrix.reduce_adjoint_products`).
- Dense kernels, and every ``rmatmat``, are deterministic and
  reproducible for a given layout (identical across backends and worker
  counts) but only within a few ulp of the unsharded product: adjoint
  fan-in folds per-shard partials in fixed shard order, and dense
  forward products go through BLAS, whose internal reduction order can
  depend on the block's row count.

Per-shard wall times are recorded into the current tracer's metrics
(histogram ``parallel.shard_seconds``, counter
``parallel.shard_products``), so shard balance shows up in the same
trace as the fit spans.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Dict,
    List,
    Literal,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._typing import FloatArray, FloatDType, IntArray
from repro.exceptions import TransportError
from repro.linalg import kernels
from repro.linalg.operators import LinearOperator, as_operator
from repro.linalg.sparse import CSRMatrix
from repro.observability import current_tracer
from repro.parallel.backends import Backend, SerialBackend, resolve_backend

__all__ = [
    "ShardedOperator",
    "csr_row_slice",
    "default_shard_count",
    "nnz_shard_bounds",
    "shard_bounds",
    "shard_kernel_result",
]

#: Rows per shard below which splitting stops paying for itself.
_MIN_SHARD_ROWS = 512

#: Default cap on shard count (matches the largest pool the benchmarks
#: exercise; more shards than cores only adds fan-in overhead).
_MAX_DEFAULT_SHARDS = 8


def default_shard_count(m: int) -> int:
    """Shard count used when the caller does not pick one.

    Complexity: O(1) — integer arithmetic on ``m``.

    A pure function of ``m`` — *not* of the backend or worker count — so
    that the default layout (and therefore the exact floating-point
    result of every product) is identical on every backend.
    """
    if m < _MIN_SHARD_ROWS:
        return 1
    return max(2, min(_MAX_DEFAULT_SHARDS, m // _MIN_SHARD_ROWS))


def shard_bounds(m: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, nearly equal ``[start, stop)`` row ranges.

    Complexity: O(k) for ``k`` shards — the edge list itself.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, max(1, m))
    edges = [(m * i) // n_shards for i in range(n_shards + 1)]
    return [(edges[i], edges[i + 1]) for i in range(n_shards)]


def nnz_shard_bounds(
    indptr: IntArray, n_shards: int
) -> List[Tuple[int, int]]:
    """Contiguous row ranges balanced by *stored-entry* count.

    Complexity: O(k·log m) for ``k`` shards — one binary search into
    ``indptr`` per cut.

    A CSR shard's kernel cost is proportional to its non-zeros, not its
    rows; on skewed data (a few heavy rows, a long sparse tail) the
    row-count splits of :func:`shard_bounds` leave one worker doing most
    of the arithmetic while the rest idle.  This picks the row cut for
    shard ``i`` as the ``indptr`` position nearest ``total·i/n_shards``,
    so every shard carries within one row's worth of nnz of the ideal
    share — while staying a pure function of the data (never of the
    backend or worker count), preserving the determinism contract.

    Each shard keeps at least one row; with fewer rows than shards, or
    an all-zero matrix, this degrades to :func:`shard_bounds`.
    """
    m = int(len(indptr)) - 1
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, max(1, m))
    total = int(indptr[-1]) if m >= 0 else 0
    if n_shards == 1 or total == 0:
        return shard_bounds(m, n_shards)
    cuts: List[int] = [0]
    for i in range(1, n_shards):
        target = (total * i) // n_shards
        # First row boundary at or past the nnz target, then snap back
        # when the previous boundary is nearer in nnz space.
        cut = int(np.searchsorted(indptr, target, side="left"))
        cut = min(cut, m)
        if cut > 0 and (target - int(indptr[cut - 1])) < (
            int(indptr[cut]) - target
        ):
            cut -= 1
        # Keep shards non-empty and strictly increasing.
        cut = max(cut, cuts[-1] + 1)
        cut = min(cut, m - (n_shards - i))
        cuts.append(cut)
    cuts.append(m)
    return [(cuts[i], cuts[i + 1]) for i in range(n_shards)]


def csr_row_slice(matrix: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """The contiguous row block ``matrix[start:stop]`` as a CSRMatrix.

    Complexity: O(m) worst case — the localized ``indptr`` copy; the
    ``data``/``indices`` views are O(1).

    ``data``/``indices`` are views into the parent's storage (zero
    copy); only the localized ``indptr`` is materialized.
    """
    if not 0 <= start <= stop <= matrix.shape[0]:
        raise ValueError(
            f"invalid row range [{start}, {stop}) for {matrix.shape[0]} rows"
        )
    lo = int(matrix.indptr[start])
    hi = int(matrix.indptr[stop])
    return CSRMatrix(
        matrix.data[lo:hi],
        matrix.indices[lo:hi],
        matrix.indptr[start : stop + 1] - lo,
        (stop - start, matrix.shape[1]),
    )


def _ordered_fold(partials: FloatArray) -> FloatArray:
    """Sum ``partials`` over axis 0 as a left fold in shard order.

    A plain left fold — not ``np.sum``, whose pairwise reduction would
    tie the association (and thus the low bits) to internal blocking
    heuristics instead of the shard layout.
    """
    acc = np.array(partials[0])
    for i in range(1, partials.shape[0]):
        acc += partials[i]
    return acc


def shard_kernel_result(
    mode: str,
    shard: Any,
    kernel: str,
    operand: FloatArray,
) -> FloatArray:
    """One shard's share of a product, as a returned array.

    Complexity: O(nnz) per shard-local kernel call (``nnz`` = the
    shard's stored entries; ``O(nnz·c)`` for ``c``-column blocks).

    The single arithmetic body behind every transport: in-process
    backends write the returned block into a coordinator-owned buffer
    (:func:`_apply_shard_kernel`), and distributed workers ship it back
    over a socket.  Forward kernels expect the full operand; adjoint
    kernels expect the caller's pre-sliced ``operand[r0:r1]`` block.
    Both transports evaluating these exact expressions is what makes
    the distributed backend bitwise-identical to the local ones.
    """
    if mode == "dense":
        if kernel in ("matvec", "matmat"):
            return shard @ operand
        return shard.T @ operand
    if mode == "csr":
        # CSR shards go through the kernel dispatcher, so thread
        # workers run the GIL-free compiled backend when selected.  The
        # adjoint emits only the elementwise stage so the coordinator
        # can apply the one canonical reduction.
        if kernel == "matvec":
            return kernels.csr_matvec(shard, operand)
        if kernel == "rmatvec":
            return kernels.csr_adjoint_products(shard, operand)
        if kernel == "matmat":
            return kernels.csr_matmat(shard, operand)
        return kernels.csr_rmatmat(shard, operand)
    if kernel == "matvec":
        return shard.matvec(operand)
    if kernel == "rmatvec":
        return shard.rmatvec(operand)
    if kernel == "matmat":
        return shard.matmat(operand)
    return shard.rmatmat(operand)


def _apply_shard_kernel(
    mode: str,
    shard: Any,
    kernel: str,
    operand: FloatArray,
    out: FloatArray,
    rows: Tuple[int, int],
    nnz_range: Tuple[int, int],
    slot: int,
) -> None:
    """Run one shard's share of a product, writing into ``out``.

    The write-into-buffer form of :func:`shard_kernel_result` used by
    in-process backends.  Forward kernels write their disjoint row
    block; adjoint kernels write either their slice of the CSR products
    buffer (``rmatvec``) or their partial into slot ``slot`` for the
    coordinator's ordered fold.
    """
    r0, r1 = rows
    if kernel in ("matvec", "matmat"):
        out[r0:r1] = shard_kernel_result(mode, shard, kernel, operand)
    elif mode == "csr" and kernel == "rmatvec":
        p0, p1 = nnz_range
        out[p0:p1] = shard_kernel_result(mode, shard, kernel, operand[r0:r1])
    else:
        out[slot] = shard_kernel_result(mode, shard, kernel, operand[r0:r1])


class ShardedOperator(LinearOperator):
    """Row-partitioned view of a CSR/dense matrix (or operator stack).

    Complexity: O(nnz) per ``matvec``/``rmatvec`` summed across shards
    (``O(nnz·c)`` for ``c``-column blocks), plus O(m + k) coordinator
    work per product for the gather and ordered fold.

    Parameters
    ----------
    X:
        What to shard.  Accepts a :class:`CSRMatrix` / scipy sparse
        matrix / :class:`~repro.linalg.operators.CSROperator` (CSR
        mode), a dense ndarray / ``DenseOperator`` (dense mode), or a
        sequence of :class:`LinearOperator` row blocks (ops mode — the
        hook fault-injection tests use to plant a
        :class:`~repro.linalg.operators.FaultyOperator` inside one
        shard; serial/thread backends only).
    n_shards:
        Number of contiguous row shards.  Default:
        :func:`default_shard_count` of the row count — deliberately
        independent of the backend so results never depend on *where*
        the product ran.  Clamped to the row count.
    backend:
        A :class:`~repro.parallel.backends.Backend` instance (caller
        keeps ownership), a backend name, or ``None``; names and
        ``None`` go through
        :func:`~repro.parallel.backends.resolve_backend` sized by
        ``n_jobs``, and the resulting backend is owned (and closed) by
        this operator.
    n_jobs:
        Worker count used only when ``backend`` is not already an
        instance.

    With one shard every product delegates straight to the unsharded
    kernel — the degenerate layout is a true passthrough.
    """

    def __init__(
        self,
        X: Union[
            CSRMatrix, FloatArray, LinearOperator, Sequence[LinearOperator], Any
        ],
        n_shards: Optional[int] = None,
        backend: Union[None, str, Backend] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._owns_backend = not isinstance(backend, Backend)
        self.backend = resolve_backend(backend, n_jobs)
        self._closed = False
        self._scratch: Dict[Tuple[str, Tuple[int, ...], str, str], FloatArray] = {}

        self.matrix: Optional[CSRMatrix] = None
        self.array: Optional[FloatArray] = None
        self._ops: Optional[List[LinearOperator]] = None

        if isinstance(X, (list, tuple)):
            self._mode = "ops"
            self._init_ops(list(X), n_shards)
        else:
            base = as_operator(X)
            inner_matrix = getattr(base, "matrix", None)
            inner_array = getattr(base, "array", None)
            if isinstance(inner_matrix, CSRMatrix):
                self._mode = "csr"
                self.matrix = inner_matrix
            elif inner_array is not None:
                self._mode = "dense"
                self.array = np.asarray(inner_array)
            else:
                raise TypeError(
                    "ShardedOperator needs a CSR/dense matrix (or a "
                    "sequence of row-block operators); got "
                    f"{type(X).__name__} — wrap structural operators "
                    "around the sharded data operator instead"
                )
            m = base.shape[0]
            self.shape = (m, base.shape[1])
            count = default_shard_count(m) if n_shards is None else int(n_shards)
            if self._mode == "csr":
                # Balance shards by stored entries, not rows — kernel
                # cost is O(nnz), and the cut is still a pure function
                # of the data, so the determinism contract holds.
                assert self.matrix is not None
                self._bounds = nnz_shard_bounds(self.matrix.indptr, count)
            else:
                self._bounds = shard_bounds(m, count)
            self._build_local_shards()

        self.n_shards = len(self._bounds)
        self._single = self.n_shards == 1
        self._nnz_bounds = self._compute_nnz_bounds()
        self._direct: Optional[LinearOperator] = None
        if self._single:
            if self._mode == "ops":
                assert self._ops is not None
                self._direct = self._ops[0]
            elif self._mode == "csr":
                self._direct = as_operator(self.matrix)
            else:
                self._direct = as_operator(self.array)

        #: Set when a remote cluster failed and products fell back to a
        #: local backend; surfaced into ``fit_report_`` by the solvers.
        self.degraded_from: Optional[str] = None
        self.degradation_reason: Optional[str] = None

        self._uses_remote = self.backend.remote
        self._remote_keys: List[str] = []
        if self._uses_remote and not self._single:
            try:
                self._ship_remote_shards()
            except TransportError as exc:
                if getattr(self.backend, "on_unhealthy", "degrade") != "degrade":
                    self.close()
                    raise
                self._degrade(exc)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _init_ops(
        self, ops: List[LinearOperator], n_shards: Optional[int]
    ) -> None:
        if not ops:
            raise ValueError("ops mode needs at least one row-block operator")
        if not all(isinstance(op, LinearOperator) for op in ops):
            raise TypeError("ops mode expects LinearOperator row blocks")
        n_cols = ops[0].shape[1]
        if any(op.shape[1] != n_cols for op in ops):
            raise ValueError("row-block operators must share column count")
        if n_shards is not None and int(n_shards) != len(ops):
            raise ValueError(
                f"n_shards={n_shards} conflicts with {len(ops)} row blocks"
            )
        if self.backend.remote:
            raise ValueError(
                "operator-sequence sharding cannot cross a process "
                "boundary; use a serial or thread backend"
            )
        self._ops = ops
        bounds = []
        row = 0
        for op in ops:
            bounds.append((row, row + op.shape[0]))
            row += op.shape[0]
        self._bounds = bounds
        self.shape = (row, n_cols)
        self._local_shards: List[Any] = list(ops)

    def _build_local_shards(self) -> None:
        if self._mode == "csr":
            assert self.matrix is not None
            self._local_shards = [
                csr_row_slice(self.matrix, r0, r1) for r0, r1 in self._bounds
            ]
        else:
            assert self.array is not None
            self._local_shards = [
                self.array[r0:r1] for r0, r1 in self._bounds
            ]

    def _compute_nnz_bounds(self) -> List[Tuple[int, int]]:
        if self._mode != "csr":
            return [(0, 0)] * self.n_shards
        assert self.matrix is not None
        indptr: IntArray = self.matrix.indptr
        return [
            (int(indptr[r0]), int(indptr[r1])) for r0, r1 in self._bounds
        ]

    def _ship_remote_shards(self) -> None:
        """One-time checksummed shipment of every shard to the cluster.

        Shard payloads cross the wire exactly once; per-product traffic
        is limited to operand and result vectors.
        """
        payloads: List[Dict[str, Any]] = []
        for shard in self._local_shards:
            if self._mode == "csr":
                payloads.append(
                    {
                        "kind": "csr",
                        "shape": shard.shape,
                        "arrays": {
                            "data": shard.data,
                            "indices": shard.indices,
                            "indptr": shard.indptr,
                        },
                    }
                )
            else:
                payloads.append(
                    {
                        "kind": "dense",
                        "shape": shard.shape,
                        "arrays": {"block": np.ascontiguousarray(shard)},
                    }
                )
        self._remote_keys = self.backend.ship_shards(payloads)

    def _degrade(self, exc: BaseException) -> None:
        """Fall back to the serial backend after cluster failure.

        The local shards built at construction make this a pure
        transport switch: the shard layout — and therefore every bit
        of every subsequent product — is unchanged.
        """
        reason = f"{type(exc).__name__}: {exc}"
        self.degraded_from = self.backend.name
        self.degradation_reason = reason
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.counter("parallel.degradations").add(1.0)
            tracer.event(
                "parallel.backend_degraded",
                from_backend=self.backend.name,
                reason=reason[:200],
            )
        if self._owns_backend:
            self.backend.close()
        self.backend = SerialBackend()
        self._owns_backend = True
        self._uses_remote = False

    # ------------------------------------------------------------------
    # Operator contract
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> FloatDType:
        if self._mode == "csr":
            assert self.matrix is not None
            return self.matrix.dtype
        if self._mode == "dense":
            assert self.array is not None
            return self.array.dtype
        assert self._ops is not None
        return np.result_type(*[op.dtype for op in self._ops])

    @property
    def shard_layout(self) -> List[Tuple[int, int]]:
        """The contiguous ``[start, stop)`` row range of each shard."""
        return list(self._bounds)

    def _record(self, timings: List[float]) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            return
        histogram = tracer.metrics.histogram("parallel.shard_seconds")
        for elapsed in timings:
            histogram.observe(elapsed)
        tracer.metrics.counter("parallel.shard_products").add(
            float(len(timings))
        )

    def _run(
        self,
        kernel: str,
        operand: FloatArray,
        out_shape: Tuple[int, ...],
        out_dtype: FloatDType,
        order: Literal["C", "F"] = "C",
    ) -> FloatArray:
        """Fan a kernel out over every shard; return the fan-in buffer."""
        if self._uses_remote:
            try:
                return self._run_remote(
                    kernel, operand, out_shape, out_dtype, order
                )
            except TransportError as exc:
                if (
                    getattr(self.backend, "on_unhealthy", "degrade")
                    != "degrade"
                ):
                    raise
                # Fall through to the local path: same shard layout,
                # same kernels — the product below is bit-for-bit what
                # the cluster would have returned.
                self._degrade(exc)
        out = self._fan_in_buffer(kernel, out_shape, out_dtype, order)

        def run_shard(index: int) -> float:
            t0 = time.perf_counter()
            _apply_shard_kernel(
                self._mode,
                self._local_shards[index],
                kernel,
                operand,
                out,
                self._bounds[index],
                self._nnz_bounds[index],
                index,
            )
            return time.perf_counter() - t0

        timings = self.backend.map(run_shard, list(range(self.n_shards)))
        self._record(timings)
        return out

    def _run_remote(
        self,
        kernel: str,
        operand: FloatArray,
        out_shape: Tuple[int, ...],
        out_dtype: FloatDType,
        order: Literal["C", "F"],
    ) -> FloatArray:
        """Stream one product through the remote cluster.

        Forward kernels ship the full operand (every shard multiplies
        against all columns); adjoint kernels ship only each shard's
        ``operand[r0:r1]`` block.  Assembly mirrors
        :func:`_apply_shard_kernel`'s writes exactly, so the returned
        buffer is bitwise what the local paths produce.
        """
        forward = kernel in ("matvec", "matmat")
        tasks = []
        for i in range(self.n_shards):
            r0, r1 = self._bounds[i]
            tasks.append(
                {
                    "key": self._remote_keys[i],
                    "kernel": kernel,
                    "operand": operand if forward else operand[r0:r1],
                }
            )
        arrays = self.backend.run_tasks(tasks)
        out = np.empty(out_shape, dtype=out_dtype, order=order)
        for i, array in enumerate(arrays):
            if forward:
                r0, r1 = self._bounds[i]
                out[r0:r1] = array
            elif self._mode == "csr" and kernel == "rmatvec":
                p0, p1 = self._nnz_bounds[i]
                out[p0:p1] = array
            else:
                out[i] = array
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.counter("parallel.shard_products").add(
                float(self.n_shards)
            )
        return out

    def _fan_in_buffer(
        self,
        kernel: str,
        out_shape: Tuple[int, ...],
        out_dtype: FloatDType,
        order: Literal["C", "F"],
    ) -> FloatArray:
        """Fan-in buffer for ``_run``; adjoint buffers are reused.

        Forward products (``matvec``/``matmat``) are returned to callers
        and must stay fresh.  Adjoint intermediates — the CSR products
        buffer and the per-shard partials — are fully consumed by the
        canonical reduction / ordered fold (both of which allocate their
        own output) before the next product starts, so the hot LSQR
        adjoint path can recycle them instead of re-allocating an
        ``nnz``-sized (or ``n_shards×n×k``) buffer every iteration.
        Concurrent products on one operator were never supported.
        """
        if kernel in ("matvec", "matmat"):
            return np.empty(out_shape, dtype=out_dtype, order=order)
        key = (kernel, out_shape, np.dtype(out_dtype).str, order)
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.empty(out_shape, dtype=out_dtype, order=order)
            self._scratch[key] = buf
        return buf

    def _matvec(self, v: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.matvec(v)
        out_dtype = np.result_type(self.dtype, v.dtype)
        return self._run("matvec", v, (self.shape[0],), out_dtype)

    def _rmatvec(self, u: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.rmatvec(u)
        out_dtype = np.result_type(self.dtype, u.dtype)
        if self._mode == "csr":
            assert self.matrix is not None
            products = self._run(
                "rmatvec", u, (self.matrix.nnz,), out_dtype
            )
            return kernels.csr_reduce_adjoint(self.matrix, products)
        partials = self._run(
            "rmatvec", u, (self.n_shards, self.shape[1]), out_dtype
        )
        return _ordered_fold(partials)

    def _block_operand(self, B: FloatArray) -> FloatArray:
        """``B`` laid out once, before fan-out, as the CSR kernels read it.

        Every shard's forward product reads the whole operand, so a
        per-shard conversion would copy it once per shard; adjoint
        shards read contiguous row blocks of the converted operand.
        """
        if self._mode != "csr":
            return B
        assert self.matrix is not None
        return kernels.csr_matmat_operand(self.matrix, B)

    def _matmat(self, B: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.matmat(B)
        out_dtype = np.result_type(self.dtype, B.dtype)
        return self._run(
            "matmat",
            self._block_operand(B),
            (self.shape[0], B.shape[1]),
            out_dtype,
            order="F",
        )

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.rmatmat(U)
        out_dtype = np.result_type(self.dtype, U.dtype)
        U = self._block_operand(U)
        partials = self._run(
            "rmatmat",
            U,
            (self.n_shards, self.shape[1], U.shape[1]),
            out_dtype,
        )
        return _ordered_fold(partials)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the backend if this operator owns it.  Idempotent.

        A caller-supplied backend stays open (it may be serving several
        operators) until the caller closes it.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ShardedOperator":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedOperator(shape={self.shape}, mode={self._mode!r}, "
            f"n_shards={self.n_shards}, backend={self.backend.name!r})"
        )
