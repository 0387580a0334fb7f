"""Block LSQR — multi-RHS Golub–Kahan iteration with shared mat-mats.

This is the package's one LSQR — Paige & Saunders' iteration for
sparse least squares (*ACM TOMS* 8(1):43–71, 1982, and Algorithm 583),
the engine behind the paper's title claim: Golub–Kahan
bidiagonalization of ``A`` started from ``b``, a QR factorization of
the bidiagonal updated by Givens rotations, built-in Tikhonov damping
(``min ‖Ax - b‖² + damp²‖x‖²`` without forming the augmented system),
and the standard stopping rules (atol/btol, conlim, an iteration cap)
plus two explicit failure codes (istop 8 and 9).

SRDA's fit cost is ``c-1`` independent damped least-squares solves
against the *same* operator.  Solving them one at a time issues
``2(c-1)`` memory-bound products per iteration; this module carries
all right-hand sides through one Golub–Kahan iteration, so each step
touches the data exactly twice (one ``A @ V`` and one ``A.T @ U`` block
product) no matter how many systems ride along.  The scalar QR
recurrences are independent per column, so every column runs its own
LSQR — istop codes, damping, warm starts and the istop-8/9 failures —
and a 1-D ``b`` is simply a block of one column.

Columns stop independently.  A column whose convergence test fires (or
that hits istop 8/9) is frozen — its solution and diagnostics recorded
at that iteration — and compacted out of the working block, so late
iterations only pay for the columns still running.

The module writes the iteration once: one Golub–Kahan start and step
(:class:`_LiveBasis`) and one QR/freeze loop
(:func:`_iterate`) that draws each step's ``(β, α, V)`` from a *basis
source*.  :func:`block_lsqr` uses the live source, which bidiagonalizes
as it goes and compacts frozen columns out of its blocks.
:class:`SharedBidiagonalization` exploits the fact that the basis
depends only on ``(A, B)`` and never on ``damp``: it runs the same step
once to record the basis (``2·depth + 1`` operator passes over the data)
and then replays it through the same loop for any number of damping
values with *zero* further operator products — the engine behind the
one-pass alpha sweep.  Warm starts with damping and right
preconditioners share one augmented ``[A; damp·I]`` system.

Working set.  A solve's irreducible state is four ``(n, k)`` blocks:
``V``, the next ``V``, ``W`` and ``X``.  The blocks keep the layout the
operator's products return — row-major for CSR, Fortran for dense — so
no iteration makes a layout copy.  Each update lands in a block that
already exists: ``Av − αu`` in the block ``Av`` was returned in,
``Aᵀu − βv`` in the block ``Aᵀu`` was returned in, and ``X``/``W`` in
place, through the fused vector kernels of :mod:`repro.linalg.kernels`
(``block_add_sumsq``, ``block_advance``, ``block_divide``), so no
iteration allocates an ``(n, k)`` temporary either.  Every column norm
follows the pinned order of :func:`repro.linalg.panels.column_sums`,
which does not depend on a block's width or layout: a live, a replayed
and a compacted block round each column alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro._typing import BoolArray, FloatArray, IntArray, MatrixLike

from repro.linalg import kernels
from repro.linalg.operators import (
    IdentityOperator,
    LinearOperator,
    StackedOperator,
    as_operator,
)
from repro.linalg.panels import column_norms, panel_scratch
from repro.linalg.sparse import as_value_dtype
from repro.observability.hooks import IterationEvent, IterationHook

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.linalg.sketch import SketchPreconditioner


#: Human-readable meanings of the termination codes.  0–7 follow Paige &
#: Saunders / Algorithm 583; 8 and 9 are this implementation's explicit
#: failure codes, so a diverged or stalled run never passes for an answer.
ISTOP_REASONS = {
    0: "x = 0 is the exact solution",
    1: "residual small enough (btol test)",
    2: "least-squares optimality reached (atol test)",
    3: "condition estimate exceeded conlim",
    4: "residual as small as machine precision allows",
    5: "optimality as small as machine precision allows",
    6: "condition estimate at machine-precision limit",
    7: "iteration limit reached before convergence tests fired",
    8: "non-finite values encountered (diverged or faulty operator)",
    9: "residual stagnated far from optimality",
}

#: Codes that indicate the run failed to make progress (8 = divergence /
#: NaN contamination, 9 = stagnation).  Code 7 is *not* listed: hitting
#: the iteration cap is normal operation for the paper's fixed 15–20
#: iteration protocol (``tol = 0``); callers decide whether it matters.
FAILURE_ISTOPS = frozenset({8, 9})

#: Consecutive no-progress iterations before stagnation is declared.
_STAGNATION_WINDOW = 5
#: Relative residual decrease below which an iteration counts as stalled.
_STAGNATION_RTOL = 1e-12
#: Optimality levels that must *both* still be poor for a plateau to be
#: stagnation rather than ordinary convergence with tol = 0.
_STAGNATION_FLOOR = 1e-6


@dataclass
class LSQRResult:
    """Outcome of one column's LSQR run (:meth:`BlockLSQRResult.column`).

    Attributes
    ----------
    x:
        The solution estimate.
    istop:
        Why the iteration stopped: 0 = x=0 is the exact solution,
        1 = residual small (btol test), 2 = least-squares optimality
        (atol test), 3 = condition-number limit, 7 = iteration limit,
        8 = non-finite values (divergence/faulty operator),
        9 = stagnation far from optimality.  See :data:`ISTOP_REASONS`.
    itn:
        Iterations performed.
    r1norm:
        ``‖b - Ax‖`` (undamped residual norm).
    r2norm:
        ``sqrt(‖b - Ax‖² + damp²‖x‖²)`` — the quantity LSQR minimizes.
    anorm, acond:
        Frobenius-norm and condition estimates of the (damped) operator.
    arnorm:
        ``‖Aᵀr‖`` — the least-squares optimality residual.
    xnorm:
        ``‖x‖``.
    residual_history:
        ``r2norm`` after each iteration, when history recording is on.
    """

    x: FloatArray
    istop: int
    itn: int
    r1norm: float
    r2norm: float
    anorm: float
    acond: float
    arnorm: float
    xnorm: float
    residual_history: List[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """True when the run diverged (8) or stagnated (9)."""
        return self.istop in FAILURE_ISTOPS

    @property
    def converged(self) -> bool:
        """True when a convergence test fired (not a cap or a failure)."""
        return self.istop in (0, 1, 2, 4, 5)

    @property
    def stop_reason(self) -> str:
        """Human-readable meaning of :attr:`istop`."""
        return ISTOP_REASONS.get(self.istop, f"unknown code {self.istop}")


def _block_event(
    solver: str,
    itn: int,
    state: "_ColumnState",
    istop_iter: IntArray,
    active: IntArray,
) -> IterationEvent:
    """One observability event for a whole block iteration.

    ``r2norm``/``arnorm`` are the maxima over still-finite columns (a
    diverged lane's NaN must not poison the trace); ``istop`` is the
    strongest code any column hit this iteration (0 while all run).
    """
    finite_r2 = state.r2norm[np.isfinite(state.r2norm)]
    finite_ar = state.arnorm[np.isfinite(state.arnorm)]
    return IterationEvent(
        solver=solver,
        itn=itn,
        r2norm=float(finite_r2.max()) if finite_r2.size else 0.0,
        arnorm=float(finite_ar.max()) if finite_ar.size else 0.0,
        istop=int(istop_iter.max()) if istop_iter.size else 0,
        active=[int(col) for col in active],
    )


def _masked_errstate(fn):
    """Silence IEEE warnings from already-poisoned column lanes.

    A column stops the moment a non-finite quantity appears, but the
    blocked iteration must carry a poisoned lane to the end of the
    iteration that froze it (the lane is compacted out afterwards), and
    the vectorized updates run over every lane — the resulting
    ``invalid``/``overflow`` signals describe values that are already
    frozen as istop 8 and never reach the output.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def _pinned_backend(fn):
    """Resolve the kernel backend once for the whole call.

    A solve dispatches two block products and several vector updates
    per iteration through :mod:`repro.linalg.kernels`; under
    :func:`~repro.linalg.kernels.pinned_backend` each reads the
    resolved name from a ``ContextVar`` instead of the environment.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with kernels.pinned_backend():
            return fn(*args, **kwargs)

    return wrapper


@dataclass
class BlockLSQRResult:
    """Outcome of a blocked LSQR run: per-column arrays of diagnostics.

    Attributes mirror :class:`LSQRResult`, vectorized over the ``k``
    right-hand sides: ``X`` is ``(n, k)`` and every diagnostic is a
    length-``k`` array whose entry ``j`` is column ``j``'s own LSQR
    diagnostic.
    """

    X: FloatArray
    istop: IntArray
    itn: IntArray
    r1norm: FloatArray
    r2norm: FloatArray
    anorm: FloatArray
    acond: FloatArray
    arnorm: FloatArray
    xnorm: FloatArray
    residual_history: List[List[float]] = field(default_factory=list)

    @property
    def n_columns(self) -> int:
        return int(self.istop.size)

    @property
    def failed(self) -> BoolArray:
        """Boolean mask of columns that diverged (8) or stagnated (9)."""
        return np.isin(self.istop, tuple(FAILURE_ISTOPS))

    @property
    def any_failed(self) -> bool:
        return bool(self.failed.any())

    def column(self, j: int) -> LSQRResult:
        """Column ``j`` repackaged as an :class:`LSQRResult`."""
        return LSQRResult(
            x=np.array(self.X[:, j]),
            istop=int(self.istop[j]),
            itn=int(self.itn[j]),
            r1norm=float(self.r1norm[j]),
            r2norm=float(self.r2norm[j]),
            anorm=float(self.anorm[j]),
            acond=float(self.acond[j]),
            arnorm=float(self.arnorm[j]),
            xnorm=float(self.xnorm[j]),
            residual_history=list(self.residual_history[j]),
        )


class _ColumnState:
    """Per-column scalar recurrences of the damped LSQR QR step.

    Every field is a length-``k_active`` float64 array; :meth:`take`
    compacts all of them together when columns freeze.  The update
    methods run Paige & Saunders' scalar arithmetic, vectorized across
    columns.
    """

    _FIELDS = (
        "rhobar",
        "phibar",
        "bnorm",
        "rnorm",
        "r1norm",
        "r2norm",
        "arnorm",
        "anorm",
        "acond",
        "ddnorm",
        "res2",
        "xnorm",
        "xxnorm",
        "z",
        "cs2",
        "sn2",
        "prev_r2norm",
        "stalled",
        "rho",
        "phi",
        "theta",
        "psi",
        "tau",
    )

    def __init__(self, alfa: FloatArray, beta: FloatArray, dampsq: float):
        k = beta.size
        self.dampsq = float(dampsq)
        self.rhobar = alfa.astype(np.float64, copy=True)
        self.phibar = beta.astype(np.float64, copy=True)
        self.bnorm = self.phibar.copy()
        self.rnorm = self.phibar.copy()
        self.r1norm = self.phibar.copy()
        self.r2norm = self.phibar.copy()
        self.arnorm = self.rhobar * self.phibar
        self.anorm = np.zeros(k)
        self.acond = np.zeros(k)
        self.ddnorm = np.zeros(k)
        self.res2 = np.zeros(k)
        self.xnorm = np.zeros(k)
        self.xxnorm = np.zeros(k)
        self.z = np.zeros(k)
        self.cs2 = np.full(k, -1.0)
        self.sn2 = np.zeros(k)
        self.prev_r2norm = self.r2norm.copy()
        self.stalled = np.zeros(k, dtype=np.int64)
        self.rho = np.zeros(k)
        self.phi = np.zeros(k)
        self.theta = np.zeros(k)
        self.psi = np.zeros(k)
        self.tau = np.zeros(k)

    def take(self, idx: IntArray) -> None:
        """Keep only the columns at ``idx`` (local indices)."""
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[idx])

    def rotation(self, alfa: FloatArray, beta: FloatArray, damp: float):
        """Damping + Givens rotations; returns the (t1, t2) step sizes."""
        rhobar1 = self.rhobar
        if damp > 0:
            rhobar1 = np.sqrt(self.rhobar**2 + self.dampsq)
            cs1 = self.rhobar / rhobar1
            sn1 = damp / rhobar1
            self.psi = sn1 * self.phibar
            self.phibar = cs1 * self.phibar
        # Undamped, psi stays the zeros it starts as: damp is fixed for
        # the whole solve, and take() keeps zeros zero.
        rho = np.sqrt(rhobar1**2 + beta**2)
        cs = rhobar1 / rho
        sn = beta / rho
        theta = sn * alfa
        self.rhobar = -cs * alfa
        phi = cs * self.phibar
        self.phibar = sn * self.phibar
        self.rho = rho
        self.phi = phi
        self.theta = theta
        self.tau = sn * phi
        return phi / rho, -theta / rho

    def diagnostics(self, alfa: FloatArray, wnorm_sq: FloatArray) -> None:
        """Norm estimates after the rotation, per column."""
        rho, phi, theta = self.rho, self.phi, self.theta
        self.ddnorm = self.ddnorm + wnorm_sq / rho**2
        delta = self.sn2 * rho
        gambar = -self.cs2 * rho
        rhs = phi - delta * self.z
        zbar = rhs / gambar
        self.xnorm = np.sqrt(self.xxnorm + zbar**2)
        gamma = np.sqrt(gambar**2 + theta**2)
        self.cs2 = gambar / gamma
        self.sn2 = theta / gamma
        self.z = rhs / gamma
        self.xxnorm = self.xxnorm + self.z**2
        self.acond = self.anorm * np.sqrt(self.ddnorm)
        self.res2 = self.res2 + self.psi**2
        self.rnorm = np.sqrt(self.phibar**2 + self.res2)
        self.arnorm = alfa * np.abs(self.tau)
        r1sq = self.rnorm**2 - self.dampsq * self.xxnorm
        r1 = np.sqrt(np.abs(r1sq))
        self.r1norm = np.where(r1sq < 0, -r1, r1)
        self.r2norm = self.rnorm.copy()


def _guarded_ratio(
    num: Union[float, FloatArray], den: FloatArray, where: BoolArray
) -> FloatArray:
    """``num / den`` where ``where`` holds and 0 elsewhere, per column."""
    # O(k) scalars, one per column — not an (n, k) block buffer.
    out = np.zeros(den.size)  # repro: noqa-RPR011
    return np.divide(num, den, out=out, where=where)


def _post_step_istop(
    state: _ColumnState,
    itn: int,
    iter_lim: int,
    atol: float,
    btol: float,
    ctol: float,
) -> FloatArray:
    """Per-column istop after one iteration (0 where nothing fired).

    Check order: non-finite → 8 wins, stagnation → 9 next, then the
    convergence cascade 7…1 where later (stronger) assignments override
    earlier ones.  Stagnation is several consecutive iterations with no
    residual progress while *both* the residual and the optimality
    tests are still far from firing: a plateau at the least-squares
    optimum (``arnorm → 0``) is ordinary convergence, not istop 9.
    """
    k = state.rnorm.size
    nonfinite = ~np.isfinite(state.r2norm) | ~np.isfinite(state.xnorm)

    stalled_now = (state.prev_r2norm - state.r2norm) <= _STAGNATION_RTOL * (
        np.maximum(state.prev_r2norm, 1.0)
    )
    state.stalled = np.where(stalled_now, state.stalled + 1, 0)
    state.prev_r2norm = state.r2norm.copy()

    bpos = state.bnorm > 0
    test1 = _guarded_ratio(state.rnorm, state.bnorm, bpos)
    anr = state.anorm * state.rnorm
    test2 = _guarded_ratio(state.arnorm, anr, anr > 0)
    test3 = _guarded_ratio(1.0, state.acond, state.acond > 0)
    stagnated = (
        (state.stalled >= _STAGNATION_WINDOW)
        & (test1 > _STAGNATION_FLOOR)
        & (test2 > _STAGNATION_FLOOR)
    )
    ratio = _guarded_ratio(state.anorm * state.xnorm, state.bnorm, bpos)
    t1_stop = np.where(bpos, test1 / (1.0 + ratio), 0.0)
    rtol = np.where(bpos, btol + atol * ratio, 0.0)

    # O(k) codes, one per column — not an (n, k) block buffer.
    istop = np.zeros(k, dtype=np.int64)  # repro: noqa-RPR011
    if itn >= iter_lim:
        istop[:] = 7
    istop[1.0 + test3 <= 1.0] = 6
    istop[1.0 + test2 <= 1.0] = 5
    istop[1.0 + t1_stop <= 1.0] = 4
    istop[test3 <= ctol] = 3
    istop[test2 <= atol] = 2
    istop[test1 <= rtol] = 1
    istop[stagnated] = 9
    istop[nonfinite] = 8
    return istop


class _Outputs:
    """Full-width result arrays that frozen columns are written into.

    ``X`` is allocated, like the solver's ``Xa``, at the first freeze
    that leaves columns running.  When every column freezes on the same
    iteration (a fixed iteration count), ``Xa`` itself becomes ``X``.
    """

    def __init__(self, n: int, k: int, block_dtype) -> None:
        self.shape = (n, k)
        self.dtype = block_dtype
        self.X: Optional[FloatArray] = None
        self.istop = np.zeros(k, dtype=np.int64)
        self.itn = np.zeros(k, dtype=np.int64)
        self.r1norm = np.zeros(k)
        self.r2norm = np.zeros(k)
        self.anorm = np.zeros(k)
        self.acond = np.zeros(k)
        self.arnorm = np.zeros(k)
        self.xnorm = np.zeros(k)
        self.histories: List[List[float]] = [[] for _ in range(k)]

    def freeze(
        self,
        active: FloatArray,
        local_idx: FloatArray,
        state: _ColumnState,
        Xa: Optional[FloatArray],
        istop,
        itn: int,
        last: bool = False,
    ) -> None:
        """Record final state for the active columns at ``local_idx``.

        ``last`` says the solver will not touch ``Xa`` again, so a
        freeze of every column at once adopts it as ``X``.
        """
        if local_idx.size == 0:
            return
        cols = active[local_idx]
        if Xa is not None:
            if self.X is None and last and cols.size == self.shape[1]:
                self.X = Xa
            else:
                if self.X is None:
                    # Once per solve, at the first partial freeze.
                    X = np.zeros_like(Xa, shape=self.shape)  # repro: noqa-RPR011
                    self.X = X
                self.X[:, cols] = Xa[:, local_idx]
        self.istop[cols] = istop
        self.itn[cols] = itn
        self.r1norm[cols] = state.r1norm[local_idx]
        self.r2norm[cols] = state.r2norm[local_idx]
        self.anorm[cols] = state.anorm[local_idx]
        self.acond[cols] = state.acond[local_idx]
        self.arnorm[cols] = state.arnorm[local_idx]
        self.xnorm[cols] = state.xnorm[local_idx]

    def result(self) -> BlockLSQRResult:
        X = self.X
        if X is None:
            # Every column froze before iterating: x = 0.
            X = np.zeros(self.shape, dtype=self.dtype)
        return BlockLSQRResult(
            X=X,
            istop=self.istop,
            itn=self.itn,
            r1norm=self.r1norm,
            r2norm=self.r2norm,
            anorm=self.anorm,
            acond=self.acond,
            arnorm=self.arnorm,
            xnorm=self.xnorm,
            residual_history=self.histories,
        )


class _LiveBasis:
    """Golub–Kahan bidiagonalization of ``(op, B)``, run step by step.

    The module's one start and one step: :func:`block_lsqr` iterates on
    it directly and :class:`SharedBidiagonalization` records it.  ``V``
    is the current basis block, replaced (never written) by each step,
    so a recorded block stays intact.  :meth:`take` compacts frozen
    columns out of ``U``/``V``, so later block products only pay for
    the columns still iterating.
    """

    def __init__(self, op: LinearOperator, B: FloatArray) -> None:
        self.op = op
        self.B = B
        #: Float64 panel scratch for the norms and updates of a solve.
        self.scratch = panel_scratch(max(op.shape), B.shape[1])

    def start(self) -> Tuple[FloatArray, FloatArray]:
        """``β₀u = B``, ``α₀v = Aᵀu``; returns ``(β₀, α₀)``.

        A zero column of ``B`` gets ``v = 0`` and ``α₀ = 0``, as if its
        adjoint product were skipped.  With
        no columns no product runs, and ``V`` takes ``B``'s value dtype.
        """
        U = np.array(self.B, copy=True)
        beta0 = column_norms(U, self.scratch)
        pos0 = beta0 > 0
        np.divide(U, beta0[None, :], out=U, where=pos0[None, :])
        if U.shape[1]:
            V = self.op.rmatmat(U)
        else:
            V = np.zeros((self.op.shape[1], 0), dtype=U.dtype)
        if not pos0.all():
            V[:, ~pos0] = 0.0
        alfa0 = column_norms(V, self.scratch)
        alfa0[~pos0] = 0.0
        np.divide(V, alfa0[None, :], out=V, where=(alfa0 > 0)[None, :])
        self.U, self.V = U, V
        return beta0, alfa0

    def step(self, itn: int, alfa: FloatArray) -> Tuple[FloatArray, FloatArray]:
        """``βu = Av − αu``, ``αv = Aᵀu − βv``; returns ``(β, α)``.

        Two block products for all columns, each updated in the block
        it returned: ``Av`` becomes the next ``u`` and ``Aᵀu`` the next
        ``v``.  The previous ``u`` is held until ``Av`` exists, so the
        allocator reuses its pages instead of faulting in new ones every
        step.  A column with ``β = 0`` keeps its previous ``v`` and
        ``α`` (Paige & Saunders' rule).
        """
        V = self.V
        U = self.op.matmat(V)
        scratch = self.scratch
        beta = np.sqrt(kernels.block_add_sumsq(U, self.U, -alfa, scratch))
        self.U = U
        bpos = beta > 0
        kernels.block_divide(U, beta, bpos)
        AtU = self.op.rmatmat(U)
        alfa_new = np.sqrt(kernels.block_add_sumsq(AtU, V, -beta, scratch))
        kernels.block_divide(AtU, alfa_new, bpos & (alfa_new > 0))
        if bpos.all():
            self.V = AtU
            return beta, alfa_new
        cols = np.flatnonzero(bpos)
        self.V = V.copy(order="K")
        self.V[:, cols] = AtU[:, cols]
        return beta, np.where(bpos, alfa_new, alfa)

    def take(self, keep: IntArray) -> None:
        self.U = self.U[:, keep]
        self.V = self.V[:, keep]


class _RecordedBasis:
    """Basis source that replays recorded steps for the active columns.

    ``steps[0]`` is the start ``(β₀, α₀, V₀)``.  :meth:`take` narrows
    the active columns that each step, and ``V``, is sliced to.
    """

    def __init__(
        self, steps: List[Tuple[FloatArray, FloatArray, FloatArray]]
    ) -> None:
        self.steps = steps
        self.itn = 0
        self.active = np.arange(steps[0][0].size)
        n, k = steps[0][2].shape
        self.scratch = panel_scratch(n, k)

    @property
    def V(self) -> FloatArray:
        V = self.steps[self.itn][2]
        if self.active.size == V.shape[1]:
            return V
        return V[:, self.active]

    def start(self) -> Tuple[FloatArray, FloatArray]:
        return self.step(0, self.steps[0][1])

    def step(self, itn: int, alfa: FloatArray) -> Tuple[FloatArray, FloatArray]:
        # Only a live step needs the previous alfa; a replay reads its own.
        self.itn = itn
        beta, alfa, _ = self.steps[itn]
        return beta[self.active], alfa[self.active]

    def take(self, keep: IntArray) -> None:
        self.active = self.active[keep]


@_masked_errstate
def _iterate(
    basis: Union[_LiveBasis, _RecordedBasis],
    block_dtype: np.dtype,
    solver: str,
    damp: float,
    atol: float,
    btol: float,
    conlim: float,
    iter_lim: int,
    record_history: bool,
    on_iteration: Optional[IterationHook],
) -> BlockLSQRResult:
    """The damped LSQR QR iteration over a Golub–Kahan basis source.

    ``basis.start()`` and ``basis.step(itn, α)`` return ``(β, α)`` for
    the active columns, with the matching block in ``basis.V``;
    ``basis.take(keep)`` follows every compaction, and
    ``basis.scratch`` is the float64 panel scratch the basis and this
    loop share.  The rest — the istop-8 pre-freeze, the rotations, the
    ``W``/``X`` updates, the stopping tests, events and freezing — is
    the same for a live solve and a replay.  ``X`` and the step sizes
    take ``block_dtype``.
    """
    beta0, alfa = basis.start()
    k = beta0.size
    n = basis.V.shape[0]
    out = _Outputs(n, k, block_dtype)

    dampsq = damp * damp
    ctol = 1.0 / conlim if conlim > 0 else 0.0

    state = _ColumnState(alfa, beta0, dampsq)
    active = np.arange(k)

    # b in the null space of Aᵀ (or b == 0): x = 0 is already optimal.
    frozen0 = (alfa * beta0) == 0.0
    if frozen0.any():
        out.freeze(active, np.flatnonzero(frozen0), state, None, 0, 0)
        keep = np.flatnonzero(~frozen0)
        active = active[keep]
        alfa = alfa[keep]
        state.take(keep)
        basis.take(keep)

    W = basis.V.copy(order="K")
    Xa = np.zeros_like(W, dtype=block_dtype)

    itn = 0
    while active.size and itn < iter_lim:
        itn += 1
        beta, alfa_next = basis.step(itn, alfa)

        bad_beta = ~np.isfinite(beta)
        if bad_beta.any():
            # Frozen before any state update: x and diagnostics hold the
            # last finite iterate.
            out.freeze(active, np.flatnonzero(bad_beta), state, Xa, 8, itn)

        bpos = beta > 0
        state.anorm = np.sqrt(
            state.anorm**2
            + alfa**2
            + np.where(bpos, beta, 0.0) ** 2
            + dampsq
        )
        alfa = alfa_next
        bad_alfa = bpos & ~np.isfinite(alfa)
        if bad_alfa.any():
            # Frozen after the anorm update but before the rotation;
            # state.anorm is already updated above.
            out.freeze(active, np.flatnonzero(bad_alfa), state, Xa, 8, itn)
        pre_frozen = bad_beta | bad_alfa

        t1, t2 = state.rotation(alfa, beta, damp)
        wnorm_sq = kernels.block_advance(
            W,
            Xa,
            basis.V,
            t1.astype(block_dtype, copy=False),
            t2.astype(block_dtype, copy=False),
            basis.scratch,
        )
        state.diagnostics(alfa, wnorm_sq)

        if record_history:
            for local_j in np.flatnonzero(~pre_frozen):
                out.histories[active[local_j]].append(
                    float(state.r2norm[local_j])
                )

        istop_iter = _post_step_istop(state, itn, iter_lim, atol, btol, ctol)
        istop_iter[pre_frozen] = 8
        if on_iteration is not None:
            # One event per block iteration, before compaction, so the
            # firing count equals the max per-column itn and `active`
            # names the original columns that iterated this step.
            on_iteration(_block_event(solver, itn, state, istop_iter, active))
        newly = (istop_iter != 0) & ~pre_frozen
        if newly.any():
            idx = np.flatnonzero(newly)
            out.freeze(active, idx, state, Xa, istop_iter[idx], itn, last=True)

        stopped = istop_iter != 0
        if stopped.any():
            keep = np.flatnonzero(~stopped)
            active = active[keep]
            if not active.size:
                break
            basis.take(keep)
            W = W[:, keep]
            Xa = Xa[:, keep]
            alfa = alfa[keep]
            state.take(keep)

    if active.size:
        # Only reachable with iter_lim == 0: report the initial state.
        out.freeze(active, np.arange(active.size), state, Xa, 0, itn, last=True)

    return out.result()


def _solve_block(
    op: LinearOperator,
    B: FloatArray,
    damp: float,
    atol: float,
    btol: float,
    conlim: float,
    iter_lim: int,
    record_history: bool,
    on_iteration: Optional[IterationHook] = None,
) -> BlockLSQRResult:
    """Cold-start live solve (X0 handling lives in the wrapper)."""
    return _iterate(
        _LiveBasis(op, B), B.dtype, "block_lsqr", damp, atol, btol, conlim,
        iter_lim, record_history, on_iteration,
    )


@_pinned_backend
def block_lsqr(
    A: "MatrixLike",
    B: FloatArray,
    damp: float = 0.0,
    atol: float = 1e-8,
    btol: float = 1e-8,
    conlim: float = 1e8,
    iter_lim: Optional[int] = None,
    X0: Optional[FloatArray] = None,
    record_history: bool = False,
    on_iteration: Optional[IterationHook] = None,
    precondition: Optional["SketchPreconditioner"] = None,
) -> BlockLSQRResult:
    """Solve ``min_X ‖A X - B‖² + damp²‖X‖²`` for all columns at once.

    Complexity: O(iters·c·(nnz + m + n)) for ``c`` right-hand-side
    columns — each Golub–Kahan step is one ``matmat`` plus one
    ``rmatmat`` (``2·nnz·c`` flam) and a handful of length-``m``/``n``
    vector updates per column.

    Parameters
    ----------
    A:
        Dense array, sparse matrix, or :class:`LinearOperator` of shape
        ``(m, n)``.
    B:
        Right-hand sides, ``(m, k)``; a 1-D ``b`` is one column.
    damp:
        Tikhonov damping √α; ``damp > 0`` gives exactly the ridge
        solution SRDA needs.
    atol, btol:
        Relative stopping tolerances (see Paige & Saunders §6).
    conlim:
        Stop a column when its condition estimate exceeds this.
    iter_lim:
        Hard iteration cap; defaults to ``2 n``.  SRDA uses small fixed
        values (15–20) per the paper.
    X0:
        Optional warm start, ``(n, k)`` (1-D for one column); the
        iteration solves for the correction ``X - X0``.
    record_history:
        Keep each column's ``r2norm`` per iteration.

    Each column follows its own arithmetic and stopping rules; the
    operator is applied once per iteration via ``matmat``/``rmatmat``
    for all columns still running.

    ``precondition`` (from
    :func:`repro.linalg.sketch.build_preconditioner`) runs the block
    iteration on the right-preconditioned system ``A R⁻¹`` — damping
    and warm starts are folded into an explicit augmented system (the
    internal damp would penalize ``‖R X‖``, not ``‖X‖``) and solutions
    are mapped back through ``R⁻¹``.  ``r1norm``/``r2norm``/``xnorm``
    are recomputed against the original system; ``anorm``/``acond``/
    ``arnorm`` and the histories describe the preconditioned system.

    ``on_iteration`` fires once per *block* iteration (not per column)
    with the still-active column indices; the firing count equals
    ``int(result.itn.max())``.

    Returns a :class:`BlockLSQRResult`; ``result.column(j)`` recovers
    column ``j`` as an :class:`LSQRResult`.
    """
    op = as_operator(A)
    m, n = op.shape
    B = as_value_dtype(B)
    if B.ndim == 1:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != m:
        raise ValueError(
            f"B must have shape ({m}, k), got {np.shape(B)}"
        )
    k = B.shape[1]
    if damp < 0:
        raise ValueError("damp must be non-negative")
    if iter_lim is None:
        iter_lim = 2 * n
    if iter_lim < 0:
        raise ValueError("iter_lim must be non-negative")
    if precondition is not None and precondition.n != n:
        raise ValueError(
            f"preconditioner dimension {precondition.n} does not "
            f"match operator column count {n}"
        )
    if X0 is not None:
        X0 = as_value_dtype(X0)
        if X0.ndim == 1:
            X0 = X0[:, None]
        if X0.shape != (n, k):
            raise ValueError(
                f"X0 must have shape ({n}, {k}), got {X0.shape}"
            )
    rhs = B if X0 is None else B - op.matmat(X0)

    if precondition is None and (X0 is None or damp == 0):
        result = _solve_block(
            op, as_value_dtype(rhs), damp, atol, btol, conlim, iter_lim,
            record_history, on_iteration,
        )
        if X0 is not None:
            result.X += X0
            result.xnorm = column_norms(result.X)
        return result

    # Augmented system, solved undamped for the correction D = X − X0:
    #   [A; damp·I] D ≈ [B − A·X0; −damp·X0]
    # The internal damp cannot serve here: it would penalize ‖D‖ rather
    # than ‖X0 + D‖, and ‖R D‖ rather than ‖D‖ under a right
    # preconditioner.  One stacked operator serves every column because
    # damp is shared.
    system: LinearOperator = op
    if damp > 0:
        system = StackedOperator(
            op, IdentityOperator(n, scale=damp, dtype=op.dtype)
        )
        rhs = np.concatenate(
            [rhs, np.zeros((n, k), rhs.dtype) if X0 is None else -damp * X0],
            axis=0,
        )
    if precondition is not None:
        system = precondition.wrap(system)
    inner = _solve_block(
        system, as_value_dtype(rhs), 0.0, atol, btol, conlim, iter_lim,
        record_history, on_iteration,
    )
    X = inner.X
    if precondition is not None:
        X = np.asarray(precondition.apply(X)).astype(X.dtype, copy=False)
    if X0 is not None:
        X = X + X0
    r1norm = column_norms(B - op.matmat(X))
    xnorm = column_norms(X)
    return BlockLSQRResult(
        X=X,
        istop=inner.istop,
        itn=inner.itn,
        r1norm=r1norm,
        r2norm=np.sqrt(r1norm**2 + (damp * xnorm) ** 2),
        anorm=inner.anorm,
        acond=inner.acond,
        arnorm=inner.arnorm,
        xnorm=xnorm,
        residual_history=inner.residual_history,
    )


class SharedBidiagonalization:
    """Golub–Kahan basis of ``(A, B)``, recorded once, re-solved per damp.

    The bidiagonalization ``A V_i = U_{i+1} B_i`` started from ``B``
    does not involve the damping parameter — LSQR folds ``damp`` into
    the scalar QR rotations only.  Recording the basis therefore costs
    one pass of ``2·iter_lim + 1`` block products, after which
    :meth:`solve` produces the full per-column result for *any* alpha
    with zero additional operator work: exactly what a grid sweep needs.

    Memory: ``depth`` stored ``(n, k)`` blocks.  For SRDA's ``k = c-1``
    and the paper's 15–20 iteration protocol this is a few dozen dense
    vectors per class — far cheaper than re-running the solver per
    alpha.

    Parameters
    ----------
    A:
        Dense array, :class:`~repro.linalg.sparse.CSRMatrix`, or
        :class:`~repro.linalg.operators.LinearOperator`.
    B:
        Right-hand-side block ``(m, k)`` (1-D accepted as one column).
    iter_lim:
        Bidiagonalization depth to record; :meth:`solve` can stop any
        column earlier but never iterate past this.
    """

    @_pinned_backend
    @_masked_errstate
    def __init__(
        self, A: MatrixLike, B: FloatArray, iter_lim: int
    ) -> None:
        op = as_operator(A)
        m, n = op.shape
        B = as_value_dtype(B)
        if B.ndim == 1:
            B = B[:, None]
        if B.ndim != 2 or B.shape[0] != m:
            raise ValueError(
                f"B must have shape ({m}, k), got {np.shape(B)}"
            )
        if iter_lim < 0:
            raise ValueError("iter_lim must be non-negative")
        self.operator = op
        self.shape = (m, n)

        self._dtype = B.dtype
        live = _LiveBasis(op, B)
        beta, alfa = live.start()
        self._steps = [(beta, alfa, live.V)]
        for itn in range(1, iter_lim + 1):
            beta, alfa = live.step(itn, alfa)
            self._steps.append((beta, alfa, live.V))
            if not np.any(np.isfinite(beta)):
                # Every column has diverged; deeper recording is waste.
                break

    @property
    def n_columns(self) -> int:
        return int(self._steps[0][0].size)

    @property
    def depth(self) -> int:
        """Recorded bidiagonalization steps (max replay iterations)."""
        return len(self._steps) - 1

    @_pinned_backend
    def solve(
        self,
        damp: float = 0.0,
        atol: float = 1e-8,
        btol: float = 1e-8,
        conlim: float = 1e8,
        iter_lim: Optional[int] = None,
        record_history: bool = False,
        on_iteration: Optional[IterationHook] = None,
    ) -> BlockLSQRResult:
        """Replay the recorded basis under a damping value.

        Produces the same result as ``block_lsqr(A, B, damp=damp,
        iter_lim=depth)`` — per-column istop codes, stagnation checks
        and all — without touching the operator.  Cost per call is
        ``O(depth · n · k)`` axpy work.
        """
        if damp < 0:
            raise ValueError("damp must be non-negative")
        eff_lim = self.depth if iter_lim is None else iter_lim
        if eff_lim < 0:
            raise ValueError("iter_lim must be non-negative")
        if eff_lim > self.depth:
            raise ValueError(
                f"iter_lim {eff_lim} exceeds recorded depth {self.depth}"
            )
        return _iterate(
            _RecordedBasis(self._steps), self._dtype,
            "shared_bidiagonalization", damp, atol, btol, conlim, eff_lim,
            record_history, on_iteration,
        )
