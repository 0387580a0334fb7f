"""The probe registry: each ``Complexity:`` claim's runnable witness.

A :class:`ProbeSpec` names a kernel (module + qualname whose docstring
carries the claim), declares how the claim's variables grow with the
probe's single size parameter (the *couplings*), and knows how to build
a ready-to-time thunk at any size.  The harness sweeps each probe over
a geometric size ladder and compares the fitted log–log slope against
the claim's exponent under those couplings.

Every builder uses a seeded :class:`numpy.random.Generator` and does
its setup *outside* the timed thunk, so one-time costs of a different
complexity class (the CSR transpose build, sketch-operator draws,
response orthogonalization inputs) never pollute the slope.  Kernel
modules are imported lazily inside the builders: the registry itself is
imported by the lint CLI, which must stay import-light.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.complexity.grammar import (
    ComplexityClaim,
    claim_from_docstring,
)

__all__ = [
    "PROBES",
    "ProbeSpec",
    "claim_for",
    "register_probe",
    "resolve_target",
]

#: Geometric size ladders.  "smoke" is the CI tier (seconds); "full" is
#: what regenerates the checked-in baseline.  O(nnz) kernels get longer
#: ladders than whole-solver probes, whose constants are ~100× larger.
_KERNEL_SIZES: Mapping[str, Tuple[int, ...]] = {
    "smoke": (2_000, 4_000, 8_000, 16_000),
    "full": (8_000, 16_000, 32_000, 64_000, 128_000, 256_000),
}
_SOLVER_SIZES: Mapping[str, Tuple[int, ...]] = {
    "smoke": (1_500, 3_000, 6_000, 12_000),
    "full": (4_000, 8_000, 16_000, 32_000, 64_000),
}

#: Fixed non-size dimensions shared by the builders.  ``_N_COLS`` stays
#: well above ``_ROW_NNZ`` so column collisions stay rare and the CSR
#: problems keep every claim variable except {m, nnz} constant.
_N_COLS = 256
_ROW_NNZ = 8
_N_CLASSES = 6
_BLOCK_COLS = 5
_ITERATIONS = 8
_SKETCH_ROWS = 64
_SKETCH_BUILD_COLS = 32

Thunk = Callable[[], object]
Builder = Callable[[int, np.random.Generator], Thunk]


@dataclass(frozen=True)
class ProbeSpec:
    """One registered claim-to-measurement binding.

    ``module``/``qualname`` locate the object whose docstring carries
    the checked claim (``qualname`` may be dotted for methods).
    ``couplings`` maps claim variables to their growth rate in the
    probe's size parameter; variables absent from the mapping are held
    constant by the builder and treated as constants by the claim's
    exponent evaluation.

    ``measure`` selects the cost metric: ``"wall"`` (best-of-repeats
    seconds via ``measure_seconds``) or ``"flam"`` — the thunk returns
    the operation *count* for one invocation (a
    :class:`~repro.complexity.counter.FlamCountingOperator` total).
    Flam counts are deterministic, so flam probes can carry a much
    tighter per-probe ``tolerance`` than the wall-clock default; a
    ``tolerance`` of ``None`` uses the harness-wide band.
    """

    name: str
    module: str
    qualname: str
    couplings: Mapping[str, float]
    build: Builder
    sizes: Mapping[str, Tuple[int, ...]] = field(
        default_factory=lambda: _KERNEL_SIZES
    )
    note: str = ""
    measure: str = "wall"
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        if self.measure not in ("wall", "flam"):
            raise ValueError(
                f"probe {self.name!r}: measure must be 'wall' or 'flam', "
                f"got {self.measure!r}"
            )

    def sizes_for(self, scale: str) -> Tuple[int, ...]:
        try:
            return self.sizes[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of "
                f"{sorted(self.sizes)}"
            ) from None


PROBES: Dict[str, ProbeSpec] = {}


def register_probe(spec: ProbeSpec) -> ProbeSpec:
    if spec.name in PROBES:
        raise ValueError(f"duplicate probe name {spec.name!r}")
    PROBES[spec.name] = spec
    return spec


def resolve_target(spec: ProbeSpec) -> Any:
    """Import and return the object carrying the probe's claim."""
    target: Any = importlib.import_module(spec.module)
    for part in spec.qualname.split("."):
        target = getattr(target, part)
    return target


def claim_for(spec: ProbeSpec) -> ComplexityClaim:
    """The parsed claim on the probe's target docstring.

    Raises :class:`ValueError` when the target carries no claim — a
    registered probe without a claim is a wiring bug, reported loudly
    rather than skipped.
    """
    target = resolve_target(spec)
    doc = target.__doc__
    if isinstance(target, property):  # claim lives on the getter
        doc = target.fget.__doc__ if target.fget else None
    claim = claim_from_docstring(doc)
    if claim is None:
        raise ValueError(
            f"probe {spec.name!r} targets {spec.module}:{spec.qualname} "
            "which has no Complexity: O(...) claim in its docstring"
        )
    return claim


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def _csr_problem(
    m: int, rng: np.random.Generator, n_cols: int = _N_COLS
) -> Any:
    """A ``(m, n_cols)`` CSR matrix with exactly 8 stored entries per row.

    ``nnz = 8·m`` by construction, so scaling ``m`` scales ``nnz``
    linearly — the coupling every O(nnz) probe declares.
    """
    from repro.linalg.sparse import CSRMatrix

    nnz = m * _ROW_NNZ
    data = rng.standard_normal(nnz)
    indices = rng.integers(0, n_cols, size=nnz, dtype=np.int64)
    indptr = np.arange(m + 1, dtype=np.int64) * _ROW_NNZ
    return CSRMatrix(data, indices, indptr, (m, n_cols))


def _labels(m: int, rng: np.random.Generator) -> np.ndarray:
    """Length-``m`` labels over ``_N_CLASSES`` classes, all non-empty."""
    y = rng.integers(0, _N_CLASSES, size=m, dtype=np.int64)
    y[:_N_CLASSES] = np.arange(_N_CLASSES)
    return y


def _build_csr_matvec(m: int, rng: np.random.Generator) -> Thunk:
    A = _csr_problem(m, rng)
    x = rng.standard_normal(_N_COLS)
    return lambda: A.matvec(x)


def _build_csr_rmatvec(m: int, rng: np.random.Generator) -> Thunk:
    A = _csr_problem(m, rng)
    u = rng.standard_normal(m)
    A.rmatvec(u)  # warm the cached transpose outside the timed region
    return lambda: A.rmatvec(u)


def _build_csr_matmat(m: int, rng: np.random.Generator) -> Thunk:
    A = _csr_problem(m, rng)
    B = rng.standard_normal((_N_COLS, _BLOCK_COLS))
    return lambda: A.matmat(B)


def _flam_builder(kernel: str) -> Builder:
    """Noise-free probes: count flam charged per product, not seconds.

    A :class:`~repro.complexity.counter.FlamCountingOperator` charges
    exactly ``nnz`` per mat-vec (``nnz·c`` per block), so the fitted
    slope is the cost *model's* exponent with zero measurement noise —
    which is what lets these probes carry a 0.05 tolerance where
    wall-clock probes need 0.45.
    """

    def build(m: int, rng: np.random.Generator) -> Thunk:
        from repro.complexity.counter import FlamCountingOperator
        from repro.linalg.operators import CSROperator

        op = FlamCountingOperator(CSROperator(_csr_problem(m, rng)))
        if kernel == "matvec":
            x = rng.standard_normal(_N_COLS)
            operand: Any = x
            product: Callable[[], object] = lambda: op.matvec(operand)
        elif kernel == "rmatvec":
            operand = rng.standard_normal(m)
            product = lambda: op.rmatvec(operand)
        else:
            operand = rng.standard_normal((_N_COLS, _BLOCK_COLS))
            product = lambda: op.matmat(operand)

        def thunk() -> object:
            op.reset()
            product()
            return op.flam

        return thunk

    return build


def _kernel_dispatch_builder(kernel: str) -> Builder:
    """Wall probes for the kernel-dispatch layer's resolved backend.

    Measures whichever backend :func:`repro.linalg.kernels
    .active_backend` resolves to — the compiled C kernels when the
    extension is built, the numpy reference otherwise.  Both are
    O(nnz), so the claim holds either way; the baseline records the
    constant of whichever backend regenerated it.
    """

    def build(m: int, rng: np.random.Generator) -> Thunk:
        from repro.linalg import kernels

        A = _csr_problem(m, rng)
        # a 1-D operand is the mat-vec: the width-1 block product
        if kernel == "matvec":
            x = rng.standard_normal(_N_COLS)
            kernels.csr_matmat(A, x)  # warm the segment caches
            return lambda: kernels.csr_matmat(A, x)
        if kernel == "rmatvec":
            u = rng.standard_normal(m)
            kernels.csr_rmatmat(A, u)  # warm the cached transpose
            return lambda: kernels.csr_rmatmat(A, u)
        B = rng.standard_normal((_N_COLS, _BLOCK_COLS))
        kernels.csr_matmat(A, B)
        return lambda: kernels.csr_matmat(A, B)

    return build


def _build_sketch_apply(m: int, rng: np.random.Generator) -> Thunk:
    from repro.linalg.sketch import CountSketchOperator, sketch_apply

    A = _csr_problem(m, rng)
    S = CountSketchOperator(m, _SKETCH_ROWS, seed=int(rng.integers(1 << 31)))
    sketch_apply(S, A)  # warm any lazy caches outside the timed region
    return lambda: sketch_apply(S, A)


def _build_sketch_preconditioner(m: int, rng: np.random.Generator) -> Thunk:
    from repro.linalg.sketch import build_preconditioner

    # Few columns keep the s·n² Gram and n³ Cholesky terms small next
    # to the O(nnz) sketch pass whose growth the probe measures.
    A = _csr_problem(m, rng, n_cols=_SKETCH_BUILD_COLS)
    seed = int(rng.integers(1 << 31))
    # warm the lazy LAPACK import outside the timed region
    build_preconditioner(A, alpha=1.0, sketch_size=_SKETCH_ROWS, seed=seed)
    return lambda: build_preconditioner(
        A, alpha=1.0, sketch_size=_SKETCH_ROWS, seed=seed
    )


def _build_responses(m: int, rng: np.random.Generator) -> Thunk:
    from repro.core.responses import generate_responses

    y = _labels(m, rng)
    return lambda: generate_responses(y, _N_CLASSES)


def _build_orthonormalize(m: int, rng: np.random.Generator) -> Thunk:
    from repro.linalg.gram_schmidt import orthonormalize

    V = rng.standard_normal((m, _N_CLASSES))
    return lambda: orthonormalize(V)


def _build_lsqr(m: int, rng: np.random.Generator) -> Thunk:
    from repro.linalg.block_lsqr import block_lsqr

    A = _csr_problem(m, rng)
    b = rng.standard_normal(m)
    A.rmatvec(b)  # warm the cached transpose
    return lambda: block_lsqr(
        A, b, atol=0.0, btol=0.0, conlim=0.0, iter_lim=_ITERATIONS
    )


def _build_block_lsqr(m: int, rng: np.random.Generator) -> Thunk:
    from repro.linalg.block_lsqr import block_lsqr

    A = _csr_problem(m, rng)
    B = rng.standard_normal((m, _BLOCK_COLS))
    A.rmatvec(B[:, 0])
    return lambda: block_lsqr(
        A, B, atol=0.0, btol=0.0, conlim=0.0, iter_lim=_ITERATIONS
    )


def _build_sharded_matvec(m: int, rng: np.random.Generator) -> Thunk:
    from repro.parallel.sharded import ShardedOperator

    A = _csr_problem(m, rng)
    op = ShardedOperator(A, n_shards=4, backend="serial")
    x = rng.standard_normal(_N_COLS)
    # warm each block's row-id cache; the adjoint blocks (row slices
    # of the one cached transpose) were built with the operator
    op.matvec(x)
    return lambda: op.matvec(x)


def _build_srda_fit(m: int, rng: np.random.Generator) -> Thunk:
    from repro.core.srda import SRDA
    from repro.core.solver_config import SolverConfig

    A = _csr_problem(m, rng)
    y = _labels(m, rng)
    A.rmatvec(np.ones(m))  # transpose build is a one-time cost

    def fit() -> object:
        # tol=0 disables early convergence exit, so every size pays
        # exactly max_iter block iterations and the slope measures the
        # per-iteration cost the paper's claim is about.
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=6, tol=0.0
        )
        return model.fit(A, y)

    return fit


def _build_srda_partial_fit(m: int, rng: np.random.Generator) -> Thunk:
    from repro.core.srda import SRDA
    from repro.core.solver_config import SolverConfig

    # Two batches of m rows each: the thunk pays one cold batch and one
    # warm-started batch over the 2m-row accumulated stream, so the
    # slope measures the incremental path's per-row cost (solve over
    # accumulated rows + table lookup; the O(c^2) closed-form
    # count-space table is size-independent).  A fresh model per call keeps
    # the thunk re-runnable at constant cost.
    A = _csr_problem(m, rng)
    y_a = _labels(m, rng)
    B = _csr_problem(m, rng)
    y_b = _labels(m, rng)

    def fit() -> object:
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=6, tol=0.0
        )
        model.partial_fit(A, y_a)
        return model.partial_fit(B, y_b)

    return fit


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
register_probe(
    ProbeSpec(
        name="csr_matvec",
        module="repro.linalg.sparse",
        qualname="CSRMatrix.matvec",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_build_csr_matvec,
        note="forward product, 8 stored entries per row",
    )
)
register_probe(
    ProbeSpec(
        name="csr_rmatvec",
        module="repro.linalg.sparse",
        qualname="CSRMatrix.rmatvec",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_build_csr_rmatvec,
        note="adjoint product with the transpose cache pre-built",
    )
)
register_probe(
    ProbeSpec(
        name="csr_matmat",
        module="repro.linalg.sparse",
        qualname="CSRMatrix.matmat",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_build_csr_matmat,
        note="5-column block product; c held constant",
    )
)
register_probe(
    ProbeSpec(
        name="countsketch_apply",
        module="repro.linalg.sketch",
        qualname="sketch_apply",
        couplings={"nnz": 1.0},
        build=_build_sketch_apply,
        note="CountSketch CSR fast path, 64 sketch rows held constant",
    )
)
register_probe(
    ProbeSpec(
        name="sketch_preconditioner_build",
        module="repro.linalg.sketch",
        qualname="build_preconditioner",
        couplings={"nnz": 1.0},
        build=_build_sketch_preconditioner,
        note=(
            "sketch draw, CSR sketch, Gram and Cholesky; n = 32 columns "
            "and 64 sketch rows held constant, so only the nnz term grows"
        ),
    )
)
register_probe(
    ProbeSpec(
        name="responses",
        module="repro.core.responses",
        qualname="generate_responses",
        couplings={"m": 1.0},
        build=_build_responses,
        note="6 classes held constant; closed-form table plus O(m·c) lookup",
    )
)
register_probe(
    ProbeSpec(
        name="orthonormalize",
        module="repro.linalg.gram_schmidt",
        qualname="orthonormalize",
        couplings={"m": 1.0},
        build=_build_orthonormalize,
        note="modified Gram–Schmidt over 6 columns held constant",
    )
)
register_probe(
    ProbeSpec(
        name="lsqr_solve",
        module="repro.linalg.block_lsqr",
        qualname="block_lsqr",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_build_lsqr,
        sizes=_SOLVER_SIZES,
        note="one 1-D right-hand side; 8 iterations pinned "
        "(atol=btol=conlim=0)",
    )
)
register_probe(
    ProbeSpec(
        name="block_lsqr_solve",
        module="repro.linalg.block_lsqr",
        qualname="block_lsqr",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_build_block_lsqr,
        sizes=_SOLVER_SIZES,
        note="8 iterations pinned, 5 right-hand-side columns",
    )
)
register_probe(
    ProbeSpec(
        name="sharded_matvec",
        module="repro.parallel.sharded",
        qualname="ShardedOperator",
        couplings={"nnz": 1.0},
        build=_build_sharded_matvec,
        note="4 shards on the serial backend; coordinator overhead included",
    )
)
register_probe(
    ProbeSpec(
        name="srda_fit_sparse",
        module="repro.core.srda",
        qualname="SRDA.fit",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_build_srda_fit,
        sizes=_SOLVER_SIZES,
        note="full sparse fit, 6 block iterations pinned via tol=0",
    )
)
register_probe(
    ProbeSpec(
        name="csr_matvec_flam",
        module="repro.linalg.sparse",
        qualname="CSRMatrix.matvec",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_flam_builder("matvec"),
        note="flam count, not wall time — deterministic slope",
        measure="flam",
        tolerance=0.05,
    )
)
register_probe(
    ProbeSpec(
        name="csr_rmatvec_flam",
        module="repro.linalg.sparse",
        qualname="CSRMatrix.rmatvec",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_flam_builder("rmatvec"),
        note="flam count, not wall time — deterministic slope",
        measure="flam",
        tolerance=0.05,
    )
)
register_probe(
    ProbeSpec(
        name="csr_matmat_flam",
        module="repro.linalg.sparse",
        qualname="CSRMatrix.matmat",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_flam_builder("matmat"),
        note="flam count for a 5-column block; c held constant",
        measure="flam",
        tolerance=0.05,
    )
)
register_probe(
    ProbeSpec(
        name="kernel_dispatch_matvec",
        module="repro.linalg.kernels",
        qualname="csr_matmat",
        couplings={"nnz": 1.0},
        build=_kernel_dispatch_builder("matvec"),
        note="dispatch layer; backend resolves at run time "
        "(compiled when built, reference otherwise)",
    )
)
register_probe(
    ProbeSpec(
        name="kernel_dispatch_rmatvec",
        module="repro.linalg.kernels",
        qualname="csr_rmatmat",
        couplings={"nnz": 1.0},
        build=_kernel_dispatch_builder("rmatvec"),
        note="dispatch layer; backend resolves at run time "
        "(compiled when built, reference otherwise)",
    )
)
register_probe(
    ProbeSpec(
        name="kernel_dispatch_matmat",
        module="repro.linalg.kernels",
        qualname="csr_matmat",
        couplings={"nnz": 1.0},
        build=_kernel_dispatch_builder("matmat"),
        note="dispatch layer, 5-column block; backend resolves at "
        "run time (compiled when built, reference otherwise)",
    )
)
register_probe(
    ProbeSpec(
        name="srda_partial_fit",
        module="repro.core.srda",
        qualname="SRDA.partial_fit",
        couplings={"nnz": 1.0, "m": 1.0},
        build=_build_srda_partial_fit,
        sizes=_SOLVER_SIZES,
        note="cold batch + warm batch over 2m accumulated sparse rows, "
        "6 block iterations pinned via tol=0",
    )
)


def claimed_exponent(spec: ProbeSpec) -> float:
    """The claim's growth exponent under this probe's couplings."""
    return claim_for(spec).scaling_exponent(dict(spec.couplings))


def get_probe(name: str) -> ProbeSpec:
    try:
        return PROBES[name]
    except KeyError:
        raise ValueError(
            f"unknown probe {name!r}; registered: {sorted(PROBES)}"
        ) from None


def probe_names() -> Tuple[str, ...]:
    return tuple(sorted(PROBES))
