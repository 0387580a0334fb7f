"""Linear-algebra substrates used by SRDA and the LDA baselines.

Everything numerically interesting in the paper is built from a small set
of kernels, each implemented here on top of numpy primitives (the
Cholesky factor and triangular solves call LAPACK through scipy):

- :mod:`repro.linalg.sparse` — a minimal CSR matrix (the sparse substrate
  that lets SRDA exploit text-like data).
- :mod:`repro.linalg.operators` — matrix-free linear operators, including
  the implicit-centering and append-ones tricks from the paper.
- :mod:`repro.linalg.gram_schmidt` — modified Gram–Schmidt, used for the
  response-generation step (Eqn 15/16).
- :mod:`repro.linalg.cholesky` — LAPACK Cholesky factorization and
  triangular solves behind the positive-definiteness checks the
  normal-equations solver (Eqn 20/21) relies on.
- :mod:`repro.linalg.block_lsqr` — the Paige–Saunders LSQR iteration,
  the linear-time solver of the paper's title, run blocked: all ``c-1``
  SRDA systems share one Golub–Kahan iteration (a 1-D right-hand side
  is a block of one), plus the bidiagonalize-once alpha-sweep engine.
- :mod:`repro.linalg.svd` — the cross-product SVD trick from Section II-B.
- :mod:`repro.linalg.dense` — small dense helpers shared by the baselines,
  and ``dense_matmul``, the one GEMM orientation rule for every dense
  tall×thin product.
- :mod:`repro.linalg.sketch` — the CountSketch operator and the
  sketch-and-precondition path that cuts LSQR iteration counts on
  ill-conditioned data.
- :mod:`repro.linalg.kernels` — the CSR kernel dispatcher: pure-numpy
  reference vs the GIL-free compiled backend, bitwise-interchangeable.
"""

from repro.linalg.block_lsqr import (
    FAILURE_ISTOPS,
    ISTOP_REASONS,
    BlockLSQRResult,
    LSQRResult,
    SharedBidiagonalization,
    block_lsqr,
)
from repro.linalg.cholesky import cholesky, solve_cholesky, solve_triangular
from repro.linalg.coordinate_descent import ElasticNetResult, elastic_net
from repro.linalg.dense import solve_lstsq, symmetric_eigh
from repro.linalg.gram_schmidt import orthogonalize_against, orthonormalize
from repro.linalg.kernels import (
    KERNEL_BACKEND_ENV,
    KERNEL_BACKENDS,
    active_backend,
    compiled_available,
    use_backend,
)
from repro.linalg.operators import (
    AppendOnesOperator,
    CenteringOperator,
    CSROperator,
    DenseOperator,
    FaultyOperator,
    InjectedFaultError,
    LinearOperator,
    TransposedOperator,
    as_operator,
)
from repro.linalg.sketch import (
    CountSketchOperator,
    PreconditionedOperator,
    SketchPreconditioner,
    SketchingError,
    build_preconditioner,
    default_sketch_size,
    preconditioner_from_gram,
    sketch_apply,
    sketch_gram,
)
from repro.linalg.sparse import CSRMatrix
from repro.linalg.svd import cross_product_svd

__all__ = [
    "AppendOnesOperator",
    "BlockLSQRResult",
    "CSRMatrix",
    "CSROperator",
    "CenteringOperator",
    "CountSketchOperator",
    "DenseOperator",
    "ElasticNetResult",
    "FAILURE_ISTOPS",
    "FaultyOperator",
    "ISTOP_REASONS",
    "InjectedFaultError",
    "KERNEL_BACKENDS",
    "KERNEL_BACKEND_ENV",
    "LSQRResult",
    "LinearOperator",
    "PreconditionedOperator",
    "SharedBidiagonalization",
    "SketchPreconditioner",
    "SketchingError",
    "TransposedOperator",
    "active_backend",
    "as_operator",
    "block_lsqr",
    "build_preconditioner",
    "cholesky",
    "compiled_available",
    "cross_product_svd",
    "default_sketch_size",
    "elastic_net",
    "orthogonalize_against",
    "orthonormalize",
    "preconditioner_from_gram",
    "sketch_apply",
    "sketch_gram",
    "solve_cholesky",
    "solve_lstsq",
    "solve_triangular",
    "symmetric_eigh",
    "use_backend",
]
