"""An independent one-column LSQR for the solver tests: scipy's ``lsqr``.

:func:`scipy_lsqr` runs ``scipy.sparse.linalg.lsqr`` on a scipy
``LinearOperator`` over a repro operator's ``matvec``/``rmatvec`` and
repackages the outcome as a :class:`~repro.linalg.block_lsqr.LSQRResult`,
so a test can hold repro's block LSQR against it column by column.

scipy's ``x0`` with ``damp > 0`` damps the correction ``x − x0``, not
``x``.  A damped warm start therefore runs undamped on the stacked
system ``[A; damp·I] d = [b − A·x0; −damp·x0]`` — the problem repro
solves for it — and returns ``x = x0 + d`` with ``r1norm``, ``r2norm``
and ``xnorm`` measured on the original problem.
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import lsqr as _scipy_lsqr

from repro.linalg.block_lsqr import LSQRResult
from repro.linalg.operators import as_operator


def scipy_lsqr(
    A, b, damp=0.0, atol=1e-8, btol=1e-8, conlim=1e8, iter_lim=None, x0=None
):
    """``min ‖A x − b‖² + damp²‖x‖²`` by scipy's LSQR, as an LSQRResult."""
    op = as_operator(A)
    m, n = op.shape
    b = np.asarray(b, dtype=np.float64)
    if iter_lim is None:
        iter_lim = 2 * n
    stacked = x0 is not None and damp > 0
    if stacked:
        x0 = np.asarray(x0, dtype=np.float64)
        system = LinearOperator(
            (m + n, n),
            matvec=lambda v: np.concatenate([op.matvec(v), damp * v]),
            rmatvec=lambda u: op.rmatvec(u[:m]) + damp * u[m:],
            dtype=np.float64,
        )
        rhs = np.concatenate([b - op.matvec(x0), -damp * x0])
        solve_damp, start = 0.0, None
    else:
        system = LinearOperator(
            (m, n), matvec=op.matvec, rmatvec=op.rmatvec, dtype=np.float64
        )
        rhs, solve_damp, start = b, damp, x0
    x, istop, itn, r1norm, r2norm, anorm, acond, arnorm, xnorm = _scipy_lsqr(
        system,
        rhs,
        damp=solve_damp,
        atol=atol,
        btol=btol,
        conlim=conlim,
        iter_lim=iter_lim,
        x0=start,
    )[:9]
    if x0 is not None:
        if stacked:
            x = x + x0
            r1norm = np.linalg.norm(b - op.matvec(x))
            r2norm = np.hypot(r1norm, damp * np.linalg.norm(x))
        xnorm = np.linalg.norm(x)
    return LSQRResult(
        x=x,
        istop=int(istop),
        itn=int(itn),
        r1norm=float(r1norm),
        r2norm=float(r2norm),
        anorm=float(anorm),
        acond=float(acond),
        arnorm=float(arnorm),
        xnorm=float(xnorm),
    )
