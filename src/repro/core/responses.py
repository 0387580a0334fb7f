"""Response generation — the spectral half of SRDA (Section III, step 1).

The graph matrix ``W`` of LDA (Eqn 6) is block diagonal with one rank-one
block ``(1/m_k) 1 1ᵀ`` per class, so its eigenstructure is known in closed
form: eigenvalue 1 with multiplicity ``c`` (eigenvectors = the class
indicator vectors, Eqn 15) and eigenvalue 0 elsewhere.  Because 1 is
repeated, *any* orthogonal basis of the indicator span works.  The paper
picks the basis adapted to the regression step:

1. take the all-ones vector ``e`` (which is inside the indicator span but
   orthogonal to the row space of the centered data) as the first vector;
2. Gram–Schmidt the class indicators against it;
3. discard ``e``.

The ``c - 1`` survivors ``ȳ¹ … ȳ^{c-1}`` satisfy (Eqn 16)::

    ȳᵢᵀ e = 0,     ȳᵢᵀ ȳⱼ = 0  (i ≠ j)

and each is *piecewise constant on classes* — two samples with the same
label always receive the same response value.  That is the property that
later makes same-class points collapse to one embedding point in the
exact-fit regime (Corollary 3).

The Gram–Schmidt result has a closed form in the class counts ``m_k``.
Write ``M_j = Σ_{k≥j} m_k`` for the number of samples in classes ``j``
onwards (so ``M_0 = m``).  After ``e`` and the indicators of classes
``0 … j-1`` are taken, they span the indicators of those classes plus
the indicator ``1_{≥j}`` of classes ``j`` onwards.  The indicator
``e_j`` of class ``j`` is orthogonal to the earlier indicators, so
projecting that span out of it removes only its component along
``1_{≥j}``, ``(m_j / M_j)·1_{≥j}``, and the unnormalized response is::

    ȳʲ = e_j − (m_j / M_j)·1_{≥j}
       = M_{j+1}/M_j  on class j,   −m_j/M_j  on classes k > j,
         0            on classes k < j,

with squared norm ``m_j·(M_{j+1}/M_j)² + M_{j+1}·(m_j/M_j)²
= m_j·M_{j+1}/M_j``.  Response ``j`` is therefore that vector scaled by
``√(M_j / (m_j·M_{j+1}))``.  The last indicator projects to zero
(``M_c = 0``) and is dropped, leaving ``c - 1`` responses.

:func:`response_table_from_counts` evaluates this ``(c, c-1)`` table of
per-class values in ``O(c²)`` and :func:`generate_responses` looks each
sample's row up, ``O(m·c)``: no length-``m`` Gram–Schmidt runs at all.
:func:`repro.linalg.gram_schmidt.orthonormalize` of ``[e, indicators]``
stays the reference the property tests compare against.  Cost:
``O(m c + c²)`` flam and ``O(m c)`` memory — negligible next to the
regression step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._typing import FloatArray


def indicator_matrix(y_indices: FloatArray, n_classes: int) -> FloatArray:
    """The ``c`` eigenvectors of ``W`` with eigenvalue 1 (Eqn 15).

    Complexity: O(m·c) — the matrix itself, one scatter per sample.

    Column ``k`` is the 0/1 indicator of class ``k``.  (The paper orders
    samples by class so these look like padded blocks of ones; with
    arbitrary sample order they are the same vectors, permuted.)
    """
    y_indices = np.asarray(y_indices, dtype=np.int64)
    if y_indices.ndim != 1:
        raise ValueError("y_indices must be 1-D")
    if y_indices.size and (y_indices.min() < 0 or y_indices.max() >= n_classes):
        raise ValueError("class index out of range")
    m = y_indices.shape[0]
    Y = np.zeros((m, n_classes))
    Y[np.arange(m), y_indices] = 1.0
    return Y


def generate_responses(
    y_indices: FloatArray,
    n_classes: int,
    rng: Optional[np.random.Generator] = None,
) -> FloatArray:
    """Produce the ``(m, c-1)`` response matrix ``Ȳ = [ȳ¹ … ȳ^{c-1}]``.

    Complexity: O(m·c + c^2) — one count pass over the labels, the
    closed-form ``(c, c-1)`` table, and one table row per sample.

    Parameters
    ----------
    y_indices:
        Encoded class index of each sample (values in ``[0, n_classes)``).
    n_classes:
        Number of classes ``c``; must be ≥ 2.
    rng:
        Optional generator.  When given, the class indicators are
        orthogonalized in a random order (equivalent up to rotation —
        useful for tests that check rotation invariance of SRDA);
        otherwise the natural class order is used, deterministically.

    Returns
    -------
    Responses with orthonormal columns, each orthogonal to the all-ones
    vector and piecewise constant on classes: the Gram–Schmidt result
    of the module docstring, ``table[y_indices]``.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes to build responses")
    y_indices = np.asarray(y_indices, dtype=np.int64)
    if y_indices.ndim != 1:
        raise ValueError("y_indices must be 1-D")
    if y_indices.size and (y_indices.min() < 0 or y_indices.max() >= n_classes):
        raise ValueError("class index out of range")
    counts = np.bincount(y_indices, minlength=n_classes)
    if rng is None:
        return response_table_from_counts(counts)[y_indices]
    # Gram–Schmidt in the order ``order`` is the closed form over the
    # permuted counts; row ``i`` of that table belongs to class order[i].
    order = rng.permutation(n_classes)
    table = np.empty((n_classes, n_classes - 1))
    table[order] = response_table_from_counts(counts[order])
    return table[y_indices]


def response_table_from_counts(counts: FloatArray) -> FloatArray:
    """The ``(c, c-1)`` per-class response table from class counts alone.

    Complexity: O(c^2) — the closed form of the module docstring,
    independent of ``m``.

    Column ``j`` is response ``ȳʲ``: ``M_{j+1}/M_j`` on class ``j``,
    ``−m_j/M_j`` on every later class and 0 on earlier ones, scaled by
    ``√(M_j / (m_j·M_{j+1}))`` with ``M_j = Σ_{k≥j} m_k``.  This is what
    Gram–Schmidt of ``[1, indicators]`` produces, so the full
    ``(m, c-1)`` response matrix is ``table[y_indices]``.

    This is the engine behind both :meth:`repro.core.srda.SRDA.fit` and
    :meth:`repro.core.srda.SRDA.partial_fit`: the counts are *integers*,
    accumulated by commutative addition, so the table is a deterministic
    function of the class histogram — bitwise identical under any batch
    ordering of the same data.

    Parameters
    ----------
    counts:
        Per-class sample counts ``m_k``; every entry must be positive.

    Returns
    -------
    ``(c, c-1)`` table whose column ``j`` holds response ``ȳʲ``'s value
    on each class; rows indexed by encoded class, columns satisfy the
    Eqn-16 invariants under the count-weighted inner product
    ``⟨u, w⟩ = Σ_k m_k u_k w_k``.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1:
        raise ValueError("counts must be 1-D")
    n_classes = counts.shape[0]
    if n_classes < 2:
        raise ValueError("need at least 2 classes to build responses")
    if np.any(counts <= 0):
        missing = np.flatnonzero(counts <= 0)
        raise ValueError(f"classes with no samples: {missing.tolist()}")
    # Suffix sums in the counts' own dtype, so integer counts stay exact.
    suffix = np.cumsum(counts[::-1])[::-1].astype(np.float64)
    head, rest = suffix[:-1], suffix[1:]  # M_j and M_{j+1}, j < c-1
    size = counts[:-1].astype(np.float64)  # m_j
    rows = np.arange(n_classes)[:, None]
    cols = np.arange(n_classes - 1)
    table = np.where(rows > cols, -size / head, 0.0)
    table[cols, cols] = rest / head
    return table * np.sqrt(head / (size * rest))


def response_table(
    responses: FloatArray, y_indices: FloatArray, n_classes: int
) -> FloatArray:
    """Collapse responses to one row per class.

    Complexity: O(m·c) — one masked scan of the response matrix per
    class (the ``(m, c-1)`` matrix is read ``c`` times at worst).

    Because each response column is piecewise constant on classes, the
    whole ``(m, c-1)`` matrix is determined by a ``(c, c-1)`` table of
    per-class values.  This is what lets ``transform`` on unseen data be
    meaningful and is asserted by the property tests.
    """
    table = np.zeros((n_classes, responses.shape[1]))
    for k in range(n_classes):
        rows = responses[y_indices == k]
        if rows.shape[0] == 0:
            continue
        table[k] = rows[0]
        if not np.allclose(rows, rows[0], atol=1e-8):
            raise ValueError(
                f"responses are not piecewise constant on class {k}"
            )
    return table


def validate_responses(
    responses: FloatArray, y_indices: FloatArray, atol: float = 1e-8
) -> Tuple[float, float]:
    """Check the Eqn-16 invariants; returns (max ones-dot, max cross-dot).

    Complexity: O(m·c^2) — the ``ȲᵀȲ`` Gram matrix dominates.

    Intended for tests and debugging: both values should be ~0 and the
    diagonal of ``ȲᵀȲ`` should be ~1.
    """
    ones_dots = np.abs(responses.sum(axis=0))
    gram = responses.T @ responses
    off = gram - np.diag(np.diag(gram))
    max_ones = float(ones_dots.max()) if ones_dots.size else 0.0
    max_cross = float(np.abs(off).max()) if off.size else 0.0
    if max_ones > atol or max_cross > atol:
        raise ValueError(
            f"responses violate Eqn 16: ones-dot={max_ones:.2e}, "
            f"cross-dot={max_cross:.2e}"
        )
    return max_ones, max_cross
