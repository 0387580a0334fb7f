/*
 * GIL-free compiled CSR kernels — the "compiled" backend behind
 * repro.linalg.kernels.
 *
 * Every kernel here is bitwise-identical to the pure-numpy reference
 * implementation in repro.linalg.sparse.CSRMatrix.  That contract pins
 * the accumulation order exactly:
 *
 * - every ``matmat`` column mirrors ``np.add.reduceat``: each segment
 *   reduces as ``seg[0] + pairwise_sum(seg[1:])`` where
 *   ``pairwise_sum`` is numpy's pairwise algorithm (8-accumulator
 *   blocks up to 128 elements, then recursive halving on 8-aligned
 *   splits).  The structure below is a faithful port of numpy's
 *   ``pairwise_sum_@TYPE@`` (numpy/_core/src/umath/loops_utils.h.src);
 *   the tests assert bit equality against the live numpy, so a silent
 *   ordering change in either implementation fails loudly.  Sums of
 *   fewer than 8 terms start from a seed zero whose sign numpy has
 *   changed across releases (-0.0 keeps an all-negative-zero sum
 *   negative); the dispatcher reads the live numpy's sign once at
 *   import and hands it over through ``set_pairwise_seed``.
 * - Products are rounded before they are added, as numpy's separate
 *   multiply and add ufuncs round them.  The build passes
 *   ``-ffp-contract=off`` so no compiler fuses ``acc += a * b`` into an
 *   FMA, which would skip that rounding.
 *
 * There is one product kernel, ``matmat``.  A mat-vec is its width-1
 * block, and there are no adjoint kernels: ``A.T @ U`` is the forward
 * kernel run over the transpose, which ``csr_transpose`` builds once.
 *
 * Block products (``matmat``) read the CSR matrix once per product, not once per operand column.
 * The operand block is row-major, so the ``k`` values a stored entry
 * multiplies sit in one contiguous run; each row then runs the
 * reduceat tree above in all ``k`` lanes at once, streaming products
 * straight into the 8-accumulator blocks.  Every lane sees exactly the
 * rounding sequence of a per-column sweep, so the result is the same
 * bits.  Lanes are processed in column panels of at most
 * ``MM_PANEL`` (32) columns, which bounds the stack accumulators
 * (8 x 32 values, plus 32 per level of the recursive split) for any
 * block width; a block wider than one panel reads the matrix once
 * per panel.  The output is written through its own row and column
 * strides, so the caller picks its layout: the dispatcher hands over a
 * row-major block, or a row range of a larger one (a shard's rows of
 * the whole product).  Empty rows are written as zeros, so the output
 * need not be zeroed first.
 *
 * float64 blocks of three or more columns run on a register tile
 * instead of that lane loop when the CPU has AVX-512F: panels of up to
 * 24 lanes, three zmm vectors per accumulator, so the pairwise tree's
 * 8 accumulators live in 24 of the 32 zmm registers rather than on the
 * stack; a lane tail is loaded and stored under a mask.  The tile is
 * compiled (``target("avx512f")``) only on x86-64 GCC/Clang and chosen
 * once, at import, from ``__builtin_cpu_supports``; nothing else picks
 * it.  It performs each lane's multiplies and adds in the lane loop's
 * order, so both paths return the same bits.  One- and two-column
 * blocks and float32 stay on the lane loop, which measured faster at
 * those widths.
 *
 * ``csr_transpose`` is a stable counting sort by column, O(nnz + m + n),
 * that produces the same arrays as the reference's stable argsort.
 *
 * ``block_add_sumsq``, ``block_advance`` and ``block_divide`` are block
 * LSQR's per-iteration vector updates, each fused into one pass over
 * the rows; their reference is the numpy panel code of
 * repro.linalg.panels (same roundings, same pinned reduction order).
 *
 * All inner loops run between Py_BEGIN_ALLOW_THREADS /
 * Py_END_ALLOW_THREADS — no Python objects are touched inside — which
 * is the whole point: thread-backend shard workers genuinely overlap
 * where the numpy kernels serialize on the GIL.
 *
 * The Python-side dispatcher (repro.linalg.kernels) owns all
 * validation, allocation and dtype/layout normalization; this module
 * only asserts what it relies on (dtype match, contiguity, 1-D/2-D
 * rank) and raises ValueError otherwise.
 */

#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_22_API_VERSION
#include <Python.h>
#include <numpy/arrayobject.h>

/* ------------------------------------------------------------------ */
/* numpy-order pairwise summation (port of numpy's pairwise_sum)       */
/* ------------------------------------------------------------------ */

#define PW_BLOCKSIZE 128

/* Seed of the short (< 8 term) pairwise sums; set by set_pairwise_seed
 * to the live numpy's choice before any kernel runs. */
static npy_double pairwise_seed = -0.0;

/* A @ B, one pass over the matrix.  ``B`` is row-major (row stride
 * ``ldb``); ``out[r, j]`` sits at ``out + r * rs + j * cs`` (element
 * strides, any layout), and every row is written, zero if empty.  For
 * each panel of at most MM_PANEL columns, every row computes
 * ``seg[0] + pairwise_sum(seg[1:])`` of its products in all panel
 * lanes at once; ``pairwise_rows`` is numpy's ``pairwise_sum`` with
 * each scalar widened to ``kp`` lanes and each element the product
 * ``data[i] * B[indices[i], :]``, computed where it is consumed. */
#define MM_PANEL 32

#define DEFINE_MATMAT(T, SUF)                                            \
    static void pairwise_rows_##SUF(                                     \
        const T *data, const npy_int64 *indices, npy_intp n,             \
        const T *B, npy_intp ldb, npy_intp kp, T *res)                   \
    {                                                                    \
        npy_intp i, j, q;                                                \
        if (n < 8) {                                                     \
            for (j = 0; j < kp; j++) {                                   \
                res[j] = (T)pairwise_seed;                               \
            }                                                            \
            for (i = 0; i < n; i++) {                                    \
                const T d = data[i];                                     \
                const T *b = B + indices[i] * ldb;                       \
                for (j = 0; j < kp; j++) {                               \
                    res[j] += d * b[j];                                  \
                }                                                        \
            }                                                            \
        }                                                                \
        else if (n <= PW_BLOCKSIZE) {                                    \
            T r[8][MM_PANEL];                                            \
            for (q = 0; q < 8; q++) {                                    \
                const T d = data[q];                                     \
                const T *b = B + indices[q] * ldb;                       \
                for (j = 0; j < kp; j++) {                               \
                    r[q][j] = d * b[j];                                  \
                }                                                        \
            }                                                            \
            for (i = 8; i < n - (n % 8); i += 8) {                       \
                for (q = 0; q < 8; q++) {                                \
                    const T d = data[i + q];                             \
                    const T *b = B + indices[i + q] * ldb;               \
                    for (j = 0; j < kp; j++) {                           \
                        r[q][j] += d * b[j];                             \
                    }                                                    \
                }                                                        \
            }                                                            \
            for (j = 0; j < kp; j++) {                                   \
                res[j] = ((r[0][j] + r[1][j]) + (r[2][j] + r[3][j])) +   \
                         ((r[4][j] + r[5][j]) + (r[6][j] + r[7][j]));    \
            }                                                            \
            for (; i < n; i++) {                                         \
                const T d = data[i];                                     \
                const T *b = B + indices[i] * ldb;                       \
                for (j = 0; j < kp; j++) {                               \
                    res[j] += d * b[j];                                  \
                }                                                        \
            }                                                            \
        }                                                                \
        else {                                                           \
            T right[MM_PANEL];                                           \
            npy_intp n2 = n / 2;                                         \
            n2 -= n2 % 8;                                                \
            pairwise_rows_##SUF(data, indices, n2, B, ldb, kp, res);     \
            pairwise_rows_##SUF(data + n2, indices + n2, n - n2, B, ldb, \
                                kp, right);                              \
            for (j = 0; j < kp; j++) {                                   \
                res[j] = res[j] + right[j];                              \
            }                                                            \
        }                                                                \
    }                                                                    \
                                                                         \
    static void matmat_##SUF(                                            \
        const T *data, const npy_int64 *indices, const npy_int64 *indptr,\
        npy_intp n_rows, npy_intp n_cols_B, const T *B, npy_intp ldb,    \
        T *out, npy_intp rs, npy_intp cs)                                \
    {                                                                    \
        npy_intp j0, j, r;                                               \
        for (j0 = 0; j0 < n_cols_B; j0 += MM_PANEL) {                    \
            const npy_intp kp = (n_cols_B - j0 < MM_PANEL)               \
                                    ? n_cols_B - j0 : MM_PANEL;          \
            const T *Bp = B + j0;                                        \
            for (r = 0; r < n_rows; r++) {                               \
                npy_int64 start = indptr[r];                             \
                npy_intp len = (npy_intp)(indptr[r + 1] - start);        \
                T *o = out + r * rs + j0 * cs;                           \
                T acc[MM_PANEL];                                         \
                T d0;                                                    \
                const T *b0;                                             \
                if (len == 0) {                                          \
                    for (j = 0; j < kp; j++) {                           \
                        o[j * cs] = (T)0;                                \
                    }                                                    \
                    continue;                                            \
                }                                                        \
                d0 = data[start];                                        \
                b0 = Bp + indices[start] * ldb;                          \
                if (len == 1) {                                          \
                    for (j = 0; j < kp; j++) {                           \
                        o[j * cs] = d0 * b0[j];                          \
                    }                                                    \
                    continue;                                            \
                }                                                        \
                /* a literal one-lane call, which the compiler           \
                 * specializes into scalar code */                       \
                if (kp == 1) {                                           \
                    pairwise_rows_##SUF(data + start + 1,                \
                                        indices + start + 1, len - 1,    \
                                        Bp, ldb, 1, acc);                \
                }                                                        \
                else {                                                   \
                    pairwise_rows_##SUF(data + start + 1,                \
                                        indices + start + 1, len - 1,    \
                                        Bp, ldb, kp, acc);               \
                }                                                        \
                for (j = 0; j < kp; j++) {                               \
                    o[j * cs] = d0 * b0[j] + acc[j];                     \
                }                                                        \
            }                                                            \
        }                                                                \
    }

DEFINE_MATMAT(npy_double, f64)
DEFINE_MATMAT(npy_float, f32)

/* ------------------------------------------------------------------ */
/* AVX-512 register tile of the float64 block product                  */
/* ------------------------------------------------------------------ */

/* ``matmat_f64`` with its accumulators in registers: a panel of up to
 * TILE_LANES (24) lanes is ``nv`` (1-3) zmm vectors of 8 lanes, the
 * last one loaded and stored under a mask of its ``kp - 8 (nv - 1)``
 * lanes, and the pairwise tree's 8 accumulators x 3 vectors fill 24 of
 * the 32 zmm registers.  Each lane runs the same multiplies and adds in
 * the same order as ``pairwise_rows_f64`` (separate rounded products,
 * no FMA), so the two paths return the same bits.  The tile is
 * compiled for AVX-512F only on x86-64 GCC/Clang, and runs only where
 * the CPU reports AVX-512F at import; blocks narrower than
 * TILE_MIN_WIDTH columns stay on the lane loop, which measured faster
 * there. */
#if defined(__x86_64__) && \
    (defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 5))
#define HAVE_TILE 1
#include <immintrin.h>

#define TILE_LANES 24
#define TILE_MIN_WIDTH 3
#define TILE_TARGET __attribute__((target("avx512f")))
#define TILE_INLINE static inline __attribute__((always_inline, target("avx512f")))

typedef struct {
    __m512d a, b, c;
} tile_f64;

/* d * B[row, :kp]; vectors past ``nv`` hold d and never reach the output. */
TILE_INLINE tile_f64
tile_product(npy_double d, const npy_double *b, int nv, __mmask8 tail)
{
    const __m512d dv = _mm512_set1_pd(d);
    tile_f64 t;
    t.a = _mm512_mul_pd(dv, nv == 1 ? _mm512_maskz_loadu_pd(tail, b)
                                    : _mm512_loadu_pd(b));
    t.b = nv < 2 ? dv
                 : _mm512_mul_pd(dv, nv == 2
                                         ? _mm512_maskz_loadu_pd(tail, b + 8)
                                         : _mm512_loadu_pd(b + 8));
    t.c = nv < 3 ? dv : _mm512_mul_pd(dv, _mm512_maskz_loadu_pd(tail, b + 16));
    return t;
}

TILE_INLINE tile_f64
tile_add(tile_f64 x, tile_f64 y, int nv)
{
    x.a = _mm512_add_pd(x.a, y.a);
    if (nv > 1) {
        x.b = _mm512_add_pd(x.b, y.b);
    }
    if (nv > 2) {
        x.c = _mm512_add_pd(x.c, y.c);
    }
    return x;
}

#define TILE_TERM(q)                                                     \
    tile_product(data[q], B + indices[q] * ldb, nv, tail)

/* pairwise_rows_f64 for n <= PW_BLOCKSIZE, in registers. */
TILE_INLINE tile_f64
tile_pairwise(const npy_double *data, const npy_int64 *indices, npy_intp n,
              const npy_double *B, npy_intp ldb, int nv, __mmask8 tail)
{
    npy_intp i;
    tile_f64 res, r0, r1, r2, r3, r4, r5, r6, r7;
    if (n < 8) {
        const __m512d seed = _mm512_set1_pd(pairwise_seed);
        res.a = res.b = res.c = seed;
        for (i = 0; i < n; i++) {
            res = tile_add(res, TILE_TERM(i), nv);
        }
        return res;
    }
    r0 = TILE_TERM(0); r1 = TILE_TERM(1); r2 = TILE_TERM(2);
    r3 = TILE_TERM(3); r4 = TILE_TERM(4); r5 = TILE_TERM(5);
    r6 = TILE_TERM(6); r7 = TILE_TERM(7);
    for (i = 8; i < n - (n % 8); i += 8) {
        r0 = tile_add(r0, TILE_TERM(i + 0), nv);
        r1 = tile_add(r1, TILE_TERM(i + 1), nv);
        r2 = tile_add(r2, TILE_TERM(i + 2), nv);
        r3 = tile_add(r3, TILE_TERM(i + 3), nv);
        r4 = tile_add(r4, TILE_TERM(i + 4), nv);
        r5 = tile_add(r5, TILE_TERM(i + 5), nv);
        r6 = tile_add(r6, TILE_TERM(i + 6), nv);
        r7 = tile_add(r7, TILE_TERM(i + 7), nv);
    }
    res = tile_add(tile_add(tile_add(r0, r1, nv), tile_add(r2, r3, nv), nv),
                   tile_add(tile_add(r4, r5, nv), tile_add(r6, r7, nv), nv),
                   nv);
    for (; i < n; i++) {
        res = tile_add(res, TILE_TERM(i), nv);
    }
    return res;
}

/* Any n: the recursive split of pairwise_rows_f64 above PW_BLOCKSIZE. */
static TILE_TARGET void
tile_pairwise_split(const npy_double *data, const npy_int64 *indices,
                    npy_intp n, const npy_double *B, npy_intp ldb, int nv,
                    __mmask8 tail, tile_f64 *res)
{
    tile_f64 right;
    npy_intp n2;
    if (n <= PW_BLOCKSIZE) {
        /* literal widths, so each case keeps its tree in registers */
        switch (nv) {
        case 1:
            *res = tile_pairwise(data, indices, n, B, ldb, 1, tail);
            break;
        case 2:
            *res = tile_pairwise(data, indices, n, B, ldb, 2, tail);
            break;
        default:
            *res = tile_pairwise(data, indices, n, B, ldb, 3, tail);
        }
        return;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    tile_pairwise_split(data, indices, n2, B, ldb, nv, tail, res);
    tile_pairwise_split(data + n2, indices + n2, n - n2, B, ldb, nv, tail,
                        &right);
    *res = tile_add(*res, right, nv);
}

/* One panel of ``kp`` lanes (``nv`` vectors) for every row. */
TILE_INLINE void
tile_rows(const npy_double *data, const npy_int64 *indices,
          const npy_int64 *indptr, npy_intp n_rows, const npy_double *B,
          npy_intp ldb, npy_double *out, npy_intp rs, npy_intp cs,
          npy_intp kp, int nv)
{
    const __mmask8 tail = (__mmask8)((1u << (kp - 8 * (nv - 1))) - 1u);
    npy_intp r, j;
    for (r = 0; r < n_rows; r++) {
        const npy_int64 start = indptr[r];
        const npy_intp len = (npy_intp)(indptr[r + 1] - start);
        npy_double *o = out + r * rs;
        tile_f64 res;
        if (len == 0) {
            for (j = 0; j < kp; j++) {
                o[j * cs] = 0.0;
            }
            continue;
        }
        res = tile_product(data[start], B + indices[start] * ldb, nv, tail);
        if (len > 1) {
            tile_f64 acc;
            if (len - 1 <= PW_BLOCKSIZE) {
                acc = tile_pairwise(data + start + 1, indices + start + 1,
                                    len - 1, B, ldb, nv, tail);
            }
            else {
                tile_pairwise_split(data + start + 1, indices + start + 1,
                                    len - 1, B, ldb, nv, tail, &acc);
            }
            res = tile_add(res, acc, nv);
        }
        if (cs == 1) {
            _mm512_mask_storeu_pd(o, nv == 1 ? tail : 0xFF, res.a);
            if (nv > 1) {
                _mm512_mask_storeu_pd(o + 8, nv == 2 ? tail : 0xFF, res.b);
            }
            if (nv > 2) {
                _mm512_mask_storeu_pd(o + 16, tail, res.c);
            }
        }
        else {
            npy_double lanes[TILE_LANES];
            _mm512_storeu_pd(lanes, res.a);
            _mm512_storeu_pd(lanes + 8, res.b);
            _mm512_storeu_pd(lanes + 16, res.c);
            for (j = 0; j < kp; j++) {
                o[j * cs] = lanes[j];
            }
        }
    }
}

#define DEFINE_TILE_ROWS(NV)                                             \
    static TILE_TARGET void tile_rows_##NV(                              \
        const npy_double *data, const npy_int64 *indices,                \
        const npy_int64 *indptr, npy_intp n_rows, const npy_double *B,   \
        npy_intp ldb, npy_double *out, npy_intp rs, npy_intp cs,         \
        npy_intp kp)                                                     \
    {                                                                    \
        tile_rows(data, indices, indptr, n_rows, B, ldb, out, rs, cs,    \
                  kp, NV);                                               \
    }

DEFINE_TILE_ROWS(1)
DEFINE_TILE_ROWS(2)
DEFINE_TILE_ROWS(3)

/* matmat_f64 in panels of TILE_LANES lanes. */
static void
matmat_tile_f64(const npy_double *data, const npy_int64 *indices,
                const npy_int64 *indptr, npy_intp n_rows, npy_intp n_cols_B,
                const npy_double *B, npy_intp ldb, npy_double *out,
                npy_intp rs, npy_intp cs)
{
    npy_intp j0;
    for (j0 = 0; j0 < n_cols_B; j0 += TILE_LANES) {
        const npy_intp kp = (n_cols_B - j0 < TILE_LANES) ? n_cols_B - j0
                                                         : TILE_LANES;
        const npy_double *Bp = B + j0;
        npy_double *o = out + j0 * cs;
        switch ((kp + 7) / 8) {
        case 1:
            tile_rows_1(data, indices, indptr, n_rows, Bp, ldb, o, rs, cs, kp);
            break;
        case 2:
            tile_rows_2(data, indices, indptr, n_rows, Bp, ldb, o, rs, cs, kp);
            break;
        default:
            tile_rows_3(data, indices, indptr, n_rows, Bp, ldb, o, rs, cs, kp);
        }
    }
}
#else
#define HAVE_TILE 0
#endif

/* Whether csr_matmat runs float64 blocks of TILE_MIN_WIDTH or more
 * columns on the tile: set at import from the CPU's features. */
static int tile_supported = 0;
static int tile_enabled = 0;

/* Transpose as a stable counting sort by column, O(nnz + n_rows +
 * n_cols): entries keep storage order within each column, exactly the
 * reference's stable argsort.  ``t_indptr`` (n_cols + 1) first counts,
 * then serves as the write cursor of each column, then is shifted back
 * into row pointers. */
#define DEFINE_TRANSPOSE(T, SUF)                                         \
    static void transpose_##SUF(                                         \
        const T *data, const npy_int64 *indices, const npy_int64 *indptr,\
        npy_intp n_rows, npy_intp n_cols, T *t_data,                     \
        npy_int64 *t_indices, npy_int64 *t_indptr)                       \
    {                                                                    \
        npy_intp r, c;                                                   \
        npy_int64 i, nnz = indptr[n_rows], start = 0;                    \
        for (c = 0; c <= n_cols; c++) {                                  \
            t_indptr[c] = 0;                                             \
        }                                                                \
        for (i = 0; i < nnz; i++) {                                      \
            t_indptr[indices[i]]++;                                      \
        }                                                                \
        for (c = 0; c < n_cols; c++) {                                   \
            npy_int64 count = t_indptr[c];                               \
            t_indptr[c] = start;                                         \
            start += count;                                              \
        }                                                                \
        for (r = 0; r < n_rows; r++) {                                   \
            for (i = indptr[r]; i < indptr[r + 1]; i++) {                \
                npy_int64 dest = t_indptr[indices[i]]++;                 \
                t_indices[dest] = (npy_int64)r;                          \
                t_data[dest] = data[i];                                  \
            }                                                            \
        }                                                                \
        /* each cursor now sits at its column's end: shift right */      \
        for (c = n_cols; c > 0; c--) {                                   \
            t_indptr[c] = t_indptr[c - 1];                               \
        }                                                                \
        t_indptr[0] = 0;                                                 \
    }

DEFINE_TRANSPOSE(npy_double, f64)
DEFINE_TRANSPOSE(npy_float, f32)

/* ------------------------------------------------------------------ */
/* Block LSQR vector recurrences                                       */
/* ------------------------------------------------------------------ */

/* The per-iteration updates of block LSQR, fused into one pass over
 * the rows, bitwise equal to the numpy panel loops of
 * repro.linalg.panels.  Blocks are (n, k) with any element strides
 * (``rs`` between rows, ``cs`` between columns).  Each update rounds as
 * the numpy expression does: a float64 step ``scale`` promotes the
 * product and the add to float64 before the result is stored in the
 * block's dtype; a step of the block's own dtype stays in it.
 *
 * Column sums of squares follow the pinned order of
 * ``panels.column_sums``: the float64 square of row ``i`` lands in row
 * ``i % panel`` of the scratch ``acc`` (the first panel stores, later
 * panels add), then the scratch rows fold by halving into row 0. */

static void
fold_rows_f64(npy_double *acc, npy_intp lda, npy_intp rows, npy_intp k)
{
    while (rows > 1) {
        const npy_intp half = rows / 2, base = rows - half;
        npy_intp t, j;
        for (t = 0; t < half; t++) {
            npy_double *dst = acc + t * lda;
            const npy_double *src = acc + (base + t) * lda;
            for (j = 0; j < k; j++) {
                dst[j] += src[j];
            }
        }
        rows = base;
    }
}

/* The row of ``acc`` that row ``i`` of a block squares into; rows of
 * the first panel store there, later rows add. */
#define ACC_ROW(acc, lda, i, panel) ((acc) + ((i) % (panel)) * (lda))

#define DEFINE_BLOCK_VECTOR(T, SUF)                                      \
    /* A += X * scale (float64 scale); sums of squares of the new A. */  \
    static void add_sumsq_##SUF(                                         \
        T *A, npy_intp ars, npy_intp acs, const T *X, npy_intp xrs,      \
        npy_intp xcs, const npy_double *scale, npy_intp n, npy_intp k,   \
        npy_intp panel, npy_double *acc, npy_intp lda)                   \
    {                                                                    \
        npy_intp i, j;                                                   \
        for (i = 0; i < n; i++) {                                        \
            T *a = A + i * ars;                                          \
            const T *x = X + i * xrs;                                    \
            npy_double *sq = ACC_ROW(acc, lda, i, panel);                \
            const int first = i < panel;                                 \
            for (j = 0; j < k; j++) {                                    \
                const npy_double prod =                                  \
                    (npy_double)x[j * xcs] * scale[j];                   \
                const T value = (T)((npy_double)a[j * acs] + prod);      \
                a[j * acs] = value;                                      \
                sq[j] = first ? (npy_double)value * (npy_double)value    \
                              : sq[j] + (npy_double)value *              \
                                            (npy_double)value;           \
            }                                                            \
        }                                                                \
    }                                                                    \
                                                                         \
    /* Sums of squares of W; then Xa += t1 * W and W = t2 * W + V. */    \
    static void advance_##SUF(                                           \
        T *W, npy_intp wrs, npy_intp wcs, T *Xa, npy_intp xrs,           \
        npy_intp xcs, const T *V, npy_intp vrs, npy_intp vcs,            \
        const T *t1, const T *t2, npy_intp n, npy_intp k,                \
        npy_intp panel, npy_double *acc, npy_intp lda)                   \
    {                                                                    \
        npy_intp i, j;                                                   \
        for (i = 0; i < n; i++) {                                        \
            T *w = W + i * wrs;                                          \
            T *xa = Xa + i * xrs;                                        \
            const T *v = V + i * vrs;                                    \
            npy_double *sq = ACC_ROW(acc, lda, i, panel);                \
            const int first = i < panel;                                 \
            for (j = 0; j < k; j++) {                                    \
                const T wij = w[j * wcs];                                \
                const T step = wij * t1[j];                              \
                const T scaled = wij * t2[j];                            \
                sq[j] = first ? (npy_double)wij * (npy_double)wij        \
                              : sq[j] + (npy_double)wij *                \
                                            (npy_double)wij;             \
                xa[j * xcs] = xa[j * xcs] + step;                        \
                w[j * wcs] = scaled + v[j * vcs];                        \
            }                                                            \
        }                                                                \
    }                                                                    \
                                                                         \
    /* A[:, j] /= d[j] (float64 divisors; 1 leaves a column as is). */   \
    static void divide_##SUF(                                            \
        T *A, npy_intp ars, npy_intp acs, const npy_double *d,           \
        npy_intp n, npy_intp k)                                          \
    {                                                                    \
        npy_intp i, j;                                                   \
        for (i = 0; i < n; i++) {                                        \
            T *a = A + i * ars;                                          \
            for (j = 0; j < k; j++) {                                    \
                a[j * acs] = (T)((npy_double)a[j * acs] / d[j]);         \
            }                                                            \
        }                                                                \
    }

DEFINE_BLOCK_VECTOR(npy_double, f64)
DEFINE_BLOCK_VECTOR(npy_float, f32)

/* ------------------------------------------------------------------ */
/* Argument helpers                                                    */
/* ------------------------------------------------------------------ */

static int
check_array(PyArrayObject *arr, int typenum, int ndim, const char *name)
{
    if (PyArray_TYPE(arr) != typenum) {
        PyErr_Format(PyExc_ValueError, "%s has the wrong dtype", name);
        return 0;
    }
    if (PyArray_NDIM(arr) != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-dimensional", name,
                     ndim);
        return 0;
    }
    if (!PyArray_IS_C_CONTIGUOUS(arr) && !PyArray_IS_F_CONTIGUOUS(arr)) {
        PyErr_Format(PyExc_ValueError, "%s must be contiguous", name);
        return 0;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* Python-visible wrappers                                             */
/* ------------------------------------------------------------------ */

static PyObject *
py_csr_matmat(PyObject *self, PyObject *args)
{
    PyArrayObject *data, *indices, *indptr, *B, *out;
    npy_intp n_rows, nnz, k, itemsize;
    int typenum;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!", &PyArray_Type, &data,
                          &PyArray_Type, &indices, &PyArray_Type, &indptr,
                          &PyArray_Type, &B, &PyArray_Type, &out)) {
        return NULL;
    }
    typenum = PyArray_TYPE(data);
    if (typenum != NPY_DOUBLE && typenum != NPY_FLOAT) {
        PyErr_SetString(PyExc_ValueError, "data must be float32 or float64");
        return NULL;
    }
    if (!check_array(data, typenum, 1, "data") ||
        !check_array(indices, NPY_INT64, 1, "indices") ||
        !check_array(indptr, NPY_INT64, 1, "indptr")) {
        return NULL;
    }
    if (PyArray_TYPE(B) != typenum || PyArray_NDIM(B) != 2 ||
        !PyArray_IS_C_CONTIGUOUS(B)) {
        PyErr_SetString(PyExc_ValueError,
                        "B must be a C-contiguous (row-major) 2-D block of "
                        "the data dtype");
        return NULL;
    }
    if (PyArray_TYPE(out) != typenum || PyArray_NDIM(out) != 2 ||
        !PyArray_ISWRITEABLE(out) || !PyArray_ISALIGNED(out)) {
        PyErr_SetString(PyExc_ValueError,
                        "out must be a writeable, aligned 2-D block of the "
                        "data dtype");
        return NULL;
    }
    itemsize = PyArray_ITEMSIZE(out);
    if (PyArray_STRIDE(out, 0) % itemsize != 0 ||
        PyArray_STRIDE(out, 1) % itemsize != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "out strides must be whole elements");
        return NULL;
    }
    n_rows = PyArray_DIM(indptr, 0) - 1;
    nnz = PyArray_DIM(data, 0);
    k = PyArray_DIM(B, 1);
    if (PyArray_DIM(indices, 0) != nnz || PyArray_DIM(out, 0) != n_rows ||
        PyArray_DIM(out, 1) != k) {
        PyErr_SetString(PyExc_ValueError, "inconsistent kernel shapes");
        return NULL;
    }
    {
        const npy_int64 *ind = (const npy_int64 *)PyArray_DATA(indices);
        const npy_int64 *ip = (const npy_int64 *)PyArray_DATA(indptr);
        npy_intp ldb = k;
        npy_intp rs = PyArray_STRIDE(out, 0) / itemsize;
        npy_intp cs = PyArray_STRIDE(out, 1) / itemsize;
        if (typenum == NPY_DOUBLE) {
            const npy_double *d = (const npy_double *)PyArray_DATA(data);
            const npy_double *b = (const npy_double *)PyArray_DATA(B);
            npy_double *o = (npy_double *)PyArray_DATA(out);
            Py_BEGIN_ALLOW_THREADS
#if HAVE_TILE
            if (tile_enabled && k >= TILE_MIN_WIDTH) {
                matmat_tile_f64(d, ind, ip, n_rows, k, b, ldb, o, rs, cs);
            }
            else
#endif
            {
                matmat_f64(d, ind, ip, n_rows, k, b, ldb, o, rs, cs);
            }
            Py_END_ALLOW_THREADS
        }
        else {
            const npy_float *d = (const npy_float *)PyArray_DATA(data);
            const npy_float *b = (const npy_float *)PyArray_DATA(B);
            npy_float *o = (npy_float *)PyArray_DATA(out);
            Py_BEGIN_ALLOW_THREADS
            matmat_f32(d, ind, ip, n_rows, k, b, ldb, o, rs, cs);
            Py_END_ALLOW_THREADS
        }
    }
    Py_RETURN_NONE;
}

/* An (n, k) block of ``typenum`` with whole-element strides; stores
 * the element strides in rs/cs. */
static int
check_block(PyArrayObject *arr, int typenum, npy_intp n, npy_intp k,
            int writeable, const char *name, npy_intp *rs, npy_intp *cs)
{
    npy_intp itemsize;
    if (PyArray_TYPE(arr) != typenum || PyArray_NDIM(arr) != 2 ||
        PyArray_DIM(arr, 0) != n || PyArray_DIM(arr, 1) != k ||
        !PyArray_ISALIGNED(arr) ||
        (writeable && !PyArray_ISWRITEABLE(arr))) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be an aligned (%zd, %zd) block of the block "
                     "dtype%s", name, n, k, writeable ? ", writeable" : "");
        return 0;
    }
    itemsize = PyArray_ITEMSIZE(arr);
    if (PyArray_STRIDE(arr, 0) % itemsize || PyArray_STRIDE(arr, 1) % itemsize) {
        PyErr_Format(PyExc_ValueError, "%s strides must be whole elements",
                     name);
        return 0;
    }
    *rs = PyArray_STRIDE(arr, 0) / itemsize;
    *cs = PyArray_STRIDE(arr, 1) / itemsize;
    return 1;
}

/* A C-contiguous length-k vector of ``typenum``. */
static int
check_vector(PyArrayObject *arr, int typenum, npy_intp k, const char *name)
{
    if (PyArray_TYPE(arr) != typenum || PyArray_NDIM(arr) != 1 ||
        PyArray_DIM(arr, 0) != k || !PyArray_IS_C_CONTIGUOUS(arr)) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a contiguous vector of length %zd", name, k);
        return 0;
    }
    return 1;
}

/* The float64 scratch: C-contiguous rows of at least k columns, one
 * row per panel position. */
static int
check_scratch(PyArrayObject *acc, npy_intp n, npy_intp k, npy_intp panel,
              npy_intp *lda)
{
    npy_intp rows = n < panel ? n : panel;
    if (panel < 1 || PyArray_TYPE(acc) != NPY_DOUBLE ||
        PyArray_NDIM(acc) != 2 || PyArray_DIM(acc, 0) < rows ||
        PyArray_DIM(acc, 1) < k || PyArray_STRIDE(acc, 1) != sizeof(npy_double) ||
        PyArray_STRIDE(acc, 0) % sizeof(npy_double) ||
        !PyArray_ISWRITEABLE(acc) || !PyArray_ISALIGNED(acc)) {
        PyErr_SetString(PyExc_ValueError,
                        "scratch must be a writeable float64 block with "
                        "min(n, panel) rows of at least k contiguous values");
        return 0;
    }
    *lda = PyArray_STRIDE(acc, 0) / sizeof(npy_double);
    return 1;
}

/* Row 0 of the folded scratch into the float64 vector ``out``. */
static void
finish_sumsq(npy_double *acc, npy_intp lda, npy_intp n, npy_intp k,
             npy_intp panel, npy_double *out)
{
    npy_intp j;
    if (n == 0) {
        for (j = 0; j < k; j++) {
            out[j] = 0.0;
        }
        return;
    }
    fold_rows_f64(acc, lda, n < panel ? n : panel, k);
    for (j = 0; j < k; j++) {
        out[j] = acc[j];
    }
}

static PyObject *
py_block_add_sumsq(PyObject *self, PyObject *args)
{
    PyArrayObject *A, *X, *scale, *acc, *out;
    Py_ssize_t panel;
    npy_intp n, k, ars, acs, xrs, xcs, lda;
    int typenum;

    if (!PyArg_ParseTuple(args, "O!O!O!O!nO!", &PyArray_Type, &A,
                          &PyArray_Type, &X, &PyArray_Type, &scale,
                          &PyArray_Type, &acc, &panel, &PyArray_Type, &out)) {
        return NULL;
    }
    typenum = PyArray_TYPE(A);
    if ((typenum != NPY_DOUBLE && typenum != NPY_FLOAT) ||
        PyArray_NDIM(A) != 2) {
        PyErr_SetString(PyExc_ValueError,
                        "A must be a float32 or float64 2-D block");
        return NULL;
    }
    n = PyArray_DIM(A, 0);
    k = PyArray_DIM(A, 1);
    if (!check_block(A, typenum, n, k, 1, "A", &ars, &acs) ||
        !check_block(X, typenum, n, k, 0, "X", &xrs, &xcs) ||
        !check_vector(scale, NPY_DOUBLE, k, "scale") ||
        !check_vector(out, NPY_DOUBLE, k, "out") ||
        !check_scratch(acc, n, k, panel, &lda)) {
        return NULL;
    }
    {
        npy_double *a = (npy_double *)PyArray_DATA(acc);
        const npy_double *sc = (const npy_double *)PyArray_DATA(scale);
        npy_double *o = (npy_double *)PyArray_DATA(out);
        Py_BEGIN_ALLOW_THREADS
        if (typenum == NPY_DOUBLE) {
            add_sumsq_f64((npy_double *)PyArray_DATA(A), ars, acs,
                          (const npy_double *)PyArray_DATA(X), xrs, xcs, sc,
                          n, k, panel, a, lda);
        }
        else {
            add_sumsq_f32((npy_float *)PyArray_DATA(A), ars, acs,
                          (const npy_float *)PyArray_DATA(X), xrs, xcs, sc,
                          n, k, panel, a, lda);
        }
        finish_sumsq(a, lda, n, k, panel, o);
        Py_END_ALLOW_THREADS
    }
    Py_RETURN_NONE;
}

static PyObject *
py_block_advance(PyObject *self, PyObject *args)
{
    PyArrayObject *W, *Xa, *V, *t1, *t2, *acc, *out;
    Py_ssize_t panel;
    npy_intp n, k, wrs, wcs, xrs, xcs, vrs, vcs, lda;
    int typenum;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!nO!", &PyArray_Type, &W,
                          &PyArray_Type, &Xa, &PyArray_Type, &V,
                          &PyArray_Type, &t1, &PyArray_Type, &t2,
                          &PyArray_Type, &acc, &panel, &PyArray_Type, &out)) {
        return NULL;
    }
    typenum = PyArray_TYPE(W);
    if ((typenum != NPY_DOUBLE && typenum != NPY_FLOAT) ||
        PyArray_NDIM(W) != 2) {
        PyErr_SetString(PyExc_ValueError,
                        "W must be a float32 or float64 2-D block");
        return NULL;
    }
    n = PyArray_DIM(W, 0);
    k = PyArray_DIM(W, 1);
    if (!check_block(W, typenum, n, k, 1, "W", &wrs, &wcs) ||
        !check_block(Xa, typenum, n, k, 1, "Xa", &xrs, &xcs) ||
        !check_block(V, typenum, n, k, 0, "V", &vrs, &vcs) ||
        !check_vector(t1, typenum, k, "t1") ||
        !check_vector(t2, typenum, k, "t2") ||
        !check_vector(out, NPY_DOUBLE, k, "out") ||
        !check_scratch(acc, n, k, panel, &lda)) {
        return NULL;
    }
    {
        npy_double *a = (npy_double *)PyArray_DATA(acc);
        npy_double *o = (npy_double *)PyArray_DATA(out);
        Py_BEGIN_ALLOW_THREADS
        if (typenum == NPY_DOUBLE) {
            advance_f64((npy_double *)PyArray_DATA(W), wrs, wcs,
                        (npy_double *)PyArray_DATA(Xa), xrs, xcs,
                        (const npy_double *)PyArray_DATA(V), vrs, vcs,
                        (const npy_double *)PyArray_DATA(t1),
                        (const npy_double *)PyArray_DATA(t2), n, k, panel,
                        a, lda);
        }
        else {
            advance_f32((npy_float *)PyArray_DATA(W), wrs, wcs,
                        (npy_float *)PyArray_DATA(Xa), xrs, xcs,
                        (const npy_float *)PyArray_DATA(V), vrs, vcs,
                        (const npy_float *)PyArray_DATA(t1),
                        (const npy_float *)PyArray_DATA(t2), n, k, panel,
                        a, lda);
        }
        finish_sumsq(a, lda, n, k, panel, o);
        Py_END_ALLOW_THREADS
    }
    Py_RETURN_NONE;
}

static PyObject *
py_block_divide(PyObject *self, PyObject *args)
{
    PyArrayObject *A, *d;
    npy_intp n, k, ars, acs;
    int typenum;

    if (!PyArg_ParseTuple(args, "O!O!", &PyArray_Type, &A, &PyArray_Type,
                          &d)) {
        return NULL;
    }
    typenum = PyArray_TYPE(A);
    if ((typenum != NPY_DOUBLE && typenum != NPY_FLOAT) ||
        PyArray_NDIM(A) != 2) {
        PyErr_SetString(PyExc_ValueError,
                        "A must be a float32 or float64 2-D block");
        return NULL;
    }
    n = PyArray_DIM(A, 0);
    k = PyArray_DIM(A, 1);
    if (!check_block(A, typenum, n, k, 1, "A", &ars, &acs) ||
        !check_vector(d, NPY_DOUBLE, k, "d")) {
        return NULL;
    }
    {
        const npy_double *dv = (const npy_double *)PyArray_DATA(d);
        Py_BEGIN_ALLOW_THREADS
        if (typenum == NPY_DOUBLE) {
            divide_f64((npy_double *)PyArray_DATA(A), ars, acs, dv, n, k);
        }
        else {
            divide_f32((npy_float *)PyArray_DATA(A), ars, acs, dv, n, k);
        }
        Py_END_ALLOW_THREADS
    }
    Py_RETURN_NONE;
}

static PyObject *
py_csr_transpose(PyObject *self, PyObject *args)
{
    PyArrayObject *data, *indices, *indptr, *t_data, *t_indices, *t_indptr;
    npy_intp n_rows, n_cols, nnz;
    int typenum;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!", &PyArray_Type, &data,
                          &PyArray_Type, &indices, &PyArray_Type, &indptr,
                          &PyArray_Type, &t_data, &PyArray_Type, &t_indices,
                          &PyArray_Type, &t_indptr)) {
        return NULL;
    }
    typenum = PyArray_TYPE(data);
    if (typenum != NPY_DOUBLE && typenum != NPY_FLOAT) {
        PyErr_SetString(PyExc_ValueError, "data must be float32 or float64");
        return NULL;
    }
    if (!check_array(data, typenum, 1, "data") ||
        !check_array(indices, NPY_INT64, 1, "indices") ||
        !check_array(indptr, NPY_INT64, 1, "indptr") ||
        !check_array(t_data, typenum, 1, "t_data") ||
        !check_array(t_indices, NPY_INT64, 1, "t_indices") ||
        !check_array(t_indptr, NPY_INT64, 1, "t_indptr")) {
        return NULL;
    }
    n_rows = PyArray_DIM(indptr, 0) - 1;
    n_cols = PyArray_DIM(t_indptr, 0) - 1;
    nnz = PyArray_DIM(data, 0);
    if (n_rows < 0 || n_cols < 0 || PyArray_DIM(indices, 0) != nnz ||
        PyArray_DIM(t_data, 0) != nnz || PyArray_DIM(t_indices, 0) != nnz) {
        PyErr_SetString(PyExc_ValueError, "inconsistent kernel shapes");
        return NULL;
    }
    {
        const npy_int64 *ind = (const npy_int64 *)PyArray_DATA(indices);
        const npy_int64 *ip = (const npy_int64 *)PyArray_DATA(indptr);
        npy_int64 *t_ind = (npy_int64 *)PyArray_DATA(t_indices);
        npy_int64 *t_ip = (npy_int64 *)PyArray_DATA(t_indptr);
        if (typenum == NPY_DOUBLE) {
            Py_BEGIN_ALLOW_THREADS
            transpose_f64((const npy_double *)PyArray_DATA(data), ind, ip,
                          n_rows, n_cols,
                          (npy_double *)PyArray_DATA(t_data), t_ind, t_ip);
            Py_END_ALLOW_THREADS
        }
        else {
            Py_BEGIN_ALLOW_THREADS
            transpose_f32((const npy_float *)PyArray_DATA(data), ind, ip,
                          n_rows, n_cols,
                          (npy_float *)PyArray_DATA(t_data), t_ind, t_ip);
            Py_END_ALLOW_THREADS
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
py_set_pairwise_seed(PyObject *self, PyObject *args)
{
    double seed;

    if (!PyArg_ParseTuple(args, "d", &seed)) {
        return NULL;
    }
    if (seed != 0.0) {
        PyErr_SetString(PyExc_ValueError, "the seed must be +0.0 or -0.0");
        return NULL;
    }
    pairwise_seed = seed;
    Py_RETURN_NONE;
}

static PyObject *
py_kernel_tile(PyObject *self, PyObject *noargs)
{
    return PyUnicode_FromString(tile_enabled ? "avx512f" : "none");
}

/* Test hook: run float64 block products on the tile (if the CPU has
 * it) or on the lane loop; returns whether the tile was on. */
static PyObject *
py_use_tile(PyObject *self, PyObject *args)
{
    int enable, previous = tile_enabled;

    if (!PyArg_ParseTuple(args, "p", &enable)) {
        return NULL;
    }
    if (enable && !tile_supported) {
        PyErr_SetString(PyExc_ValueError,
                        "this CPU or build has no AVX-512F tile");
        return NULL;
    }
    tile_enabled = enable;
    return PyBool_FromLong(previous);
}

/* ------------------------------------------------------------------ */
/* Module definition                                                   */
/* ------------------------------------------------------------------ */

static PyMethodDef csr_kernel_methods[] = {
    {"csr_matmat", py_csr_matmat, METH_VARARGS,
     "A @ B for C-contiguous B into an out of any strides (every row "
     "written, empty rows as zero), one pass over A, reduceat order per "
     "column."},
    {"csr_transpose", py_csr_transpose, METH_VARARGS,
     "Transpose arrays by stable counting sort into caller-allocated "
     "outputs."},
    {"block_add_sumsq", py_block_add_sumsq, METH_VARARGS,
     "A += X * scale in place; column sums of squares of A into out, in "
     "the pinned panel order."},
    {"block_advance", py_block_advance, METH_VARARGS,
     "Column sums of squares of W into out; then Xa += t1 * W and "
     "W = t2 * W + V in place."},
    {"block_divide", py_block_divide, METH_VARARGS,
     "A[:, j] /= d[j] in place (a divisor of 1 leaves the column as is)."},
    {"set_pairwise_seed", py_set_pairwise_seed, METH_VARARGS,
     "Seed zero (+0.0 or -0.0) of pairwise sums shorter than 8 terms."},
    {"kernel_tile", py_kernel_tile, METH_NOARGS,
     "The register tile float64 block products run on: 'avx512f' or "
     "'none' (the lane loop)."},
    {"_use_tile", py_use_tile, METH_VARARGS,
     "Test hook: switch the AVX-512F tile on or off; returns the previous "
     "state."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef csr_kernels_module = {
    PyModuleDef_HEAD_INIT,
    "_csr_kernels",
    "GIL-free compiled CSR kernels, bitwise-equal to the numpy reference.",
    -1,
    csr_kernel_methods,
};

PyMODINIT_FUNC
PyInit__csr_kernels(void)
{
    PyObject *module;
    import_array();
#if HAVE_TILE
    __builtin_cpu_init();
    tile_supported = tile_enabled = __builtin_cpu_supports("avx512f") != 0;
#endif
    module = PyModule_Create(&csr_kernels_module);
    if (module == NULL) {
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "PANEL_WIDTH", MM_PANEL) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
