"""Label-space similarity and embedding-space distance.

Distances feed the selection scores after per-batch min-max normalization;
the raw Euclidean values are kept alongside because the margin loss uses
them unnormalized. The batch distance matrix is the Gram form of exact
flat L2 search (Johnson, Douze and Jegou, arXiv 1702.08734) on centred,
rescaled rows, with the pairs it cannot tell from 0 re-measured exactly.
Exact k-nn retrieval follows the same design, so its rounding allowance
(``_gram_allowance``, derived at ``_GRAM_ERR_PER_DIM``) and exact re-measure
come from here too.
"""

from __future__ import annotations

import numpy as np

_FLOAT_TINY = np.finfo(np.float64).tiny
# float64 values of row differences held at once (1 MB)
_CHUNK_VALUES = 1 << 17
# ``padded_matmul`` zero-pads a product's inner and output dimensions to a
# multiple of this, which keeps its bits the same at any BLAS thread count.
# With OpenBLAS 0.3.31 on a 2-core AVX-512 Xeon VM, unpadded, 245 of 858 Gram
# shapes (B 2-300, d 3-2048) and inner dimensions past 384 (the Gram product of
# (100, 500) rows, a 400-row batch's backward) differed at 1 and 2 threads.
_GEMM_PAD = 32
# OpenBLAS 0.3.31 multiplies a product of at most _SMALL_GEMM_MNK m n k (its
# padded shape) in a small-matrix kernel, which past an inner dimension of
# _SMALL_GEMM_MAX_K sums in another order than the blocked kernel. On the VM
# above, at 1 and 2 threads, row 0 of a product of m rows differed from the
# same row of a 1,100-row product at every m up to 10**6 // (n k) for inner
# dimensions 400-4096 into 32-128 columns, and at no m for inner dimensions
# up to 384 or for m past that bound (``padded_matmul`` pads a short product
# past it; ``TestPaddedMatmul`` scans heights 1-300)
_SMALL_GEMM_MNK = 10**6
_SMALL_GEMM_MAX_K = 384
# Rounding allowance of a Gram-form squared distance g = |x|^2 + |y|^2 - 2 x.y
# of d-wide rows, per dimension, in units of S = |x|^2 + |y|^2 (u = 2**-53).
# A d-term dot product in any order is within d u times the sum of its
# |products| (Higham, Accuracy and Stability of Numerical Algorithms, sec.
# 3.1), so g is within (2 d + 3) u S of the squared distance t (d u S from the
# norms, d u S from 2 x.y, 3 u S from the two sums), 4 u S more on the batch
# matrix's centred rows. A distance r from row differences
# (``_scaled_row_distances``) has r^2 within (d + 6) u t of t, and t <= 2 S.
# So A = 8 (d + 6) u S is over twice the (4 d + 15) u S |g - r^2| can reach:
# keeping each row whose g - A is at most the largest g + A of k rows keeps
# every row as near as the k-th, rounding included. Underflow can add half the
# smallest subnormal to each of the 4 d products in g and d squares in r^2 (rows
# scaled into subnormals far less); A's term in the smallest normal is 8 d + 48 halves.
#
# The k-nn screen (``retrieval.knn_retrieve``) leaves out the query's |q|^2,
# the same for every archive row, and takes s = (-2 q).a + |a|^2. Doubling q
# is exact, so s carries d u S from the dot product, d u S from |a|^2 and
# u |s| <= 2 u S from its one sum: (2 d + 2) u S, against the (2 d + 3) u S of
# g, whose |q|^2 and second sum it does without. So s + |q|^2, with |q|^2
# exact (its rounding never enters a comparison), is within (4 d + 14) u S of
# r^2. With S_q = |q|^2 + max |a|^2 + tiny, at least the S of each pair in the
# query's row, E = (4 d + 14) u S_q bounds that for the whole row, and the
# query takes one allowance A_q = 8 (d + 6) u S_q; computed norms, their sum
# and the product lose under (d + 4) u of it. If s_k is the query's k-th
# smallest s, its k best rows have r^2 <= s_k + |q|^2 + E, so each row as
# near as the k-th has s <= s_k + 2 E. Keeping s <= s_k + 2 A_q keeps it:
# |s_k| <= 2 S_q, so the threshold's sum rounds by under 2.01 u S_q, and
# 2 E + 2.01 u S_q falls short of 2 A_q by over (8 d + 65) u S_q.
# Underflow: the d products of the doubled q, the d squares of |a|^2 and those
# of r^2 add 3 d half-subnormals to E, within A_q's 8 d + 48.
#
# A float32 screen (``evaluate``'s archive rows b, from
# ``embedder.float32_rows``) does the same sums with u = 2**-24 and
# float32's tiny, so the same A_q in those units covers them
# (``_gram_allowance(d, np.float32)``). The query is cast to float32, which
# moves 2 q.b by at most 2 u |q| |b| <= u S_q, inside A_q's slack. Each b
# stands for the float64 row a it screens, |b - a| <= e (``float32_rows``
# derives e), and ||b|^2 - 2 q.b - |a|^2 + 2 q.a| <= 2 |q| e + e (2 R + e)
# with R >= max |b|: added to E on both sides of the threshold, that term,
# grown by 2 (d + 8) u to cover the computed norms' rounding and the float64
# re-measure's (d + 6) u t on the part of t that e adds, is the rest of the
# query's margin. The candidates are then ranked on r from their float64
# rows, so the result is the float64 search's.
_GRAM_ERR_PER_DIM = 8 * 2.0**-53
# Pairs whose Gram value is at most this many allowances are re-measured from
# row differences; every other one is over 2**41 times its rounding error, so
# its distance is within 2**-42 of the exact one, relative, plus the sqrt's rounding.
_REMEASURE_ALLOWANCES = 2.0**39


def _check_binary_rows(labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("label entries must be 0 or 1")
    arr = arr.astype(np.float64)
    if (arr.sum(axis=-1) == 0).any():
        raise ValueError("label vector must have at least one set bit")
    return arr


def label_similarity_matrix(labels) -> np.ndarray:
    """All-pairs cosine similarity of a (B, N) 0/1 label matrix: symmetric,
    in [0, 1], exactly 1 for identical rows and exactly 0 for disjoint
    label sets. An all-zero row raises ``ValueError``."""
    arr = _check_binary_rows(np.asarray(labels))
    if arr.ndim != 2:
        raise ValueError(f"expected a (B, N) label matrix, got shape {arr.shape}")
    # plain: the counts of 0/1 products are exact integers in any order
    inter = arr @ arr.T
    sizes = arr.sum(axis=1)
    # sqrt(s_i * s_j) instead of sqrt(s_i) * sqrt(s_j): exactly 1 for identical rows
    return inter / np.sqrt(np.outer(sizes, sizes))


@np.errstate(over="ignore")
def _scaled_row_distances(x, rows_i, rows_j, y=None) -> np.ndarray:
    """``|x[rows_i[t]] - y[rows_j[t]]|`` for every pair t (``y`` is ``x`` by
    default), from row differences in 1 MB chunks of rows. A nonzero one
    whose square sum overflows or leaves the normal range is summed again at
    the power of two that puts its largest entry in [0.5, 1), exactly."""
    y = x if y is None else y
    dist = np.empty(len(rows_i), dtype=np.float64)
    step = max(1, _CHUNK_VALUES // x.shape[1])
    for start in range(0, len(rows_i), step):
        part = slice(start, start + step)
        # in place: a fresh difference array took twice as long
        diff = x[rows_i[part]]
        diff -= y[rows_j[part]]
        sq = np.einsum("ij,ij->i", diff, diff)
        odd = np.flatnonzero(~((sq >= _FLOAT_TINY) & (sq < np.inf)))
        odd = odd[diff[odd].any(axis=1)]
        dist[part] = np.sqrt(sq)
        if odd.size:
            exp = np.frexp(np.abs(diff[odd]).max(axis=1))[1]
            far = np.ldexp(diff[odd], -exp[:, None])
            dist[start + odd] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", far, far)), exp)
    return dist


def padded_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for an (m, k) ``a`` and a (k, n) ``b``, computed with k and n
    zero-padded to a multiple of ``_GEMM_PAD``, so its bits are the same at
    any BLAS thread count. A row of the result has the same bits at any m
    for a row-major ``b``: a one-row ``a`` is multiplied as two rows (numpy
    would send it through matrix-vector code, which sums in another order),
    and past an inner dimension of ``_SMALL_GEMM_MAX_K`` a short ``a`` as
    enough rows to leave OpenBLAS's small-matrix kernel (``_SMALL_GEMM_MNK``).
    Nothing is copied when nothing is padded; the zero terms and rows change
    no value, and the result may be a view of a larger product."""
    m, (k, n) = len(a), b.shape
    k_pad, n_pad = k + -k % _GEMM_PAD, n + -n % _GEMM_PAD
    rows = max(m, 2, _SMALL_GEMM_MNK // (k_pad * n_pad) + 1 if k_pad > _SMALL_GEMM_MAX_K else 0)
    if k_pad > k or rows > m:
        wide = np.zeros((rows, k_pad), dtype=a.dtype)
        wide[:m, :k] = a
        a = wide
    if (k_pad, n_pad) != (k, n):
        wide = np.zeros((k_pad, n_pad), dtype=b.dtype)
        wide[:k, :n] = b
        b = wide
    return (a @ b)[:m, :n]


def _gram_allowance(d: int, dtype=np.float64) -> float:
    """Rounding allowance of a Gram-form squared distance of d-wide rows
    computed in ``dtype`` (float64 or float32), per unit of ``|x|^2 + |y|^2
    + tiny`` (``_GRAM_ERR_PER_DIM``)."""
    # float32's unit roundoff is 2**29 times float64's
    return (d + 6) * _GRAM_ERR_PER_DIM * (2.0**29 if dtype == np.float32 else 1.0)


def pairwise_euclidean(embeddings) -> np.ndarray:
    """All-pairs Euclidean distance matrix for a (B, d) array.

    The rows are centred on the column mean and rescaled by a power of two
    so the largest entry lies in [0.5, 1); the squared distances
    ``|x_i|^2 + |x_j|^2 - 2 x_i.x_j`` then come from one GEMM. Every pair
    whose Gram value is within ``_REMEASURE_ALLOWANCES`` rounding allowances
    of 0 is re-measured from its rescaled row difference, so identical rows
    are exactly 0 apart. Each entry is within 2**-41 + (d + 4) * 2**-53 of
    the exact distance, relative. The result is exactly symmetric with an
    exactly zero diagonal, and ``padded_matmul`` keeps it bit-identical
    across BLAS thread counts. A distance beyond the float64 range raises
    ``ValueError``.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (B, d) embedding matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("embeddings contain non-finite values")
    b, d = x.shape
    if b < 2:
        return np.zeros((b, b), dtype=np.float64)
    lo, hi = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        # a mean that overflowed falls back into the column's range, so a
        # centred entry overflows only if the column's spread does
        centre = np.fmin(np.fmax(x.mean(axis=0), lo), hi)
        scaled = x - centre
        # the centred entries of the rows holding lo and hi are the extremes
        top = max(np.max(hi - centre, initial=0.0), np.max(centre - lo, initial=0.0))
    if not np.isfinite(top):
        raise ValueError("embedding distances overflow float64")
    if top == 0.0:
        return np.zeros((b, b), dtype=np.float64)
    exp = int(np.frexp(top)[1])
    np.ldexp(scaled, -exp, out=scaled)
    sq = np.einsum("ij,ij->i", scaled, scaled)
    gram = padded_matmul(scaled, scaled.T)
    near_bound = sq[:, None] + sq
    gram *= -2.0
    gram += near_bound
    near_bound += _FLOAT_TINY
    near_bound *= _REMEASURE_ALLOWANCES * _gram_allowance(d)
    # both triangles hold each pair's value up to rounding; the smaller one
    # makes the matrix exactly symmetric
    dist = np.minimum(gram, gram.T)
    near = dist <= near_bound
    np.fill_diagonal(near, False)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, 0.0)
    if near.any():
        rows_i, rows_j = np.nonzero(np.triu(near))
        exact = np.ldexp(_scaled_row_distances(x, rows_i, rows_j), -exp)
        dist[rows_i, rows_j] = exact
        dist[rows_j, rows_i] = exact
    with np.errstate(over="ignore"):
        np.ldexp(dist, exp, out=dist)
    if not np.isfinite(dist).all():
        raise ValueError("embedding distances overflow float64")
    return dist


def minmax_normalize(dist_raw) -> np.ndarray:
    """Rescale a raw distance matrix to [0, 1] using batch min-max statistics.

    Min and max are taken over off-diagonal entries only (the zero diagonal
    would otherwise pin the minimum); the diagonal stays 0. A degenerate
    batch (max == min) maps every off-diagonal entry to 0.
    """
    d = np.asarray(dist_raw, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    b = d.shape[0]
    if b < 2:
        raise ValueError("min-max normalization needs at least 2 batch items")
    if not np.isfinite(d).all():
        raise ValueError("distance matrix contains non-finite values")
    if np.diagonal(d).any():
        raise ValueError("distance matrix must have a zero diagonal")
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    # off-diagonal extremes from a copy whose diagonal cannot be either one;
    # a boolean-mask gather of the off-diagonal entries took 1.5x as long
    norm = d.copy()
    np.fill_diagonal(norm, np.inf)
    lo = norm.min()
    np.fill_diagonal(norm, -np.inf)
    hi = norm.max()
    if not hi > lo:
        return np.zeros_like(d)
    norm -= lo
    norm /= hi - lo
    np.fill_diagonal(norm, 0.0)
    return norm
