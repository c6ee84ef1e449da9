"""Label-space similarity and embedding-space distance.

Distances feed the selection scores after per-batch min-max normalization;
the raw Euclidean values are kept alongside because the margin loss uses
them unnormalized. The batch distance matrix is the Gram form of exact
flat L2 search (Johnson, Douze and Jegou, arXiv 1702.08734) on centred,
rescaled rows, with the pairs it cannot tell from 0 re-measured exactly.
Exact k-nn retrieval follows the same design, so its screen (``gram_screen``),
rounding allowance and exact re-measure come from here too.
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


def label_similarity(a, b, kind: str = "cosine") -> float:
    """Soft pairwise similarity of two multi-label vectors, in [0, 1].

    Symmetric; exactly 1 for identical vectors, exactly 0 for disjoint
    label sets. ``kind`` is "cosine" (default) or "jaccard".
    """
    va = _check_binary_rows(np.atleast_1d(a))
    vb = _check_binary_rows(np.atleast_1d(b))
    if va.shape != vb.shape:
        raise ValueError(f"label vector length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    inter = float(va @ vb)
    if kind == "cosine":
        # sqrt(sa * sb) instead of sqrt(sa) * sqrt(sb): exact 1.0 for identical vectors
        return inter / np.sqrt(va.sum() * vb.sum())
    if kind == "jaccard":
        union = float(va.sum() + vb.sum() - inter)
        return inter / union
    raise ValueError(f"unknown label similarity kind {kind!r}")


def label_similarity_matrix(labels, kind: str = "cosine") -> np.ndarray:
    """All-pairs label similarity for a (B, N) 0/1 matrix."""
    arr = _check_binary_rows(np.asarray(labels))
    if arr.ndim != 2:
        raise ValueError(f"expected a (B, N) label matrix, got shape {arr.shape}")
    # plain: the counts of 0/1 products are exact integers in any order
    inter = arr @ arr.T
    sizes = arr.sum(axis=1)
    if kind == "cosine":
        return inter / np.sqrt(np.outer(sizes, sizes))
    if kind == "jaccard":
        union = sizes[:, None] + sizes[None, :] - inter
        return inter / union
    raise ValueError(f"unknown label similarity kind {kind!r}")


def _scaled_row_distances(x, rows_i, rows_j, exp: int = 0, y=None) -> np.ndarray:
    """``|x[rows_i[t]] - y[rows_j[t]]| * 2**-exp`` for every pair t (``y`` is
    ``x`` by default), from row differences rescaled before squaring
    (identical rows give exactly 0), in 1 MB chunks of rows."""
    y = x if y is None else y
    dist = np.empty(len(rows_i), dtype=np.float64)
    step = max(1, _CHUNK_VALUES // x.shape[1])
    for start in range(0, len(rows_i), step):
        part = slice(start, start + step)
        # in place: a fresh difference array took twice as long
        diff = x[rows_i[part]]
        diff -= y[rows_j[part]]
        if exp:
            np.ldexp(diff, -exp, out=diff)
        dist[part] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return dist


def padded_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for an (m, k) ``a`` and a (k, n) ``b``, computed with k and n
    zero-padded to a multiple of ``_GEMM_PAD``, so its bits are the same at
    any BLAS thread count; nothing is copied when both already are. The zero
    terms change no value, and the result may be a view of a wider product."""
    k, n = b.shape
    k_pad, n_pad = k + -k % _GEMM_PAD, n + -n % _GEMM_PAD
    if k_pad > k:
        a = np.concatenate((a, np.zeros((len(a), k_pad - k), dtype=a.dtype)), axis=1)
    if (k_pad, n_pad) != (k, n):
        wide = np.zeros((k_pad, n_pad), dtype=b.dtype)
        wide[:k, :n] = b
        b = wide
    return (a @ b)[:, :n]


def gram_screen(gram, sq_x, sq_y, d: int, allowances: float = 1.0) -> tuple:
    """``|x_i|^2 + |y_j|^2 - 2 x_i.y_j`` over the Gram products ``gram = x @ y.T`` of
    d-wide rows with squared norms ``sq_x``, ``sq_y``, and ``allowances`` times each one's allowance."""
    sq_sum = sq_x[:, None] + sq_y
    gram *= -2.0
    gram += sq_sum
    sq_sum += _FLOAT_TINY
    sq_sum *= allowances * _GRAM_ERR_PER_DIM * (d + 6)
    return gram, sq_sum


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
    gram, near_bound = gram_screen(padded_matmul(scaled, scaled.T), sq, sq, d, _REMEASURE_ALLOWANCES)
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
        exact = _scaled_row_distances(x, rows_i, rows_j, exp)
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
