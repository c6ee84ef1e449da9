"""Label-space similarity and embedding-space distance.

Distances feed the selection scores after per-batch min-max normalization;
the raw Euclidean values are kept alongside because the margin loss uses
them unnormalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DistancePair:
    """One pairwise distance in raw Euclidean units and batch-normalized form."""

    raw: float
    norm: float


def _check_binary_rows(labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if not np.isin(arr, (0, 1)).all():
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
    inter = arr @ arr.T
    sizes = arr.sum(axis=1)
    if kind == "cosine":
        return inter / np.sqrt(np.outer(sizes, sizes))
    if kind == "jaccard":
        union = sizes[:, None] + sizes[None, :] - inter
        return inter / union
    raise ValueError(f"unknown label similarity kind {kind!r}")


def pairwise_euclidean(embeddings) -> np.ndarray:
    """Exact all-pairs Euclidean distance matrix for a (B, d) array.

    Computed from row differences (not the Gram-matrix shortcut) so the
    result is accurate, exactly symmetric, and has an exactly zero diagonal.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (B, d) embedding matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("embeddings contain non-finite values")
    b = x.shape[0]
    dist = np.zeros((b, b), dtype=np.float64)
    # one difference buffer for every row; row i uses its first b - 1 - i rows
    buf = np.empty((max(b - 1, 0), x.shape[1]), dtype=np.float64)
    for i in range(b - 1):
        diff = np.subtract(x[i + 1 :], x[i], out=buf[: b - 1 - i])
        row = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
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
    if np.diagonal(d).any():
        raise ValueError("distance matrix must have a zero diagonal")
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    off = ~np.eye(b, dtype=bool)
    lo = d[off].min()
    hi = d[off].max()
    norm = np.zeros_like(d)
    if hi > lo:
        norm[off] = (d[off] - lo) / (hi - lo)
    return norm
