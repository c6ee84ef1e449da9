"""Independent numpy reference for evaluation results.

It embeds with the weights directly, finds exact Euclidean neighbours with
the lowest-index tie rule, and macro-averages the four multi-label metrics,
without calling the package. Neighbour candidates come from one GEMM per
block of queries; each candidate whose approximate squared distance could
fall inside the top k (allowing a bound on the GEMM's rounding error) is
then measured exactly from row differences, so the result is exact.
"""

from __future__ import annotations

import numpy as np


def embed(weights, biases, x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if layer < len(weights) - 1:
            a = np.maximum(a, 0.0)
    return a


def knn(queries, archive, k: int) -> np.ndarray:
    """(Q, k) archive indices of each query's k nearest rows, nearest first,
    ties broken toward the lower index."""
    a_sq = np.einsum("ij,ij->i", archive, archive)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], 64):
        qb = queries[start:start + 64]
        q_sq = np.einsum("ij,ij->i", qb, qb)
        approx = q_sq[:, None] + a_sq[None, :] - 2.0 * (qb @ archive.T)
        for r, q in enumerate(qb):
            row = approx[r]
            cand = np.argpartition(row, k - 1)[:k]
            worst = float(((archive[cand] - q) ** 2).sum(axis=1).max())
            tol = 1e-9 * (q_sq[r] + a_sq.max()) + 1e-300
            pool = np.flatnonzero(row <= worst + tol)
            dist = np.sqrt(((archive[pool] - q) ** 2).sum(axis=1))
            out[start + r] = pool[np.lexsort((pool, dist))[:k]]
    return out


def metrics(query_labels, archive_labels, neighbours) -> np.ndarray:
    """Macro (accuracy, precision, recall, f1): per pair, averaged over each
    query's neighbours, then over queries; f1 is 0 when precision + recall is 0."""
    q = np.asarray(query_labels, dtype=np.int64)[:, None, :]
    r = np.asarray(archive_labels, dtype=np.int64)[neighbours]
    inter = (q & r).sum(axis=2).astype(np.float64)
    nq = q.sum(axis=2).astype(np.float64)
    nr = r.sum(axis=2).astype(np.float64)
    acc = inter / (nq + nr - inter)
    prec = inter / nr
    rec = inter / nq
    denom = prec + rec
    f1 = np.divide(2.0 * prec * rec, denom, out=np.zeros_like(denom), where=denom > 0)
    return np.array([m.mean(axis=1).mean() for m in (acc, prec, rec, f1)])
