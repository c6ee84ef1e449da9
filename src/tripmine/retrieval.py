"""Exact k-nn retrieval over archive embeddings and multi-label metrics.

Retrieval is exact flat search, the design of FAISS's exact index (Johnson,
Douze and Jegou, arXiv 1702.08734) in numpy: one GEMM screens a block of
queries against the whole archive, and the rows the screen cannot rule out
are re-measured from row differences. Metric averaging is macro: per-pair
metrics are averaged over the k retrieved items of a query, then over
queries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import embedder as emb_mod
from .core import as_table
from .similarity import _GRAM_ERR_PER_DIM, _check_binary_rows, _scaled_row_distances

# queries screened per GEMM, fewer when the (block, M) float64 screen
# would exceed _SCREEN_VALUES (16 MB) for a large archive
_QUERY_BLOCK = 64
_SCREEN_VALUES = 1 << 21
# squared norms stay this far below the float64 maximum, so no norm sum,
# Gram term or squared row difference overflows
_NORM_HEADROOM = 8.0


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float


def _squared_norms(x, what: str) -> np.ndarray:
    sq = np.einsum("ij,ij->i", x, x)
    if not np.isfinite(_NORM_HEADROOM * sq.max(initial=0.0)):
        raise ValueError(f"{what} embeddings contain non-finite values or overflow float64 distances")
    return sq


def knn_retrieve(query_embedding, archive, k: int, exclude_index=None, archive_sq_norms=None):
    """Indices and distances of the k nearest archive rows, exact Euclidean.

    A 1-D query gives (k,) arrays and takes one ``exclude_index`` (int or
    None); a (Q, d) block gives (Q, k) arrays and takes None or one entry
    per query. Distances are those of the row differences; ties break
    toward the lowest archive index; an excluded row (the query's own
    archive row, when the query is part of the archive) is never returned.
    ``archive_sq_norms``, when given, must be the archive rows' squared
    norms as ``_squared_norms`` returns them (it rejected non-finite and
    overflowing archives already); by default they are computed here.

    Per block of queries, one GEMM gives approximate squared distances to
    every archive row; the exact distances of the k best of those bound the
    k-th exact distance from above, and every row the screen's rounding
    allowance cannot place beyond that bound is measured exactly and ranked.
    """
    q = np.asarray(query_embedding, dtype=np.float64)
    single = q.ndim < 2
    if single:
        q = q.reshape(1, -1)
        exclude_index = [exclude_index]
    a = np.asarray(archive, dtype=np.float64)
    if q.ndim != 2 or a.ndim != 2 or a.shape[1] != q.shape[1]:
        raise ValueError(f"archive shape {a.shape} does not match query shape {q.shape}")
    n_q, m = q.shape[0], a.shape[0]
    excl = [None] * n_q if exclude_index is None else list(exclude_index)
    if len(excl) != n_q:
        raise ValueError(f"{len(excl)} exclude indices for {n_q} queries")
    if any(e is not None and not 0 <= e < m for e in excl):
        raise ValueError(f"exclude indices must lie in [0, {m})")
    usable = m - (1 if any(e is not None for e in excl) else 0)
    if k < 1 or k > usable:
        raise ValueError(f"k={k} must be between 1 and {usable}")
    if archive_sq_norms is None:
        a_sq = _squared_norms(a, "archive")
    else:
        a_sq = np.asarray(archive_sq_norms, dtype=np.float64)
        if a_sq.shape != (m,):
            raise ValueError(f"{a_sq.shape} archive norms for {m} archive rows")
    q_sq = _squared_norms(q, "query")
    slack = _GRAM_ERR_PER_DIM * (q.shape[1] + 6)
    block = max(1, min(_QUERY_BLOCK, _SCREEN_VALUES // m))
    idx = np.empty((n_q, k), dtype=np.intp)
    dist = np.empty((n_q, k), dtype=np.float64)
    for start in range(0, n_q, block):
        qb, qb_sq = q[start : start + block], q_sq[start : start + block, None]
        rows = np.arange(qb.shape[0])
        ex_rows = [r for r in rows if excl[start + r] is not None]
        ex_cols = [excl[start + r] for r in ex_rows]
        # plain: the allowance and the exact re-measure decide the result
        screen = qb_sq + a_sq - 2.0 * (qb @ a.T)
        screen[ex_rows, ex_cols] = np.inf
        # any k usable rows bound the k-th exact distance from above
        cand = np.argpartition(screen, k - 1, axis=1)[:, :k]
        worst = _scaled_row_distances(qb, np.repeat(rows, k), cand.ravel(), y=a).reshape(-1, k).max(axis=1)
        w2 = (worst * worst)[:, None]
        allowance = slack * (2.0 * (qb_sq + a_sq) + np.finfo(np.float64).tiny)
        keep = screen <= w2 * (1.0 + slack) + allowance
        # the allowance keeps every row whose exact distance can be <= worst,
        # the candidates among them, so each query keeps at least k rows.
        # nonzero lists the pairs by query, then by archive index, and
        # lexsort is stable: each query's pairs stay one run, ordered by
        # distance with equal distances in index order
        q_rows, a_rows = np.nonzero(keep)
        exact = _scaled_row_distances(qb, q_rows, a_rows, y=a)
        order = np.lexsort((exact, q_rows))
        take = order[np.searchsorted(q_rows, rows)[:, None] + np.arange(k)]
        idx[start : start + len(rows)] = a_rows[take]
        dist[start : start + len(rows)] = exact[take]
    if single:
        return idx[0], dist[0]
    return idx, dist


def pair_metrics(query_labels, retrieved_labels) -> tuple:
    """(accuracy, precision, recall, f1) of query/retrieved label vectors.

    With I the label intersection size: accuracy = I / |union|,
    precision = I / |retrieved|, recall = I / |query|, and f1 the harmonic
    mean with the 0/0 -> 0 rule. Labels lie on the last axis and leading
    axes broadcast; each metric has the broadcast leading shape, and two
    1-D vectors give four Python floats. Entries must be 0 or 1, with at
    least one set per vector, as for ``similarity.label_similarity``.
    """
    q = np.asarray(query_labels)
    r = np.asarray(retrieved_labels)
    if q.ndim == 0 or r.ndim == 0 or q.shape[-1] != r.shape[-1]:
        raise ValueError(f"label length mismatch: {q.shape} vs {r.shape}")
    # 0/1 float64 rows, so every count below is an exact integer
    q, r = _check_binary_rows(q), _check_binary_rows(r)
    nq, nr = q.sum(axis=-1), r.sum(axis=-1)
    inter = (q * r).sum(axis=-1)
    union = nq + nr - inter
    acc = inter / union
    prec = inter / nr
    rec = inter / nq
    with np.errstate(invalid="ignore"):
        f1 = np.where(prec + rec == 0, 0.0, 2.0 * prec * rec / (prec + rec))
    if f1.ndim == 0:
        return float(acc), float(prec), float(rec), float(f1)
    return acc, prec, rec, f1


def default_k(archive_size: int) -> int:
    """30 for large archives (>= 10000 items), 10 otherwise."""
    return 30 if archive_size >= 10_000 else 10


def _bits(x) -> np.ndarray:
    """float64 values of ``x`` as raw bits, so -0.0 differs from 0.0."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@dataclass(frozen=True)
class _ArchiveEmbedding:
    """An archive's embeddings and squared norms with bit copies of all they
    depend on: the net's parameters, its ``l2_normalize`` flag and the
    archive feature matrix."""

    params: tuple
    l2_normalize: bool
    features: np.ndarray
    embeddings: np.ndarray
    sq_norms: np.ndarray

    def matches(self, net, features) -> bool:
        # the parameters first: they are small, the archive is not
        params = emb_mod.parameters(net)
        return (
            bool(net.l2_normalize) == self.l2_normalize
            and len(params) == len(self.params)
            and all(np.array_equal(_bits(p), c) for p, c in zip(params, self.params))
            and np.array_equal(_bits(features), _bits(self.features))
        )


# The last archive ``evaluate`` embedded. Only the latest is kept: callers
# search one archive many times (each evaluate call a block of its queries,
# or one evaluation per epoch of a net trained in place).
_archive_memo = None


def _embed_archive(net, features):
    """Embeddings and squared norms of the archive features, reused while the
    net's parameters, ``l2_normalize`` and the features are bit-identical to
    the last call's."""
    global _archive_memo
    memo = _archive_memo
    if memo is not None and memo.matches(net, features):
        return memo.embeddings, memo.sq_norms
    # drop the old embedding before forward allocates the new one
    _archive_memo = memo = None
    emb = emb_mod.forward(net, features)
    sq = _squared_norms(emb, "archive")
    _archive_memo = _ArchiveEmbedding(
        params=tuple(_bits(p).copy() for p in emb_mod.parameters(net)),
        l2_normalize=bool(net.l2_normalize),
        # a copy: the caller's table may be edited in place after this call
        features=features.copy(),
        embeddings=emb,
        sq_norms=sq,
    )
    return emb, sq


def evaluate(net, queries, archive, k: int) -> MetricReport:
    """Embed both splits, retrieve top-k per query, macro-average the metrics.

    ``queries`` and ``archive`` are ``SampleTable``s or sequences of
    ``Sample``. A query that is also present in the archive (matched by id)
    never retrieves the archive row with that id. The archive's
    embeddings are reused from the previous call while the net's weights,
    biases and ``l2_normalize`` and the archive's feature matrix are
    bit-identical to that call's.
    """
    if not queries or not archive:
        raise ValueError("queries and archive must be nonempty")
    queries, archive = as_table(queries), as_table(archive)
    q_emb = emb_mod.forward(net, queries.features)
    a_emb, a_sq = _embed_archive(net, archive.features)
    row_of = archive.row_of
    exclude = [row_of.get(i) for i in queries.ids]
    idxs, _ = knn_retrieve(q_emb, a_emb, k, exclude_index=exclude, archive_sq_norms=a_sq)
    metrics = np.stack(pair_metrics(queries.labels[:, None, :], archive.labels[idxs]), axis=-1)
    # cumsum adds strictly left to right: neighbors in rank order, then
    # queries in order, as a per-query loop would
    per_query = np.cumsum(metrics, axis=1)[:, -1] / k
    totals = np.cumsum(per_query, axis=0)[-1]
    acc, prec, rec, f1 = (totals / len(queries)).tolist()
    return MetricReport(accuracy=acc, precision=prec, recall=rec, f1=f1)


def write_metrics_csv(rows, path) -> None:
    """``rows`` is a list of (method_name, MetricReport); values are raw fractions."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "accuracy", "precision", "recall", "f1"])
        for name, rep in rows:
            writer.writerow([name] + [repr(float(v)) for v in (rep.accuracy, rep.precision, rep.recall, rep.f1)])


def format_metric_table(rows) -> str:
    """Aligned plain-text table, metrics in percent with one decimal."""
    header = ("Method", "Accuracy", "Precision", "Recall", "F1")
    body = [
        (name,) + tuple(f"{100.0 * v:.1f}" for v in (rep.accuracy, rep.precision, rep.recall, rep.f1))
        for name, rep in rows
    ]
    widths = [max(len(col), *(len(r[i]) for r in body)) for i, col in enumerate(header)]
    def fmt(row):
        cells = [row[0].ljust(widths[0])] + [row[i].rjust(widths[i]) for i in range(1, len(row))]
        return "  ".join(cells)
    return "\n".join([fmt(header)] + [fmt(r) for r in body])
