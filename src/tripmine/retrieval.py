"""Exact k-nn retrieval over archive embeddings and multi-label metrics.

Retrieval is exact flat search, the design of FAISS's exact index (Johnson,
Douze and Jegou, arXiv 1702.08734) in numpy: one GEMM screens a block of
queries against the whole archive, each query with one rounding allowance,
and the rows the screen cannot rule out are re-measured from row
differences. ``evaluate`` searches the rows training measures
(``embedder.forward``). It screens on those rows computed in float32, each
query's allowance widened by their a-priori error bound (both from
``embedder.float32_rows``), and ranks the candidates on their float64 rows,
so its reports are those of the float64 search. Nets whose rows float32
cannot carry (``float32_rows`` returns None) are screened in float64.
Metric averaging is macro: per-pair metrics are averaged over the k
retrieved items of a query, then over queries.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass

import numpy as np

from . import embedder as emb_mod
from .core import float32_or_float64
from .similarity import _check_binary_rows, _gram_allowance, _scaled_row_distances

# screen values per query block (16 MB in float64): a block holds this many
# divided by the archive size queries, at least one; candidates pending a
# re-measure are ranked once they reach as many
_SCREEN_VALUES = 1 << 21


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float


def metric_cells(rep: MetricReport) -> list:
    """The four metrics of ``rep`` as CSV cells, each its float's repr."""
    return [repr(float(v)) for v in astuple(rep)]


@np.errstate(over="ignore")
def knn_retrieve(query_embedding, archive, k: int, exclude_index=None, row_error: float = 0.0,
                 exact_rows=None):
    """Indices and distances of the k nearest archive rows, exact Euclidean.

    ``query_embedding`` is a (Q, d) block and the result two (Q, k) arrays;
    ``exclude_index`` is None or one entry (an index or None) per query.
    Distances are those of the row differences (``inf`` beyond
    float64); ties break toward the lowest archive index; an excluded row
    (the query's own archive row, when the query is part of the archive) is
    never returned. Non-finite rows raise ``ValueError``.

    ``archive`` is screened in its own precision, float32 or float64 (any
    other type is taken as float64). Its rows may be screen rows, each
    within ``row_error`` (Euclidean) of the archive row it stands for, with
    ``exact_rows(indices)`` returning those archive rows in float64 for an
    increasing index array; without
    ``exact_rows`` the archive rows are ``archive`` itself.

    Per block of queries, one GEMM gives every archive row's screen value
    ``|a|^2 - 2 q.a``, the squared distance less the query's own ``|q|^2``.
    Each query has one rounding allowance, from ``|q|^2`` and the largest
    ``|a|^2`` (``similarity._GRAM_ERR_PER_DIM``), widened by the screen
    rows' error ``2 |q| e + e (2 R + e)``, R the largest screen-row norm;
    every row whose screen value is within two allowances of the query's
    k-th smallest is a candidate. The candidates of all blocks are fetched
    from ``exact_rows`` at once, measured from row differences and ranked.
    A block holds one (Q, M) screen and the copy ``np.partition`` makes of
    it; the pending candidates are ranked before a block whose pairs would
    take them past one screen's size, so they never outnumber the larger of
    one screen and one block's pairs. Rows whose squares could overflow, or
    an archive of subnormal squares, are screened at one power-of-two scale
    2**-s; the re-measure scales each difference itself.
    """
    q = np.asarray(query_embedding, dtype=np.float64)
    a = float32_or_float64(archive)
    if q.ndim != 2 or a.ndim != 2 or a.shape[1] != q.shape[1]:
        raise ValueError(f"archive shape {a.shape} does not match query block shape {q.shape}")
    n_q, m = q.shape[0], a.shape[0]
    excl = [None] * n_q if exclude_index is None else list(exclude_index)
    if len(excl) != n_q:
        raise ValueError(f"{len(excl)} exclude indices for {n_q} queries")
    if any(e is not None and not 0 <= e < m for e in excl):
        raise ValueError(f"exclude indices must lie in [0, {m})")
    usable = m - (1 if any(e is not None for e in excl) else 0)
    if k < 1 or k > usable:
        raise ValueError(f"k={k} must be between 1 and {usable}")
    if not 0.0 <= row_error < np.inf:
        raise ValueError(f"row_error must be finite and non-negative, got {row_error}")
    info = np.finfo(a.dtype)
    screen_q, screen_a, scale_exp = q.astype(a.dtype, copy=False), a, 0
    q_sq, a_sq = (np.einsum("ij,ij->i", r, r) for r in (screen_q, screen_a))
    # every term of the screen is at most 4 max |row|^2, so below 8 max
    # |row|^2 <= the type's largest: compared, not multiplied, whatever type
    # numpy gives a float32 scalar times a float. False for a non-finite row
    limit = float(info.max) / 8.0
    if not (q_sq.max(initial=0.0) <= limit and info.tiny <= a_sq.max() <= limit):
        for rows, what in ((q, "query"), (a, "archive")):
            if not np.isfinite(rows).all():
                raise ValueError(f"{what} embeddings contain non-finite values")
        # entries below 2**(maxexp / 2 - 3 - bit_length(d) // 2) keep that finite
        top = max(np.abs(q).max(initial=0.0), np.abs(a).max())
        scale_exp = int(np.frexp(top)[1]) - (info.maxexp // 2 - 3) + q.shape[1].bit_length() // 2
        screen_q, screen_a = np.ldexp(q, -scale_exp).astype(a.dtype), np.ldexp(a, -scale_exp)
        q_sq, a_sq = (np.einsum("ij,ij->i", r, r) for r in (screen_q, screen_a))
    block = max(1, _SCREEN_VALUES // m)
    # each query's |q|^2 is left out of its screen row, and its one allowance
    # covers every pair of the row (similarity._GRAM_ERR_PER_DIM); doubled,
    # it is the margin a row may screen above the query's k-th
    margin = q_sq.astype(np.float64) + (float(a_sq.max()) + float(info.tiny))
    margin *= 2.0 * _gram_allowance(q.shape[1], a.dtype)
    if row_error:
        # the screen rows' error, at the screen's scale, with the computed
        # norms grown to cover their rounding
        e, grow = np.ldexp(row_error, -scale_exp), 1.0 + (q.shape[1] + 8) * float(info.eps)
        q_norm, top_norm = np.sqrt(q_sq.astype(np.float64)) * grow, np.sqrt(float(a_sq.max())) * grow
        margin += (2.0 * grow * e) * (2.0 * q_norm + (2.0 * top_norm + e))
    idx, dist = np.empty((n_q, k), dtype=np.intp), np.empty((n_q, k), dtype=np.float64)

    def rank(pending, stop):
        """Re-measure the pending pairs, those of the queries from the first
        unranked one up to ``stop``, and keep each query's k nearest."""
        q_rows, a_rows = (np.concatenate(c) for c in zip(*pending))
        if exact_rows is None:
            exact_a, exact_at = a, a_rows
        else:
            union = np.unique(a_rows)
            exact_a, exact_at = exact_rows(union), np.searchsorted(union, a_rows)
        exact = _scaled_row_distances(q, q_rows, exact_at, y=exact_a)
        # lexsort is stable: each query's pairs stay one run, ordered by
        # distance with equal distances in index order
        order = np.lexsort((exact, q_rows))
        queries = np.arange(q_rows[0], stop)
        take = order[np.searchsorted(q_rows, queries)[:, None] + np.arange(k)]
        idx[queries] = a_rows[take]
        dist[queries] = exact[take]

    pending, n_pending = [], 0
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        part = slice(start, stop)
        # |a|^2 - 2 q.a; scaling q by -2 is exact. Plain: the margin and the
        # exact re-measure decide the result, and padding would copy an
        # archive of unaligned size, transposed, per block
        screen = (-2.0 * screen_q[part]) @ screen_a.T
        screen += a_sq
        ex_rows = [r for r in range(stop - start) if excl[start + r] is not None]
        screen[ex_rows, [excl[start + r] for r in ex_rows]] = np.inf
        # in the screen's type: rounding is monotone, so no screen value at
        # or below the float64 bound lies above its rounded value
        bound = (np.partition(screen, k - 1, axis=1)[:, k - 1] + margin[part]).astype(a.dtype, copy=False)
        # the k screen-best rows pass, so each query keeps at least k rows,
        # and so does every row as near as its k-th. flatnonzero lists the
        # pairs by query, then by archive index
        q_rows, a_rows = np.divmod(np.flatnonzero(screen <= bound[:, None]), m)
        # the pending pairs never outgrow one block's screen, or one block
        if pending and n_pending + len(q_rows) > _SCREEN_VALUES:
            rank(pending, start)
            pending, n_pending = [], 0
        pending.append((q_rows + start, a_rows))
        n_pending += len(q_rows)
    rank(pending, n_q)
    return idx, dist


def pair_metrics(query_labels, retrieved_labels) -> tuple:
    """(accuracy, precision, recall, f1) of query/retrieved label vectors.

    With I the label intersection size: accuracy = I / |union|,
    precision = I / |retrieved|, recall = I / |query|, and f1 the harmonic
    mean with the 0/0 -> 0 rule. Labels lie on the last axis and leading
    axes broadcast; each metric has the broadcast leading shape, and two
    1-D vectors give four Python floats. Entries must be 0 or 1, with at
    least one set per vector: the rule ``similarity.label_similarity_matrix``
    checks its rows with.
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


def evaluate(net, queries, archive, k: int) -> MetricReport:
    """Embed both splits, retrieve top-k per query, macro-average the metrics.

    ``queries`` and ``archive`` are ``SampleTable``s. A query that is also
    present in the archive (matched by id) never retrieves the archive row
    with that id. Each call embeds both splits as ``embedder.forward`` rows
    under one ``distance_factor``, so the (M, d) embedding is never built. Where ``embedder.float32_rows`` can carry the
    rows, the archive is embedded once in float32 for the screen, and its
    candidates once more by ``forward`` for the ranking; elsewhere it is
    embedded by ``forward`` alone. A net whose rows are not finite on the
    features raises ``FloatingPointError`` from ``forward``, without numpy's
    warnings; finite rows are searched however large they are.
    """
    if not queries or not archive:
        raise ValueError("queries and archive must be nonempty")
    factor = emb_mod.distance_factor(net)
    q_rows = emb_mod.forward(net, queries.features, factor)
    screen = emb_mod.float32_rows(net, archive.features, factor)
    if screen is None:
        a_rows, error, exact_rows = emb_mod.forward(net, archive.features, factor), 0.0, None
    else:
        a_rows, error = screen
        exact_rows = lambda idx: emb_mod.forward(net, archive.features[idx], factor)
    exclude = [archive.row_of.get(i) for i in queries.ids]
    idxs, _ = knn_retrieve(q_rows, a_rows, k, exclude, error, exact_rows)
    metrics = np.stack(pair_metrics(queries.labels[:, None, :], archive.labels[idxs]), axis=-1)
    # cumsum adds strictly left to right: neighbors in rank order, then
    # queries in order, as a per-query loop would
    per_query = np.cumsum(metrics, axis=1)[:, -1] / k
    totals = np.cumsum(per_query, axis=0)[-1]
    return MetricReport(*(totals / len(queries)).tolist())


def write_metrics_csv(rows, path) -> None:
    """``rows`` is a list of (method_name, MetricReport); values are raw fractions."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "accuracy", "precision", "recall", "f1"])
        for name, rep in rows:
            writer.writerow([name] + metric_cells(rep))


def format_metric_table(rows) -> str:
    """Aligned plain-text table, metrics in percent with one decimal."""
    header = ("Method", "Accuracy", "Precision", "Recall", "F1")
    body = [(name, *(f"{100.0 * v:.1f}" for v in astuple(rep))) for name, rep in rows]
    widths = [max(len(col), *(len(r[i]) for r in body)) for i, col in enumerate(header)]
    def fmt(row):
        return "  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])])
    return "\n".join([fmt(header)] + [fmt(r) for r in body])
