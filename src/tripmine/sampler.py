"""Triplet-selection strategies.

Two families are implemented:

* diversity-driven selection by one greedy rule, ``_greedy``: das anchors
  far apart in embedding space (its one-row, gamma-0 case) and rhdis images
  per anchor that are relevant, hard and diverse, scored from label
  similarity S and normalized distance D;
* baselines: random anchors (ras), all-batch anchors (bas), random images
  (ris), all-batch images (bis).

Anchor selection returns an (H,) int64 array; scoring and image selection
take it and run each pick step for all H anchors at once, one array row per
anchor (anchors outside the batch raise ``ValueError``). All argmax scans
break ties toward the lowest batch index, so every selection is
deterministic given the RNG seed. Mining is strictly within the mini-batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import similarity
from .core import BatchView, SamplerConfig, TripletSet, validate_config


@dataclass(frozen=True)
class InformativenessRow:
    """Per-candidate positive/negative scores: (H, B) rows for H anchors.

    ``i_pos[b] = beta * S(a, b) + (1 - beta) * D(a, b)`` and ``i_neg`` uses the
    complements of S and D, so ``i_neg = 1 - i_pos`` holds algebraically.
    The entry at the anchor's own index is never a valid candidate.
    """

    i_pos: np.ndarray
    i_neg: np.ndarray


def _check_anchors(anchors: np.ndarray, batch_size: int) -> None:
    """Reject all but an (H,) array of indices into a batch of ``batch_size``."""
    if np.ndim(anchors) != 1:
        raise ValueError(f"anchors {anchors!r} are not an (H,) array of indices into a batch of {batch_size}")
    outside = (anchors < 0) | (anchors >= batch_size)
    if outside.any():
        raise ValueError(f"anchor {anchors[outside][0]} is outside a batch of {batch_size}")


def informativeness(anchors: np.ndarray, dist_norm: np.ndarray, s_rows, beta: float) -> InformativenessRow:
    """Score every batch item as a candidate positive and negative for each
    of the (H,) ``anchors``, from their (H, B) label-similarity rows ``S[anchors]``."""
    _check_anchors(anchors, len(dist_norm))
    s, d = s_rows, dist_norm[anchors]
    i_pos = beta * s + (1.0 - beta) * d
    i_neg = beta * (1.0 - s) + (1.0 - beta) * (1.0 - d)
    return InformativenessRow(i_pos=i_pos, i_neg=i_neg)


def select_anchors_das(dist: np.ndarray, h: int, rng: np.random.Generator,
                       first_anchor: int | None = None) -> np.ndarray:
    """Iteratively select ``h`` mutually distant anchors, as an (h,) int64 array.

    The first anchor is drawn uniformly at random (or forced via
    ``first_anchor``); then ``_greedy`` runs on one row with gamma 0: each
    next anchor is the unselected candidate whose distance to its farthest
    already-selected anchor is largest. ``dist`` is any symmetric (B, B)
    distance matrix; ``mine_batch`` passes the raw ones.
    """
    b = len(dist)
    if h > b:
        raise ValueError(f"cannot select {h} anchors from a batch of {b}")
    if h < 1:
        raise ValueError("anchor count must be >= 1")
    first = int(rng.integers(b)) if first_anchor is None else int(first_anchor)
    if not 0 <= first < b:
        raise ValueError(f"first anchor {first} is outside a batch of {b}")
    blocked = (np.arange(b) == first)[None]
    rest = _greedy(0.0, dist, h - 1, 0.0, blocked, spread=dist[first][None])
    return np.concatenate(([first], rest[0]))


def select_anchors_ras(batch_size: int, h: int, rng: np.random.Generator) -> np.ndarray:
    """``h`` distinct anchors drawn uniformly without replacement, as an (h,) int64 array."""
    if h > batch_size:
        raise ValueError(f"cannot select {h} anchors from a batch of {batch_size}")
    return rng.choice(batch_size, size=h, replace=False)


def select_anchors_bas(batch_size: int) -> np.ndarray:
    """Every batch item as an anchor, once, in index order: ``arange(batch_size)``."""
    if batch_size < 1:
        raise ValueError("batch must be nonempty")
    return np.arange(batch_size, dtype=np.int64)


def _greedy(scores, dist, count: int, gamma: float, blocked, spread=None) -> np.ndarray:
    """The one greedy pick rule of das and rhdis, for H rows: (H, count) picks.

    Each step takes, per row, the candidate not yet ``blocked`` (H, B) with
    the largest ``gamma * scores + (1 - gamma) * spread`` (``scores`` alone
    while ``spread`` is None), the lowest index on ties, blocks it and folds
    its row of the symmetric ``dist`` into ``spread`` with ``np.maximum``:
    Gonzalez's (1985) greedy k-center rule, with max where Gonzalez takes min.
    """
    available = int(blocked.shape[1] - blocked.sum(axis=1).max(initial=0))
    if count > available:
        raise ValueError(f"cannot select {count} images from {available} candidates")
    rows = np.arange(len(blocked))
    weighted = gamma * scores
    chosen = np.empty((len(blocked), count), dtype=np.int64)
    for k in range(count):
        blended = scores if spread is None else weighted + (1.0 - gamma) * spread
        nxt = np.where(blocked, -np.inf, blended).argmax(axis=1)
        chosen[:, k] = nxt
        blocked[rows, nxt] = True
        spread = dist[nxt] if spread is None else np.maximum(spread, dist[nxt])
    return chosen


def _rhdis_blocked(anchors: np.ndarray, scores: np.ndarray, exclude=()) -> np.ndarray:
    """What rhdis may not pick: each anchor's own index and its ``exclude`` row."""
    h, b = scores.shape
    _check_anchors(anchors, b)
    blocked = np.zeros((h, b), dtype=bool)
    blocked[np.arange(h), anchors] = True
    blocked[np.arange(h)[:, None], np.asarray(exclude, dtype=np.int64).reshape(h, -1)] = True
    return blocked


def select_positives_rhdis(anchors: np.ndarray, row: InformativenessRow, dist_norm: np.ndarray,
                           c: int, gamma: float) -> np.ndarray:
    """(H, c) ordered positives: ``_greedy`` from the ``i_pos`` scores."""
    return _greedy(row.i_pos, dist_norm, c, gamma, _rhdis_blocked(anchors, row.i_pos))


def select_negatives_rhdis(anchors: np.ndarray, row: InformativenessRow, dist_norm: np.ndarray,
                           c: int, gamma: float, exclude=()) -> np.ndarray:
    """(H, c) ordered negatives: ``_greedy`` from the ``i_neg`` scores, never
    an ``exclude`` entry (one row per anchor: its chosen positives)."""
    return _greedy(row.i_neg, dist_norm, c, gamma, _rhdis_blocked(anchors, row.i_neg, exclude))


def _all_but_anchor(anchors: np.ndarray, batch_size: int) -> np.ndarray:
    """(H, B-1): row k lists every batch index but anchor k, ascending."""
    _check_anchors(anchors, batch_size)
    j = np.arange(batch_size - 1)
    return j + (j >= anchors[:, None])


def select_images_ris(anchors: np.ndarray, batch_size: int, c_pos: int, c_neg: int, rng: np.random.Generator):
    """Random positives and negatives, (H, c_pos) and (H, c_neg): distinct
    uniform draws, never the anchor, drawn anchor by anchor in array order."""
    if c_pos + c_neg > batch_size - 1:
        raise ValueError(
            f"cannot draw {c_pos} + {c_neg} distinct images from {batch_size - 1} candidates"
        )
    picks = np.stack([rng.choice(pool, size=c_pos + c_neg, replace=False)
                      for pool in _all_but_anchor(anchors, batch_size)])
    return picks[:, :c_pos], picks[:, c_pos:]


def select_images_bis(anchors: np.ndarray, batch_size: int):
    """Every non-anchor image as both a positive and a negative: the (H, B-1)
    all-but-the-anchor matrix of (H,) anchors, twice."""
    if batch_size < 2:
        raise ValueError("bis needs a batch of at least 2")
    others = _all_but_anchor(anchors, batch_size)
    return others, others


def build_triplets(anchors, positives, negatives) -> TripletSet:
    """Combine (H,) anchors with their (H, P) positives and (H, N) negatives
    into the block pairing every positive with every negative, ordered by
    anchor, then positive, then negative. Degenerate triples with p == n
    are cleared from ``keep`` (bis inherently generates them).
    """
    a, p, n = (np.asarray(x, dtype=np.int64) for x in (anchors, positives, negatives))
    return TripletSet(anchors=a, positives=p, negatives=n, keep=p[:, :, None] != n[:, None, :])


def _mine(batch: BatchView, cfg: SamplerConfig, rng: np.random.Generator, score_all: bool = False):
    """``mine_batch``'s selection, with the anchors' informativeness rows:
    scored where rhdis reads them, for every image strategy with
    ``score_all``, else None. das ranks the raw distances; they are min-max
    normalized once, only where the scores read them."""
    validate_config(cfg, batch.size)
    h = cfg.num_anchors(batch.size)
    if cfg.anchor_strategy == "das":
        anchors = select_anchors_das(batch.dist_raw, h, rng)
    elif cfg.anchor_strategy == "ras":
        anchors = select_anchors_ras(batch.size, h, rng)
    else:
        anchors = select_anchors_bas(batch.size)
    rows = None
    if score_all or cfg.image_strategy == "rhdis":
        dist_norm = similarity.minmax_normalize(batch.dist_raw)
        s_matrix = similarity.label_similarity_matrix(batch.labels)
        rows = informativeness(anchors, dist_norm, s_matrix[anchors], cfg.beta)
    c_pos, c_neg = cfg.positives_per_anchor, cfg.negatives_per_anchor
    if cfg.image_strategy == "rhdis":
        pos = select_positives_rhdis(anchors, rows, dist_norm, c_pos, cfg.gamma)
        neg = select_negatives_rhdis(anchors, rows, dist_norm, c_neg, cfg.gamma, exclude=pos)
    elif cfg.image_strategy == "ris":
        pos, neg = select_images_ris(anchors, batch.size, c_pos, c_neg, rng)
    else:
        pos, neg = select_images_bis(anchors, batch.size)
    return build_triplets(anchors, pos, neg), rows


def mine_batch(batch: BatchView, cfg: SamplerConfig, rng: np.random.Generator) -> TripletSet:
    """Check ``cfg`` with ``validate_config``, then run its anchor and image
    strategies over one batch: images for all anchors in one call, assembled
    in one call. Distances are min-max normalized once, only where rhdis scores with them."""
    return _mine(batch, cfg, rng)[0]


def mine_debug_lines(batch_index: int, batch: BatchView, cfg: SamplerConfig,
                     rng: np.random.Generator) -> list[str]:
    """Mining dump for the ``mine-debug`` CLI hook, a view of ``mine_batch``:
    one JSON line per batch header, then one per anchor with its
    informativeness row (scored for every image strategy), score extremes,
    and chosen positives/negatives."""
    tset, rows = _mine(batch, cfg, rng, score_all=True)
    anchors = tset.anchors.tolist()
    lines = [json.dumps({"batch": batch_index, "anchors": anchors, "triplet_count": len(tset)})]
    for k, a in enumerate(anchors):
        candidates = np.arange(batch.size) != a
        i_pos, i_neg = rows.i_pos[k], rows.i_neg[k]
        lines.append(json.dumps({
            "batch": batch_index,
            "anchor": a,
            "i_pos_min": float(i_pos[candidates].min()),
            "i_pos_max": float(i_pos[candidates].max()),
            "i_neg_min": float(i_neg[candidates].min()),
            "i_neg_max": float(i_neg[candidates].max()),
            "i_pos": i_pos.tolist(),
            "i_neg": i_neg.tolist(),
            "positives": tset.positives[k].tolist(),
            "negatives": tset.negatives[k].tolist(),
        }))
    return lines
