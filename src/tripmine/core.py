"""Shared domain types, index conventions, deterministic RNG, and configuration.

Batch-local indices (0..B-1) are the common currency between the sampler,
the loss, and the trainer; dataset-level indices appear only in
``BatchView.sample_indices``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import similarity

ANCHOR_STRATEGIES = ("das", "ras", "bas")
IMAGE_STRATEGIES = ("rhdis", "ris", "bis")
DAS_REDUCTIONS = ("max", "min")

# Upper bound on H*P*N, the triplets one batch may mine. Mining plus backward
# peak at 10.6 bytes per triplet at bas-bis B = 256 (16.6M triplets, 168 MB),
# 13.6 at B = 100 and 19.9 at B = 64 (tracemalloc, embedding 1024, about half
# the triplets active; every one active: 10.3, 14.0 and 24.3). Per triplet
# that is the boolean keep block, the float64 pre-hinge block and the active
# mask; the rest is O(B^2) or 1 MB chunks. So the limit is about 0.2 GB, and
# bas-bis passes up to batch size 256.
MAX_TRIPLETS_PER_BATCH = 1 << 24

# files are read, and feature matrices checked, in blocks of about this size
_READ_BLOCK_BYTES = 1 << 20


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream backed by the PCG64 bit generator.

    Identical seeds give identical streams across runs and across platforms
    (for a fixed numpy version); seed 0 is a valid, ordinary seed.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


class SampleTable:
    """Samples as columns: ``ids`` (a tuple), ``features`` an (M, F) float
    matrix and ``labels`` an (M, N) uint8 matrix; row i is sample i.
    Features given in float32 (a binary feature file's) stay float32; any
    other type becomes float64. Widening float32 to float64 is exact, so
    the embedder computes the same bits from either.

    The constructor holds the sample checks: finite features (tested block
    by block), 0/1 labels, at least one label per row, and one distinct id
    per row; ``row_of`` maps each id to its row. The arrays
    are not copied when they already have the right dtype, so they stay
    the caller's to edit.

    ``len`` counts the rows; a slice or a 1-D integer index array gives a
    sub-table. An int index raises ``TypeError``, and so does iteration:
    a table has columns, not per-sample items.
    """

    def __init__(self, ids, features, labels):
        ids = tuple(ids)
        feats = float32_or_float64(features)
        labs = np.asarray(labels)
        if feats.ndim != 2 or labs.ndim != 2:
            raise ValueError(f"features and labels must be matrices, got {feats.shape} and {labs.shape}")
        if not len(ids) == feats.shape[0] == labs.shape[0]:
            raise ValueError(
                f"{len(ids)} ids, {feats.shape[0]} feature rows and {labs.shape[0]} label rows differ"
            )
        bad = _first_non_finite_row(feats)
        if bad is not None:
            raise ValueError(f"sample {ids[bad]!r} has non-finite feature values")
        bad = _first_failing_row((labs == 0) | (labs == 1))
        if bad is not None:
            raise ValueError(f"sample {ids[bad]!r}: label entries must be 0 or 1")
        labs = labs.astype(np.uint8, copy=False)
        bad = _first_failing_row(labs.any(axis=1))
        if bad is not None:
            raise ValueError(f"sample {ids[bad]!r} has no class labels")
        self.row_of = _row_of_ids(ids)
        self.ids = ids
        self.features = feats
        self.labels = labs

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return SampleTable(self.ids[key], self.features[key], self.labels[key])
        rows = np.asarray(key)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise TypeError(f"index a sample table with a slice or a 1-D integer array, not {key!r}")
        rows = rows.astype(np.intp)
        return SampleTable([self.ids[i] for i in rows.tolist()], self.features[rows], self.labels[rows])


def float32_or_float64(values) -> np.ndarray:
    """``values`` as an array: float32 as given, any other type as float64
    (not copied when it already is)."""
    x = np.asarray(values)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _row_of_ids(ids, prefix="") -> dict:
    """Each id's row. A repeated id raises ``ValueError`` naming, after
    ``prefix``, the first id that occurs again."""
    row_of = {sample_id: row for row, sample_id in enumerate(ids)}
    if len(row_of) != len(ids):
        repeated = next(i for row, i in enumerate(ids) if row_of[i] != row)
        raise ValueError(f"{prefix}sample id {repeated!r} is repeated")
    return row_of


def _first_failing_row(ok):
    """Index of the first row of the boolean array ``ok`` holding a False,
    else None; rows are searched only when the whole-array test fails."""
    return None if ok.all() else int(ok.reshape(len(ok), -1).all(axis=1).argmin())


def _first_non_finite_row(x):
    """Index of the first row of the matrix ``x`` holding a NaN or an
    infinity, else None. Rows are tested ``_READ_BLOCK_BYTES`` of values at
    a time, so the test holds one block's flags, not a mask of ``x``."""
    step = max(1, _READ_BLOCK_BYTES // max(1, x.itemsize * x.shape[1]))
    for start in range(0, len(x), step):
        bad = _first_failing_row(np.isfinite(x[start : start + step]))
        if bad is not None:
            return start + bad
    return None


@dataclass(frozen=True)
class BatchView:
    """One mini-batch frozen for mining: labels and raw embedding distances,
    which the loss reads as they are and ``sampler.mine_batch`` min-max
    normalizes where a strategy scores with them."""

    sample_indices: np.ndarray
    labels: np.ndarray
    dist_raw: np.ndarray

    @property
    def size(self) -> int:
        return self.dist_raw.shape[0]

    @classmethod
    def from_embeddings(cls, sample_indices, embeddings, labels) -> "BatchView":
        return cls(
            sample_indices=np.asarray(sample_indices, dtype=np.int64),
            labels=np.asarray(labels, dtype=np.uint8),
            dist_raw=similarity.pairwise_euclidean(embeddings),
        )


@dataclass(frozen=True)
class SamplerConfig:
    """Triplet-selection configuration.

    ``anchor_fraction`` determines the anchor count H = ceil(fraction * B);
    ``beta`` weights relevancy vs hardness in the informativeness scores and
    ``gamma`` weights informativeness vs diversity during iterative picks.
    ``das_reduce`` selects the reduction over already-chosen anchors:
    "max" is the default scoring rule, "min" is the classic farthest-point
    variant kept for comparison only. ``seed`` is not read: mining draws
    from the trainer's random stream, which ``TrainConfig.seed`` seeds.
    """

    anchor_strategy: str = "das"
    image_strategy: str = "rhdis"
    anchor_fraction: float = 0.1
    positives_per_anchor: int = 3
    negatives_per_anchor: int = 3
    beta: float = 0.5
    gamma: float = 0.1
    das_reduce: str = "max"
    seed: int = 0

    def num_anchors(self, batch_size: int) -> int:
        # round() guards against float fuzz like 0.1 * 100 = 10.000000000000002
        return int(math.ceil(round(self.anchor_fraction * batch_size, 9)))


def validate_config(cfg: SamplerConfig, batch_size: int) -> SamplerConfig:
    """Check a SamplerConfig against a batch size; returns it unchanged if
    valid. A valid configuration mines at least one triplet from every
    batch of that size, and at most ``MAX_TRIPLETS_PER_BATCH``."""
    for what, value, known in (("anchor strategy", cfg.anchor_strategy, ANCHOR_STRATEGIES),
                               ("image strategy", cfg.image_strategy, IMAGE_STRATEGIES),
                               ("das reduction", cfg.das_reduce, DAS_REDUCTIONS)):
        if value not in known:
            raise ValueError(f"unknown {what} {value!r}")
    if not 0.0 < cfg.anchor_fraction <= 1.0:
        raise ValueError(f"anchor_fraction must be in (0, 1], got {cfg.anchor_fraction}")
    for name, weight in (("beta", cfg.beta), ("gamma", cfg.gamma)):
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {weight}")
    if cfg.image_strategy == "bis":
        # every other image is both a positive and a negative, and the p == n
        # triples are dropped, so bis reads no per-anchor counts
        if batch_size < 3:
            raise ValueError(f"bis needs a batch size of at least 3 to mine a triplet, got {batch_size}")
        c_pos = c_neg = batch_size - 1
    else:
        c_pos, c_neg = cfg.positives_per_anchor, cfg.negatives_per_anchor
        if c_pos < 1 or c_neg < 1:
            raise ValueError("positives/negatives per anchor must be >= 1")
        if c_pos + c_neg > batch_size - 1:  # rhdis keeps them disjoint; ris draws them jointly
            raise ValueError(f"{cfg.image_strategy} needs positives + negatives <= batch size - 1 "
                             f"({c_pos} + {c_neg} > {batch_size - 1})")
    anchors = batch_size if cfg.anchor_strategy == "bas" else cfg.num_anchors(batch_size)
    if anchors < 1:
        raise ValueError(f"anchor_fraction {cfg.anchor_fraction} selects no anchor from a batch of {batch_size}")
    pairs = c_pos * c_neg
    if anchors * pairs > MAX_TRIPLETS_PER_BATCH:
        raise ValueError(
            f"{anchors} anchors x {pairs} pairs = {anchors * pairs} triplets per batch "
            f"exceeds the limit of {MAX_TRIPLETS_PER_BATCH}; lower the batch size or per-anchor counts"
        )
    return cfg


@dataclass(frozen=True)
class TripletSet:
    """Selected (anchor, positive, negative) batch-local index triples, kept
    as per-anchor blocks.

    ``anchors`` (H,) lists the anchors in selection order; row k of
    ``positives`` (H, P) and ``negatives`` (H, N) holds anchor k's ordered
    positive and negative indices. ``keep`` (H, P, N) marks the triples of
    the block, which pairs every positive with every negative. ``len``
    counts ``keep``; ``triplets`` builds the anchor-major (T, 3) list on
    access.
    """

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    keep: np.ndarray

    @classmethod
    def from_triplets(cls, triplets) -> "TripletSet":
        """A (T, 3) index list as the H = T, P = N = 1 block, every triple
        kept (p == n included)."""
        t = np.asarray(triplets, dtype=np.int64)
        if t.size == 0:
            t = np.empty((0, 3), dtype=np.int64)
        elif t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triplets must be a (T, 3) index array, got shape {t.shape}")
        return cls(anchors=t[:, 0], positives=t[:, 1:2], negatives=t[:, 2:3],
                   keep=np.ones((t.shape[0], 1, 1), dtype=bool))

    def columns(self) -> tuple:
        """Anchor, positive and negative index blocks, each broadcastable to
        ``keep.shape``."""
        return self.anchors[:, None, None], self.positives[:, :, None], self.negatives[:, None, :]

    @property
    def triplets(self) -> np.ndarray:
        """The kept triples as a (T, 3) int64 array, ordered by anchor, then
        positive, then negative."""
        out = np.empty((len(self), 3), dtype=np.int64)
        for j, col in enumerate(self.columns()):
            # column by column, so only one T-length temporary is live at a time
            out[:, j] = np.broadcast_to(col, self.keep.shape)[self.keep]
        return out

    def __len__(self) -> int:
        return int(np.count_nonzero(self.keep))
