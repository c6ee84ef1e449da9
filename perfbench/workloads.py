"""The benchmark's workloads: data sizes, model sizes and strategy pairs.

Every workload shares one synthetic data family (F=128 features, 17 classes,
8 prototypes) and one model shape (a single hidden layer of 64). ``tiny``
shrinks every size so a workload runs in a couple of seconds for the smoke
tests; the metrics it prints are not comparable with full-size runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

FEATURE_DIM = 128
N_CLASSES = 17
N_PROTOTYPES = 8
HIDDEN = 64
SPLIT = (0.6, 0.2, 0.2)
ANCHOR_FRACTION = 0.1  # SamplerConfig default
PER_ANCHOR = 3  # SamplerConfig default positives and negatives per anchor
TRAIN_F1_K = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    embedding_dim: int
    # train-*: samples split 0.6/0.2/0.2; each timed unit is one trainer.train call
    n_samples: int = 0
    anchor: str = ""
    images: str = ""
    batch_size: int = 0
    epochs: int = 0
    # eval-archive: each timed unit is one retrieval.evaluate call on one block
    n_queries: int = 0
    n_archive: int = 0
    block: int = 0
    k: int = 0
    # the run makes at least this many units, whatever --seconds says
    min_units: int = 1
    # set-ups per run; setup_s is their median (a CSV set-up takes ~0.3 s and
    # swings +-30% between calls on a shared host, so train runs take more)
    setup_repeats: int = 11

    @property
    def n_train(self) -> int:
        return int(SPLIT[0] * self.n_samples)

    @property
    def batches_per_epoch(self) -> int:
        return self.n_train // self.batch_size

    @property
    def items_per_unit(self) -> int:
        """Training samples consumed by one train call, or queries in one evaluate call."""
        if self.kind == "train":
            return self.epochs * self.batches_per_epoch * self.batch_size
        return self.block

    @property
    def ops_per_unit(self) -> int:
        """Checked operations per unit: training batches, or eval queries."""
        if self.kind == "train":
            return self.epochs * self.batches_per_epoch
        return self.block

    def expected_triplets(self) -> int:
        """H * P * N for one batch, counted independently of the sampler."""
        b = self.batch_size
        h = b if self.anchor == "bas" else math.ceil(round(ANCHOR_FRACTION * b, 9))
        if self.images == "bis":
            # every other item as positive and as negative, minus the p == n pairs
            return h * (b - 1) * (b - 2)
        return h * PER_ANCHOR * PER_ANCHOR


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-paper", "train", 1024, n_samples=2000, anchor="das", images="rhdis",
                 batch_size=100, epochs=2),
        Workload("train-mining", "train", 32, n_samples=2000, anchor="bas", images="rhdis",
                 batch_size=100, epochs=2),
        Workload("train-exhaustive", "train", 64, n_samples=2000, anchor="bas", images="bis",
                 batch_size=32, epochs=1),
        Workload("eval-archive", "eval", 1024, n_queries=300, n_archive=20_000, block=30, k=30,
                 min_units=5, setup_repeats=5),
    )
}

_TINY = {
    "train-paper": dict(embedding_dim=16, n_samples=200, batch_size=20, epochs=1),
    "train-mining": dict(embedding_dim=16, n_samples=200, batch_size=20, epochs=1),
    "train-exhaustive": dict(embedding_dim=16, n_samples=200, batch_size=8, epochs=1),
    "eval-archive": dict(embedding_dim=16, n_queries=20, n_archive=200, block=5, k=10, min_units=2),
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, setup_repeats=2, **_TINY[name]) if tiny else w
