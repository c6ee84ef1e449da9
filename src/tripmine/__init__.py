"""Triplet mining, embedding training, and multi-label retrieval evaluation."""

__version__ = "0.1.0"

from .core import BatchView, SampleTable, SamplerConfig, TripletSet, seeded_rng, validate_config
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, split_dataset
from .embedder import Embedder, forward, load_checkpoint, save_checkpoint, triplet_loss
from .retrieval import MetricReport, evaluate, knn_retrieve, pair_metrics
from .sampler import build_triplets, mine_batch
from .trainer import TrainConfig, TrainLog, train

__all__ = [
    "BatchView", "Dataset", "Embedder", "MetricReport", "SampleTable",
    "SamplerConfig", "SyntheticSpec", "TrainConfig", "TrainLog", "TripletSet",
    "build_triplets", "evaluate", "forward", "generate_synthetic",
    "knn_retrieve", "load_checkpoint", "load_dataset", "mine_batch",
    "pair_metrics", "save_checkpoint", "seeded_rng", "split_dataset",
    "train", "triplet_loss", "validate_config",
]
