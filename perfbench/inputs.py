"""Seeded input generator: writes every file a workload hands the program.

The generator is the benchmark's own (numpy only, no tripmine import), so a
change to the program's synthetic generator or file writers cannot change
the inputs. The same seed gives byte-identical files.

Data: each sample mixes one or two of 8 prototype centroids (radius 0.5)
plus Gaussian noise (sigma 0.1); its labels are the union of the prototypes'
1-3 classes with each bit flipped at rate 0.05, and at least one bit set.
The prototypes and the eval checkpoint's weights are fixed per workload
family (drawn from ``FAMILY_SEED``); ``--seed`` draws the samples and the
program's split, init and sampler seeds. With prototypes drawn per seed, F1
moved 11-17% (quartile spread over median) between seeds from the label
structure alone; with them fixed it moves 3-7%.

Files written into the input directory:

* train-*: ``features.csv`` and ``labels.csv`` (the CSV formats of the
  README), 2000 rows;
* eval-archive: ``queries.bin``/``queries_labels.csv`` (300 rows) and
  ``archive.bin``/``archive_labels.csv`` (20,000 rows) in the ``TMFEAT01``
  binary format, plus ``model.ckpt``, a Glorot-initialised ``TMEMB001``
  checkpoint with zero biases (fixed for the family);
* always ``config.json``: the integer seeds the program is configured with.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from workloads import FEATURE_DIM, HIDDEN, N_CLASSES, N_PROTOTYPES, Workload

FAMILY_SEED = 20210509
FEATURES_MAGIC = b"TMFEAT01"
CHECKPOINT_MAGIC = b"TMEMB001"


def prototypes():
    """The family's fixed prototype centroids and label sets."""
    rng = np.random.default_rng(FAMILY_SEED)
    centroids = rng.normal(size=(N_PROTOTYPES, FEATURE_DIM))
    centroids *= 0.5 / np.linalg.norm(centroids, axis=1, keepdims=True)
    proto_labels = np.zeros((N_PROTOTYPES, N_CLASSES), dtype=np.uint8)
    for p in range(N_PROTOTYPES):
        proto_labels[p, rng.choice(N_CLASSES, size=int(rng.integers(1, 4)), replace=False)] = 1
    return centroids, proto_labels


def synthetic(rng: np.random.Generator, n: int):
    """(n, F) float64 features and (n, C) uint8 labels drawn around the prototypes."""
    centroids, proto_labels = prototypes()
    first = rng.integers(N_PROTOTYPES, size=n)
    second = (first + rng.integers(1, N_PROTOTYPES, size=n)) % N_PROTOTYPES
    two = rng.random(n) < 0.3
    w = rng.random((n, 2))
    w[~two, 1] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    feats = (w[:, :1] * centroids[first] + w[:, 1:] * centroids[second]
             + 0.1 * rng.normal(size=(n, FEATURE_DIM)))
    clean = proto_labels[first] | np.where(two[:, None], proto_labels[second], 0).astype(np.uint8)
    labels = clean ^ (rng.random((n, N_CLASSES)) < 0.05).astype(np.uint8)
    empty = np.flatnonzero(labels.sum(axis=1) == 0)
    labels[empty, rng.integers(N_CLASSES, size=empty.size)] = 1
    return feats, labels


def glorot_net(rng: np.random.Generator, dims):
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _ids(prefix: str, n: int) -> list:
    width = len(str(max(n - 1, 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def write_features_csv(path: Path, ids, feats) -> None:
    lines = [",".join(["id"] + [f"f{j}" for j in range(feats.shape[1])])]
    lines += [",".join([i] + [repr(v) for v in row]) for i, row in zip(ids, feats.tolist())]
    path.write_text("\n".join(lines) + "\n")


def write_labels_csv(path: Path, ids, labels) -> None:
    lines = [",".join(["id"] + [f"c{j}" for j in range(labels.shape[1])])]
    lines += [",".join([i] + [str(b) for b in row]) for i, row in zip(ids, labels.tolist())]
    path.write_text("\n".join(lines) + "\n")


def write_features_binary(path: Path, feats) -> None:
    header = FEATURES_MAGIC + struct.pack("<II", *feats.shape)
    path.write_bytes(header + np.ascontiguousarray(feats, dtype="<f4").tobytes())


def write_checkpoint(path: Path, weights, biases) -> None:
    dims = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    parts = [CHECKPOINT_MAGIC, struct.pack(f"<I{len(dims)}I", len(dims), *dims)]
    for w, b in zip(weights, biases):
        parts += [np.ascontiguousarray(w, dtype="<f8").tobytes(), np.ascontiguousarray(b, dtype="<f8").tobytes()]
    path.write_bytes(b"".join(parts))


def write_inputs(w: Workload, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out`` and return the arrays the
    reference checks need: features exactly as the program will read them,
    labels, and (eval-archive) the checkpoint's weights."""
    data_ss, config_ss = np.random.SeedSequence(seed).spawn(2)
    split_seed, train_seed, sampler_seed = (int(s) for s in config_ss.generate_state(3))
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(
        {"split_seed": split_seed, "train_seed": train_seed, "sampler_seed": sampler_seed}))
    rng = np.random.default_rng(data_ss)
    if w.kind == "train":
        feats, labels = synthetic(rng, w.n_samples)
        ids = _ids("s", w.n_samples)
        write_features_csv(out / "features.csv", ids, feats)
        write_labels_csv(out / "labels.csv", ids, labels)
        return {"features": feats, "labels": labels}
    feats, labels = synthetic(rng, w.n_queries + w.n_archive)
    # the binary format stores float32; the program reads it back as float64
    feats = feats.astype(np.float32).astype(np.float64)
    q, a = slice(0, w.n_queries), slice(w.n_queries, None)
    write_features_binary(out / "queries.bin", feats[q])
    write_labels_csv(out / "queries_labels.csv", _ids("q", w.n_queries), labels[q])
    write_features_binary(out / "archive.bin", feats[a])
    write_labels_csv(out / "archive_labels.csv", _ids("a", w.n_archive), labels[a])
    weights, biases = glorot_net(np.random.default_rng(FAMILY_SEED), (FEATURE_DIM, HIDDEN, w.embedding_dim))
    write_checkpoint(out / "model.ckpt", weights, biases)
    return {"queries": feats[q], "query_labels": labels[q], "archive": feats[a],
            "archive_labels": labels[a], "weights": weights, "biases": biases}
