"""Mini-batch training loop: shuffle, embed, mine, step Adam, log.

Mining always runs on the current network's embedding distances (online
mining), measured in the last hidden width when the output layer is linear.
Trailing partial batches are dropped so per-batch triplet counts stay
comparable across epochs. One Adam step per batch, a single logical
training thread, sequential accumulation everywhere: two runs with the
same config produce bit-identical weights and log rows (wall-clock
seconds excepted).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import embedder as emb_mod
from . import sampler
from .core import BatchView, SamplerConfig, seeded_rng, validate_config


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 100
    lr0: float = 0.001
    decay_every_epochs: int = 5
    decay_factor: float = 0.95
    alpha: float = 0.2
    hidden_dims: tuple = (64,)
    embedding_dim: int = 1024
    l2_normalize: bool = False
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    seed: int = 0

    def validate(self) -> "TrainConfig":
        # the comparisons are written so that NaN fails them
        if self.epochs < 0 or self.batch_size < 1 or not 0 < self.lr0 < np.inf:
            raise ValueError("epochs must be >= 0, batch_size >= 1, lr0 > 0 and finite")
        if self.decay_every_epochs < 1 or not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_every_epochs must be >= 1 and decay_factor in (0, 1]")
        if not 0 <= self.alpha < np.inf:
            raise ValueError("margin alpha must be >= 0 and finite")
        if self.embedding_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValueError("layer sizes must be >= 1")
        return self


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    mean_loss: float
    cum_triplets: int
    lr: float
    seconds: float


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)


TRAIN_LOG_COLUMNS = ("epoch", "mean_loss", "cum_triplets", "lr", "seconds")


def write_train_log(log: TrainLog, path) -> None:
    """Emit the log as CSV. All columns except ``seconds`` are deterministic
    for a fixed seed; ``seconds`` is measured wall time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAIN_LOG_COLUMNS)
        for r in log.rows:
            writer.writerow([r.epoch, repr(r.mean_loss), r.cum_triplets, repr(r.lr), f"{r.seconds:.3f}"])


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Step-exponential decay: lr0 * factor ** floor(epoch / every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_every_epochs)


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def init_adam(params) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(params, grads, state: AdamState, lr: float) -> AdamState:
    """Standard bias-corrected Adam update, applied to ``params`` in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching lengths")
    state.t += 1
    c1 = 1.0 - _BETA1 ** state.t
    c2 = 1.0 - _BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
    return state


def batch_stream(dataset, cfg: TrainConfig) -> tuple:
    """Training's seeded batch stream, for ``train`` and ``mine-debug``.

    Checks ``cfg`` against the train split, seeds ``rng`` with ``cfg.seed``
    and draws the Glorot weights of ``net`` from it first. Returns
    ``(net, rng, epoch)``; each ``epoch(net, n=None)`` call draws one permutation
    and yields every full batch as ``(x, factor, BatchView)``, measured by
    ``net`` as it stands (mining draws from ``rng`` in between):
    ``factor`` is ``net``'s ``distance_factor``, and the view's distances are
    those of the ``distance_rows`` it gives, so without ``l2_normalize`` the
    (B, d) embedding is never built. Any net of the same layer sizes, such
    as a checkpoint, sees training's batches. A batch with non-finite
    distances raises ``FloatingPointError`` naming it and any epoch ``n``,
    without numpy's overflow warnings.
    """
    cfg.validate()
    train_idx = np.asarray(dataset.train_idx, dtype=np.int64)
    if len(dataset.samples) == 0 or train_idx.size == 0:
        raise ValueError("dataset has no training samples")
    if cfg.batch_size > train_idx.size:
        raise ValueError(
            f"batch size {cfg.batch_size} exceeds train split size {train_idx.size}"
        )
    validate_config(cfg.sampler, cfg.batch_size)

    features = dataset.samples.features
    labels = dataset.samples.labels
    rng = seeded_rng(cfg.seed)
    net = emb_mod.Embedder.init(
        [features.shape[1], *cfg.hidden_dims, cfg.embedding_dim], rng,
        l2_normalize=cfg.l2_normalize,
    )
    n_batches = train_idx.size // cfg.batch_size

    def epoch(net, n=None):
        perm = rng.permutation(train_idx)
        for b in range(n_batches):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            x = features[idx]
            factor = emb_mod.distance_factor(net)
            try:
                view = BatchView.from_embeddings(idx, emb_mod.distance_rows(net, x, factor), labels[idx])
            except (FloatingPointError, ValueError) as exc:  # finite features: the weights outgrew float64
                where = f"batch {b}" if n is None else f"training diverged at epoch {n}, batch {b}"
                raise FloatingPointError(f"{where}: {exc}") from None
            yield x, factor, view

    return net, rng, epoch


@np.errstate(over="ignore", invalid="ignore")
def train(dataset, cfg: TrainConfig, epoch_callback=None) -> tuple:
    """Train an embedder on the dataset's train split.

    Each epoch takes the full batches of one ``batch_stream`` epoch, mines
    triplets per the configured strategy on the current embeddings, and
    takes one Adam step per batch. ``epoch_callback(epoch, net, row)``,
    when given, runs after each epoch. A diverging net raises
    ``FloatingPointError`` naming the epoch, not numpy's overflow warnings.

    Returns (Embedder, TrainLog).
    """
    net, rng, epoch_batches = batch_stream(dataset, cfg)
    params = emb_mod.parameters(net)
    state = init_adam(params)

    log = TrainLog()
    cum_triplets = 0
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        lr = lr_schedule(epoch, cfg)
        losses = []
        for x, factor, batch in epoch_batches(net, epoch):
            tset = sampler.mine_batch(batch, cfg.sampler, rng)
            cum_triplets += len(tset)
            if len(tset):
                bundle = emb_mod.backward(net, x, tset, cfg.alpha, batch.dist_raw, factor)
                adam_step(params, emb_mod.gradient_list(bundle), state, lr)
                losses.append(bundle.loss_value)
            else:
                losses.append(0.0)
        # batch_stream yields at least one batch per epoch
        mean_loss = float(np.mean(losses))
        if not np.isfinite(mean_loss):
            raise FloatingPointError(f"training diverged at epoch {epoch}: non-finite loss")
        row = TrainLogRow(epoch=epoch, mean_loss=mean_loss, cum_triplets=cum_triplets,
                          lr=lr, seconds=time.perf_counter() - started)
        log.rows.append(row)
        if epoch_callback is not None:
            epoch_callback(epoch, net, row)
    return net, log
