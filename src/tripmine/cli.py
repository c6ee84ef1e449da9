"""Command-line entry point: train, evaluate, ablate, mine-debug.

Sampler, trainer and synthetic-data flags set, and take their defaults
from, ``SamplerConfig``, ``TrainConfig`` and ``SyntheticSpec`` fields
(``_sampler_config``, ``_train_config`` and ``_load_data`` map them):
``--lr`` sets ``lr0``, for example, and ``--sampler`` both strategy fields.

train, evaluate and ablate write a ``manifest.txt`` of fully resolved
key=value options into --out; feeding that file back through ``--config``
re-runs the experiment identically (explicit flags still override it).
Each of them overwrites ``manifest.txt`` in its --out, so use a fresh
directory per command when the training manifest must survive an
evaluation. mine-debug only prints and writes no file.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import ANCHOR_STRATEGIES, IMAGE_STRATEGIES, SamplerConfig, seeded_rng, validate_config
from .data import SyntheticSpec, generate_synthetic, load_dataset, split_dataset
from .embedder import load_checkpoint, save_checkpoint
from .retrieval import MetricReport, default_k, evaluate, format_metric_table, metric_cells, write_metrics_csv
from .sampler import mine_debug_lines
from .trainer import TrainConfig, batch_stream, train, write_train_log

SAMPLER_CHOICES = tuple(f"{a}-{i}" for a in ANCHOR_STRATEGIES for i in IMAGE_STRATEGIES)
_TRAIN, _SPEC = TrainConfig(), SyntheticSpec()

# the split permutation draws from seed + 1 so it is a stream independent
# of both generation (seed) and training (seed)
_SPLIT_SEED_OFFSET = 1


class UserError(Exception):
    pass


@dataclass(frozen=True)
class Opt:
    name: str
    type: type = str
    default: object = None
    help: str = ""
    flag: bool = False
    choices: tuple = None


DATA_OPTS = (
    Opt("features", str, None, "features CSV (or binary) path"),
    Opt("labels", str, None, "labels CSV path"),
    Opt("synthetic", flag=True, default=False, help="use the synthetic generator instead of files"),
    Opt("n_samples", int, _SPEC.n_samples, "synthetic: number of samples"),
    Opt("n_classes", int, _SPEC.n_classes, "synthetic: number of classes"),
    Opt("feature_dim", int, _SPEC.feature_dim, "synthetic: feature dimension"),
    Opt("prototypes", int, _SPEC.n_prototypes, "synthetic: number of prototypes"),
    Opt("label_noise", float, _SPEC.label_noise_rate, "synthetic: per-bit label flip rate"),
    Opt("feature_noise", float, _SPEC.feature_noise_sigma, "synthetic: feature noise sigma"),
    Opt("split", str, "0.6,0.2,0.2", "train,val,test fractions"),
)

SAMPLER = Opt("sampler", str, f"{_TRAIN.sampler.anchor_strategy}-{_TRAIN.sampler.image_strategy}",
              "anchor-image strategy pair", choices=SAMPLER_CHOICES)
# ablate runs every strategy pair, so it takes these without --sampler
MINING_OPTS = (
    Opt("anchors_fraction", float, _TRAIN.sampler.anchor_fraction, "anchor count H = ceil(fraction * batch)"),
    Opt("positives", int, _TRAIN.sampler.positives_per_anchor, "positives per anchor"),
    Opt("negatives", int, _TRAIN.sampler.negatives_per_anchor, "negatives per anchor"),
    Opt("beta", float, _TRAIN.sampler.beta, "relevancy vs hardness weight"),
    Opt("gamma", float, _TRAIN.sampler.gamma, "informativeness vs diversity weight"),
)
SAMPLER_OPTS = (SAMPLER,) + MINING_OPTS

L2_NORMALIZE = Opt("l2_normalize", flag=True, default=_TRAIN.l2_normalize, help="L2-normalize embeddings")
CHECKPOINT = Opt("checkpoint", str, None, "model checkpoint (default: <out>/model.ckpt)")
BATCH_SIZE = Opt("batch_size", int, _TRAIN.batch_size, "mini-batch size (trailing remainder dropped)")
K = Opt("k", int, None, "retrieved neighbors per query (default: 10, or 30 for archives >= 10000)")

TRAIN_OPTS = (
    Opt("epochs", int, _TRAIN.epochs, "training epochs"),
    BATCH_SIZE,
    Opt("lr", float, _TRAIN.lr0, "initial learning rate"),
    Opt("decay_every", int, _TRAIN.decay_every_epochs, "decay the learning rate every this many epochs"),
    Opt("decay_factor", float, _TRAIN.decay_factor, "multiplicative learning-rate decay"),
    Opt("alpha", float, _TRAIN.alpha, "triplet margin"),
    Opt("embedding", int, _TRAIN.embedding_dim, "embedding dimension"),
    Opt("hidden", str, ",".join(map(str, _TRAIN.hidden_dims)), "comma-separated hidden layer sizes"),
    L2_NORMALIZE,
)

SEED = Opt("seed", int, _TRAIN.seed, "master seed")
SEEDS = Opt("seed", str, str(_TRAIN.seed), "master seed, or comma-separated seeds to average the grid over")

COMMON_OPTS = (
    Opt("out", str, "out", "output directory"),
    Opt("preset", str, "full", "option preset", choices=("full", "ci")),
    Opt("config", str, None, "key=value file; explicit flags override it"),
)

EVAL_OPTS = (
    CHECKPOINT,
    K,
    Opt("method", str, "model", "method label used in reports"),
)

MINE_DEBUG_OPTS = (
    CHECKPOINT,
    Opt("batches", int, 1, "number of batches to dump, running on into training's next epochs"),
)

PRESETS = {
    "full": {},
    "ci": {"epochs": 10, "batch_size": 32, "embedding": 16, "hidden": "32", "lr": 0.01},
}

COMMAND_OPTS = {
    "train": (SEED,) + COMMON_OPTS + DATA_OPTS + SAMPLER_OPTS + TRAIN_OPTS + (
        Opt("checkpoint_every", int, 0, "also write model_epoch{N}.ckpt every N epochs (0: final only)"),),
    "evaluate": (SEED,) + COMMON_OPTS + DATA_OPTS + EVAL_OPTS + (L2_NORMALIZE,),
    "ablate": (SEEDS,) + COMMON_OPTS + DATA_OPTS + MINING_OPTS + TRAIN_OPTS + (K,),
    "mine-debug": (SEED,) + COMMON_OPTS + DATA_OPTS + SAMPLER_OPTS + MINE_DEBUG_OPTS + (BATCH_SIZE, L2_NORMALIZE),
}


def _add_opts(parser, opts):
    for o in opts:
        flag = "--" + o.name.replace("_", "-")
        if o.flag:
            parser.add_argument(flag, action="store_true", default=argparse.SUPPRESS, help=o.help)
        else:
            parser.add_argument(flag, type=o.type, default=argparse.SUPPRESS, choices=o.choices,
                                help=o.help if o.default is None else f"{o.help} (default: {o.default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripmine")
    parser.add_argument("--version", action="version", version=f"tripmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, opts in COMMAND_OPTS.items():
        p = sub.add_parser(cmd)
        _add_opts(p, opts)
    return parser


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse boolean value {text!r}")


def _known_option_names():
    return {o.name for opts in COMMAND_OPTS.values() for o in opts}


# options since removed, each with the one value every run now takes: older
# manifests name them, and still load
REMOVED_OPTIONS = {"combination": "cartesian", "label_sim": "cosine", "das_reduce": "max"}


def _read_config_file(path, opts_by_name):
    if not os.path.exists(path):
        raise UserError(f"config file not found: {path}")
    values = {}
    known_elsewhere = _known_option_names()
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UserError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key = key.strip().replace("-", "_")
            if key in REMOVED_OPTIONS:
                if value.strip() != REMOVED_OPTIONS[key]:
                    raise UserError(f"{path}:{line_no}: option {key!r} was removed; "
                                    f"only {key}={REMOVED_OPTIONS[key]} is still accepted")
                continue
            if key not in opts_by_name:
                # a manifest from another subcommand stays loadable: skip its
                # keys, but still reject names no subcommand knows
                if key in known_elsewhere:
                    continue
                raise UserError(f"{path}:{line_no}: unknown option {key!r}")
            o = opts_by_name[key]
            raw = value.strip()
            try:
                if o.flag:
                    values[key] = _parse_bool(raw)
                elif raw in ("", "None"):
                    values[key] = None
                else:
                    values[key] = o.type(raw)
                    if o.choices and values[key] not in o.choices:
                        raise UserError(f"{path}:{line_no}: {key} must be one of {o.choices}")
            except ValueError as exc:
                raise UserError(f"{path}:{line_no}: {key}: {exc}") from None
    return values


def resolve_options(command: str, explicit: dict) -> dict:
    """defaults < preset < config file < explicit flags."""
    opts = COMMAND_OPTS[command]
    by_name = {o.name: o for o in opts}
    merged = {o.name: o.default for o in opts}
    cfgfile = {}
    if explicit.get("config"):
        cfgfile = _read_config_file(explicit["config"], by_name)
    preset = explicit.get("preset") or cfgfile.get("preset") or merged["preset"]
    merged.update({k: v for k, v in PRESETS[preset].items() if k in by_name})
    merged["preset"] = preset
    merged.update(cfgfile)
    merged.update(explicit)
    return merged


def write_manifest(path, command: str, resolved: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"# tripmine {__version__}\n")
        fh.write(f"# command: {command}\n")
        for key in sorted(resolved):
            if key == "config":
                continue
            value = resolved[key]
            if value is None:
                value = ""
            elif isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            fh.write(f"{key}={value}\n")


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UserError(f"cannot parse integer list {text!r}") from None


def _parse_fractions(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise UserError(f"--split needs three comma-separated fractions, got {text!r}")
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise UserError(f"cannot parse fractions {text!r}") from None


def _load_data(o: dict):
    if o["synthetic"] and (o["features"] or o["labels"]):
        raise UserError("--synthetic excludes --features and --labels")
    if o["synthetic"]:
        spec = SyntheticSpec(
            n_samples=o["n_samples"], n_classes=o["n_classes"], feature_dim=o["feature_dim"],
            n_prototypes=o["prototypes"], label_noise_rate=o["label_noise"],
            feature_noise_sigma=o["feature_noise"], seed=o["seed"],
        )
        ds = generate_synthetic(spec)
    else:
        if not o["features"] or not o["labels"]:
            raise UserError("either --synthetic or both --features and --labels are required")
        for key in ("features", "labels"):
            if not os.path.exists(o[key]):
                raise UserError(f"{key} file not found: {o[key]}")
        ds = load_dataset(o["features"], o["labels"])
    fractions = _parse_fractions(o["split"])
    return split_dataset(ds, fractions, seeded_rng(o["seed"] + _SPLIT_SEED_OFFSET))


def _sampler_config(o: dict) -> SamplerConfig:
    anchor, image = o["sampler"].split("-")
    return SamplerConfig(
        anchor_strategy=anchor, image_strategy=image,
        anchor_fraction=o["anchors_fraction"],
        positives_per_anchor=o["positives"], negatives_per_anchor=o["negatives"],
        beta=o["beta"], gamma=o["gamma"],
    )


def _train_config(o: dict) -> TrainConfig:
    return TrainConfig(
        epochs=o["epochs"], batch_size=o["batch_size"], lr0=o["lr"],
        decay_every_epochs=o["decay_every"], decay_factor=o["decay_factor"],
        alpha=o["alpha"], hidden_dims=_parse_int_list(o["hidden"]),
        embedding_dim=o["embedding"], l2_normalize=o["l2_normalize"],
        sampler=_sampler_config(o), seed=o["seed"],
    )


def _out_dir(o: dict) -> str:
    os.makedirs(o["out"], exist_ok=True)
    return o["out"]


def cmd_train(o: dict) -> int:
    every = o["checkpoint_every"]
    if every < 0:
        raise UserError(f"--checkpoint-every must be >= 0, got {every}")
    ds = _load_data(o)
    cfg = _train_config(o)
    out = _out_dir(o)

    def checkpoint_hook(epoch, net, row):
        if every > 0 and (epoch + 1) % every == 0:
            save_checkpoint(net, os.path.join(out, f"model_epoch{epoch + 1}.ckpt"))

    net, log = train(ds, cfg, epoch_callback=checkpoint_hook)
    save_checkpoint(net, os.path.join(out, "model.ckpt"))
    write_train_log(log, os.path.join(out, "train_log.csv"))
    write_manifest(os.path.join(out, "manifest.txt"), "train", o)
    final = log.rows[-1].mean_loss if log.rows else 0.0
    cum = log.rows[-1].cum_triplets if log.rows else 0
    print(f"trained {cfg.epochs} epochs, final mean loss {final:.6g}, {cum} cumulative triplets")
    print(f"artifacts written to {out}")
    return 0


def _resolve_k(o: dict, archive_size: int) -> int:
    k = default_k(archive_size) if o.get("k") is None else o["k"]
    if not 1 <= k <= archive_size:
        raise UserError(f"k={k} must be between 1 and the archive size {archive_size}")
    return k


@contextmanager
def _checkpoint(o: dict, ds):
    """Yield the --checkpoint (default <out>/model.ckpt), checked against
    the dataset's width. A checkpoint that records its l2_normalize flag
    sets it; --l2-normalize on one saved without it is an error naming the
    file. Weights that overflow float64 on the data inside the block raise
    one error naming the file."""
    ckpt = o["checkpoint"] or os.path.join(o["out"], "model.ckpt")
    if not os.path.exists(ckpt):
        raise UserError(f"checkpoint not found: {ckpt}")
    net = load_checkpoint(ckpt, l2_normalize=True if o["l2_normalize"] else None)
    if net.layer_dims[0] != ds.n_features:
        raise UserError(
            f"{ckpt}: checkpoint expects {net.layer_dims[0]} features but dataset has {ds.n_features}"
        )
    try:
        yield net
    except FloatingPointError as exc:
        raise UserError(f"{ckpt}: {exc}") from None


def _load_eval_data(o: dict) -> tuple:
    """The dataset and its val (queries) and test (archive) splits; an empty split exits 2."""
    ds = _load_data(o)
    for name, idx in (("val", ds.val_idx), ("test", ds.test_idx)):
        if not len(idx):
            raise UserError(f"--split {o['split']} leaves the {name} split of {len(ds.samples)} samples empty")
    return ds, ds.subset(ds.val_idx), ds.subset(ds.test_idx)


def cmd_evaluate(o: dict) -> int:
    ds, queries, archive = _load_eval_data(o)
    with _checkpoint(o, ds) as net:
        report = evaluate(net, queries, archive, _resolve_k(o, len(archive)))
    out = _out_dir(o)
    rows = [(o["method"], report)]
    write_metrics_csv(rows, os.path.join(out, "metrics.csv"))
    write_manifest(os.path.join(out, "manifest.txt"), "evaluate", o)
    print(format_metric_table(rows))
    return 0


def _ablate_seed(o: dict, curve: list) -> dict:
    """Train and score the nine cells on the data and split of ``o["seed"]``.

    Every cell is scored val -> test after each epoch; each score becomes
    one ``curve.csv`` line appended to ``curve``. Returns
    {cell: (its last score, its cumulative triplets)}.
    """
    ds, queries, archive = _load_eval_data(o)
    k = _resolve_k(o, len(archive))
    cells = []
    for name in SAMPLER_CHOICES:
        cell = dict(o, sampler=name)
        cfg = _train_config(cell)
        # reject every cell up front, not after training the ones before it
        validate_config(cfg.sampler, cfg.batch_size)
        cells.append((name, cfg))
    results = {}
    for name, cfg in cells:
        reports = []

        def score(epoch, net, row):
            reports.append(evaluate(net, queries, archive, k))
            curve.append(",".join([str(o["seed"]), *name.split("-"), str(row.epoch), str(row.cum_triplets),
                                   f"{row.seconds:.3f}", *metric_cells(reports[-1])]))

        net, log = train(ds, cfg, epoch_callback=score)
        # with --epochs 0 no epoch ran, so the untrained net is scored
        report = reports[-1] if reports else evaluate(net, queries, archive, k)
        results[name] = (report, log.rows[-1].cum_triplets if log.rows else 0)
    return results


def cmd_ablate(o: dict) -> int:
    seeds = _parse_int_list(o["seed"] or "")
    if not seeds:
        raise UserError("--seed needs at least one integer seed")
    o["seed"] = ",".join(map(str, seeds))
    out = _out_dir(o)
    sums = {name: np.zeros(4) for name in SAMPLER_CHOICES}
    counts = {}
    curve = []
    for seed in seeds:
        for name, (rep, cum) in _ablate_seed(dict(o, seed=seed), curve).items():
            sums[name] += (rep.accuracy, rep.precision, rep.recall, rep.f1)
            # the triplet count does not depend on the seed
            counts[name] = cum
    rows = [(name, MetricReport(*(sums[name] / len(seeds)).tolist())) for name in SAMPLER_CHOICES]
    grid_path = os.path.join(out, "grid.csv")
    with open(grid_path, "w", newline="") as fh:
        fh.write("anchor_strategy,image_strategy,accuracy,precision,recall,f1,cum_triplets\n")
        for name, rep in rows:
            fh.write(",".join([*name.split("-"), *metric_cells(rep), str(counts[name])]) + "\n")
    with open(os.path.join(out, "curve.csv"), "w", newline="") as fh:
        fh.write("seed,anchor_strategy,image_strategy,epoch,cum_triplets,seconds,"
                 "accuracy,precision,recall,f1\n")
        fh.writelines(line + "\n" for line in curve)
    write_manifest(os.path.join(out, "manifest.txt"), "ablate", o)
    table = format_metric_table(rows).splitlines()
    width = max(len(str(c)) for c in counts.values())
    width = max(width, len("Triplets"))
    print(table[0] + "  " + "Triplets".rjust(width))
    for line, (name, _) in zip(table[1:], rows):
        print(line + "  " + str(counts[name]).rjust(width))
    print(f"grid written to {grid_path}")
    return 0


def cmd_mine_debug(o: dict) -> int:
    if o["batches"] < 1:
        raise UserError(f"--batches must be >= 1, got {o['batches']}")
    ds = _load_data(o)
    scfg = _sampler_config(o)
    with _checkpoint(o, ds) as net:
        # the checkpoint's layer sizes make the stream spend training's Glorot
        # draws before its first permutation; the checkpoint embeds the batches
        cfg = TrainConfig(batch_size=o["batch_size"], hidden_dims=net.layer_dims[1:-1],
                          embedding_dim=net.layer_dims[-1], sampler=scfg, seed=o["seed"])
        _, rng, epoch_batches = batch_stream(ds, cfg)
        # past an epoch's last batch, the next epoch draws training's next permutation
        stream = itertools.chain.from_iterable(map(epoch_batches, itertools.repeat(net)))
        for b, (_, _, batch) in zip(range(o["batches"]), stream):
            for line in mine_debug_lines(b, batch, scfg, rng):
                print(line)
    return 0


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "mine-debug": cmd_mine_debug,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    explicit = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        resolved = resolve_options(command, explicit)
        return COMMANDS[command](resolved)
    except (UserError, ValueError, OSError, FloatingPointError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
