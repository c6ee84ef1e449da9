"""One measured workload run in a fresh process (started by ``run.py``).

It imports ``tripmine`` from the checkout's ``src`` only, reads the input
files ``run.py`` generated, and drives the package through the same public
calls as the CLI: ``data.load_dataset``/``split_dataset``,
``embedder.load_checkpoint``, ``trainer.train`` and ``retrieval.evaluate``.
One caller waits for each call to finish (a closed loop with one client).
It writes what it measured and what the program returned to
``result.json`` (and the trained weights to ``net.npz``); ``run.py`` checks
those outputs, so this process's peak RSS is the program's alone.

Usage: worker.py WORKLOAD INPUT_DIR OUT_DIR SECONDS TRACE(0|1) TINY(0|1)
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _import_package():
    import tripmine

    origin = Path(tripmine.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"tripmine imported from {origin}, not from {ROOT / 'src'}")
    from tripmine import core, data, embedder, retrieval, trainer

    return core, data, embedder, retrieval, trainer


core, data, embedder, retrieval, trainer = _import_package()


class Run:
    def __init__(self, w: workloads.Workload, inputs: Path):
        self.w = w
        self.inputs = inputs
        self.seeds = json.loads((inputs / "config.json").read_text())
        self.state = None
        self.net = None  # the embedder the last train call returned
        self.cfg = None
        if w.kind == "train":
            self.cfg = trainer.TrainConfig(
                epochs=w.epochs, batch_size=w.batch_size, hidden_dims=(workloads.HIDDEN,),
                embedding_dim=w.embedding_dim, seed=self.seeds["train_seed"],
                sampler=core.SamplerConfig(anchor_strategy=w.anchor, image_strategy=w.images,
                                           seed=self.seeds["sampler_seed"]),
            )

    def setup(self) -> float:
        """Load the input files (and split, or read the checkpoint); returns seconds."""
        self.state = None
        started = perf_counter()
        if self.w.kind == "train":
            ds = data.load_dataset(self.inputs / "features.csv", self.inputs / "labels.csv")
            self.state = data.split_dataset(ds, workloads.SPLIT, core.seeded_rng(self.seeds["split_seed"]))
        else:
            queries = data.load_dataset(self.inputs / "queries.bin", self.inputs / "queries_labels.csv")
            archive = data.load_dataset(self.inputs / "archive.bin", self.inputs / "archive_labels.csv")
            net = embedder.load_checkpoint(self.inputs / "model.ckpt")
            self.state = (queries.samples, archive.samples, net)
        return perf_counter() - started

    def unit(self, i: int) -> dict:
        """One timed call: a whole ``train``, or ``evaluate`` on query block i."""
        if self.w.kind == "train":
            try:
                started = perf_counter()
                net, log = trainer.train(self.state, self.cfg)
                wall = perf_counter() - started
            except Exception as exc:  # a failed call counts its batches as failed ops
                return {"error": repr(exc)}
            self.net = net
            return {"wall": wall, "epochs": [[r.mean_loss, r.cum_triplets] for r in log.rows]}
        queries, archive, net = self.state
        block = i % (self.w.n_queries // self.w.block)
        chunk = queries[block * self.w.block:(block + 1) * self.w.block]
        try:
            started = perf_counter()
            rep = retrieval.evaluate(net, chunk, archive, self.w.k)
            wall = perf_counter() - started
        except Exception as exc:  # a failed call counts its queries as failed ops
            return {"error": repr(exc), "block": block}
        return {"wall": wall, "block": block, "report": [rep.accuracy, rep.precision, rep.recall, rep.f1]}

    def train_f1(self) -> dict:
        """k=10 evaluation of the trained embedder, val split against test split."""
        ds = self.state
        try:
            rep = retrieval.evaluate(self.net, ds.subset(ds.val_idx), ds.subset(ds.test_idx),
                                     workloads.TRAIN_F1_K)
        except Exception as exc:
            return {"error": repr(exc)}
        return {"report": [rep.accuracy, rep.precision, rep.recall, rep.f1],
                "val_idx": list(ds.val_idx), "test_idx": list(ds.test_idx)}


def main(argv) -> int:
    name, inputs, out, seconds, trace, tiny = argv
    w = workloads.get(name, tiny=tiny == "1")
    run = Run(w, Path(inputs))
    out = Path(out)
    seconds = float(seconds)
    result = {}
    if trace == "1":
        import tracing

        tracer = tracing.Tracer(alpha=run.cfg.alpha if run.cfg else 0.0)
        with tracer.installed():
            run.setup()
        # untraced and traced calls of the same unit alternate, so the ratio of
        # their wall times is the tracing overhead
        units, traced_units = [], []
        started = perf_counter()
        while len(units) < w.min_units or perf_counter() - started < seconds:
            units.append(run.unit(len(units)))
            with tracer.installed():
                traced_units.append(run.unit(len(traced_units)))
        if run.net is not None:
            with tracer.installed():
                result["train_f1"] = run.train_f1()
        plain = sum(u.get("wall", 0.0) for u in units)
        traced = sum(u.get("wall", 0.0) for u in traced_units)
        result["units"] = units + traced_units
        result["per_layer"] = tracer.summary(traced / plain - 1.0 if plain > 0 else 0.0)
    else:
        # set-ups are spread over the run rather than bunched at its start, so
        # their median sees the same swings in machine speed as the calls do
        setups, units, busy = [], [], 0.0
        while len(units) < w.min_units or busy < seconds:
            while len(setups) < w.setup_repeats and busy >= len(setups) * seconds / w.setup_repeats:
                setups.append(run.setup())
            started = perf_counter()
            units.append(run.unit(len(units)))
            busy += perf_counter() - started
        setups += [run.setup() for _ in range(w.setup_repeats - len(setups))]
        result["setup_s"] = setups
        result["units"] = units
        if run.net is not None:
            result["train_f1"] = run.train_f1()
    if run.net is not None:
        np.savez(out / "net.npz", *run.net.weights, *run.net.biases)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
