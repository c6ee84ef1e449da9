import csv
import dataclasses
import json
import math
import struct
import warnings

import numpy as np
import pytest

from tripmine import cli, sampler
from tripmine.cli import SAMPLER_CHOICES, main
from tripmine.core import BatchView, SamplerConfig
from tripmine.data import SyntheticSpec, generate_synthetic, write_dataset
from tripmine.embedder import load_checkpoint, save_checkpoint
from tripmine.trainer import TrainConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_DATA = ["--synthetic", "--n-samples", "60", "--seed", "1"]
TINY = TINY_DATA + [
    "--epochs", "3", "--batch-size", "16", "--embedding", "8", "--hidden", "8", "--lr", "0.01",
]


# manifests written before --combination and --label-sim were removed (and
# before ablate stopped taking --sampler), by train with TINY and by ablate
# with CI_ABLATE --seed 1 --epochs 1
OLD_TRAIN_MANIFEST = """\
# tripmine 0.1.0
# command: train
alpha=0.2
anchors_fraction=0.1
batch_size=16
beta=0.5
checkpoint_every=0
combination=cartesian
das_reduce=max
decay_every=5
decay_factor=0.95
embedding=8
epochs=3
feature_dim=16
feature_noise=0.1
features=
gamma=0.1
hidden=8
l2_normalize=false
label_noise=0.05
label_sim=cosine
labels=
lr=0.01
n_classes=8
n_samples=60
negatives=3
out={out}
positives=3
preset=full
prototypes=4
sampler=das-rhdis
seed=1
split=0.6,0.2,0.2
synthetic=true
"""
OLD_ABLATE_MANIFEST = """\
# tripmine 0.1.0
# command: ablate
alpha=0.2
anchors_fraction=0.1
batch_size=32
beta=0.5
combination=cartesian
das_reduce=max
decay_every=5
decay_factor=0.95
embedding=16
epochs=1
feature_dim=16
feature_noise=0.1
features=
gamma=0.1
hidden=32
k=
l2_normalize=false
label_noise=0.05
label_sim=cosine
labels=
lr=0.01
n_classes=8
n_samples=100
negatives=3
out={out}
positives=3
preset=ci
prototypes=4
sampler=das-rhdis
seed=1
split=0.6,0.2,0.2
synthetic=true
"""


def without_keys(manifest_lines, *keys):
    return [line for line in manifest_lines if line.partition("=")[0] not in keys]


def read_log_without_seconds(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:4]) for line in lines]


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


METRICS = ("accuracy", "precision", "recall", "f1")


class TestTrain:
    def test_writes_fixed_filenames(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "train", *TINY, "--out", str(out))
        assert code == 0
        for name in ("model.ckpt", "train_log.csv", "manifest.txt"):
            assert (out / name).exists()
        assert "trained 3 epochs" in stdout

    def test_seeded_runs_are_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "train", *TINY, "--out", str(out1))[0] == 0
        assert run(capsys, "train", *TINY, "--out", str(out2))[0] == 0
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        assert read_log_without_seconds(out1 / "train_log.csv") == read_log_without_seconds(out2 / "train_log.csv")

    def test_missing_labels_file_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope_labels.csv"
        feats = tmp_path / "features.csv"
        feats.write_text("a,1.0\n")
        code, _, err = run(capsys, "train", "--features", str(feats), "--labels", str(missing),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert "nope_labels.csv" in err
        assert "Traceback" not in err

    def test_no_synthetic_samples_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--synthetic", "--n-samples", "0", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "n_samples, n_classes, and feature_dim must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, content", [
        ("nan.csv", b"a,1.0,nan\nb,2.0,3.0\n"),
        ("huge.csv", b"a,1.0,2.0\nb,1e309,3.0\n"),
        ("cut.bin", b"TMFEAT01\x02\x00"),
        ("empty.bin", b"TMFEAT01" + struct.pack("<2I", 2, 0)),
        ("inf.bin", b"TMFEAT01" + struct.pack("<2I2f", 2, 1, 1.0, math.inf)),
    ])
    def test_bad_feature_file_exits_2_naming_path(self, tmp_path, capsys, name, content):
        feats = tmp_path / name
        feats.write_bytes(content)
        labels = tmp_path / "labels.csv"
        labels.write_text("id,c0,c1\na,1,0\nb,0,1\n")
        code, _, err = run(capsys, "train", "--features", str(feats), "--labels", str(labels),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert name in err
        assert "Traceback" not in err

    def test_duplicate_label_ids_with_binary_features_exit_2(self, tmp_path, capsys):
        feats = tmp_path / "features.bin"
        feats.write_bytes(b"TMFEAT01" + struct.pack("<2I3f", 3, 1, 0.0, 1.0, 2.0))
        labels = tmp_path / "dup_labels.csv"
        labels.write_text("id,c0,c1\na,1,0\na,0,1\nb,1,1\n")
        code, _, err = run(capsys, "train", "--features", str(feats), "--labels", str(labels),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert "dup_labels.csv: sample id 'a' is repeated" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["features", "labels"])
    def test_undecodable_csv_exits_2_naming_path(self, tmp_path, capsys, which):
        files = {"features": tmp_path / "features.csv", "labels": tmp_path / "labels.csv"}
        files["features"].write_bytes(b"a,1.0\nb,2.0\n")
        files["labels"].write_bytes(b"id,c0\na,1\nb,1\n")
        files[which].write_bytes(files[which].read_bytes().replace(b"b,", b"b\xff,"))
        code, _, err = run(capsys, "train", "--features", str(files["features"]),
                           "--labels", str(files["labels"]), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{which}.csv: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_triplet_count_over_limit_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--synthetic", "--n-samples", "600", "--seed", "1",
                           "--sampler", "bas-bis", "--batch-size", "300", "--embedding", "8",
                           "--hidden", "8", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "triplets per batch" in err

    @pytest.mark.parametrize("argv, message", [
        *[(["--sampler", pair, "--anchors-fraction", "1e-12"],
           "anchor_fraction 1e-12 selects no anchor from a batch of 100")
          for pair in ("das-rhdis", "ras-rhdis", "ras-ris", "ras-bis")],
        (["--sampler", "bas-bis", "--batch-size", "2", "--positives", "1", "--negatives", "1"],
         "bis needs a batch size of at least 3 to mine a triplet, got 2"),
    ])
    def test_configuration_that_mines_nothing_exits_2_before_the_first_batch(self, tmp_path, capsys,
                                                                               built_batches, argv, message):
        code, stdout, err = run(capsys, "train", "--synthetic", "--seed", "1", "--n-samples", "200",
                                "--epochs", "1", *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == "" and built_batches == []
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_bis_at_batch_three_trains(self, tmp_path, capsys):
        # bis reads no per-anchor counts, so the default 3 and 3 do not reject it
        code, stdout, _ = run(capsys, "train", *TINY_DATA, "--epochs", "1", "--batch-size", "3",
                              "--embedding", "8", "--hidden", "8", "--sampler", "bas-bis",
                              "--out", str(tmp_path / "o"))
        assert code == 0
        # 36 train samples make 12 batches of 3 anchors with 2 triplets each
        assert "72 cumulative triplets" in stdout

    @pytest.mark.parametrize("l2", [[], ["--l2-normalize"]])
    def test_divergence_exits_2_naming_epoch_and_batch(self, tmp_path, capsys, l2):
        # the weights outgrow float64 in the first epoch's one step, which is
        # checked before the epoch ends; numpy's overflow warnings would be
        # raised here as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "train", "--synthetic", "--seed", "1", "--n-samples", "200",
                               "--epochs", "3", "--lr", "1e300", *l2, "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == "error: training diverged at epoch 0, batch 0: embeddings contain non-finite values\n"
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_an_l2_backward_overflow_exits_2_naming_epoch_and_batch(self, tmp_path, capsys):
        # the first epoch's steps leave embeddings forward can rescale, whose
        # hidden rows' squared norms backward cannot take
        code, _, err = run(capsys, "train", "--synthetic", "--seed", "1", "--n-samples", "200",
                           "--epochs", "3", "--lr", "1e100", "--l2-normalize", "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == ("error: training diverged at epoch 1, batch 0: "
                       "squared norms of the l2 rows overflow float64\n")
        assert not (tmp_path / "o" / "model.ckpt").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--n-samples", "200", "--epochs", "1", "--lr", "1e200", "--sampler", "bas-bis"],
        ["train", "--n-samples", "200", "--epochs", "1", "--lr", "1e300", "--sampler", "bas-bis"],
        ["train", "--n-samples", "200", "--epochs", "2", "--checkpoint-every", "1", "--lr", "1e200",
         "--sampler", "bas-bis"],
        ["ablate", "--n-samples", "100", "--epochs", "1", "--preset", "ci", "--lr", "1e200"],
    ])
    def test_a_diverged_last_step_exits_2_before_any_checkpoint(self, tmp_path, capsys, argv):
        # each epoch here is one batch, so its one step is its last
        code, _, err = run(capsys, *argv, "--synthetic", "--seed", "1", "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == "error: training diverged at epoch 0, batch 0: embeddings contain non-finite values\n"
        assert not list(tmp_path.glob("o/*.ckpt"))

    @pytest.mark.parametrize("flag, value, field", [
        ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"), ("--lr", "nan", "lr0"), ("--lr", "inf", "lr0"),
    ])
    def test_non_finite_alpha_or_lr_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                             flag, value, field):
        mined = []
        real = sampler.mine_batch
        monkeypatch.setattr(sampler, "mine_batch", lambda *args: mined.append(args) or real(*args))
        code, stdout, err = run(capsys, "train", *TINY, flag, value, "--out", str(tmp_path / "o"))
        assert code == 2
        assert field in err and "finite" in err
        assert "Traceback" not in err
        assert stdout == "" and mined == []
        assert not (tmp_path / "o" / "model.ckpt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_noise_exits_2_naming_the_field(self, tmp_path, capsys, value):
        code, stdout, err = run(capsys, "train", "--synthetic", "--seed", "1", "--n-samples", "100",
                                "--preset", "ci", "--feature-noise", value, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "feature_noise_sigma must be >= 0 and finite" in err
        assert "sample" not in err and stdout == ""

    def test_nan_split_fraction_exits_2_naming_the_fractions(self, tmp_path, capsys):
        code, stdout, err = run(capsys, "train", "--synthetic", "--seed", "1", "--n-samples", "100",
                                "--preset", "ci", "--split", "nan,0.2,0.2", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "fractions must be positive and sum to at most 1" in err and "nan" in err
        assert stdout == ""

    def test_stock_defaults_in_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(capsys, "train", *TINY, "--out", str(out))
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "alpha=0.2" in manifest
        assert "beta=0.5" in manifest
        assert "gamma=0.1" in manifest
        assert "anchors_fraction=0.1" in manifest
        assert "decay_factor=0.95" in manifest
        assert "sampler=das-rhdis" in manifest

    def test_checkpoint_every_writes_intermediates(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(capsys, "train", *TINY, "--out", str(out), "--checkpoint-every", "2")
        assert code == 0
        assert (out / "model_epoch2.ckpt").exists()
        assert not (out / "model_epoch3.ckpt").exists()

    def test_negative_checkpoint_every_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, err = run(capsys, "train", *TINY, "--out", str(out), "--checkpoint-every", "-3")
        assert code == 2
        assert "--checkpoint-every" in err and "-3" in err
        assert not out.exists()

    def test_manifest_reruns_identically_via_config(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        run(capsys, "train", *TINY, "--out", str(out1))
        out2 = tmp_path / "b"
        code, _, _ = run(capsys, "train", "--config", str(out1 / "manifest.txt"), "--out", str(out2))
        assert code == 0
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()

    def test_manifests_of_synthetic_and_file_runs_replay(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_dataset(generate_synthetic(SyntheticSpec(n_samples=60, seed=1)), data / "f.csv", data / "l.csv")
        files = ["--features", str(data / "f.csv"), "--labels", str(data / "l.csv"), "--seed", "1"]
        runs = {"synthetic": TINY, "files": files + TINY[len(TINY_DATA):]}
        for name, argv in runs.items():
            assert run(capsys, "train", *argv, "--out", str(tmp_path / name))[0] == 0
        manifests = {name: (tmp_path / name / "manifest.txt").read_text().splitlines() for name in runs}
        assert {"features=", "labels=", "synthetic=true"} <= set(manifests["synthetic"])
        assert "synthetic=false" in manifests["files"]
        for name in runs:
            replay = tmp_path / f"{name}-replay"
            manifest = tmp_path / name / "manifest.txt"
            assert run(capsys, "train", "--config", str(manifest), "--out", str(replay))[0] == 0
            assert (replay / "model.ckpt").read_bytes() == (tmp_path / name / "model.ckpt").read_bytes()

    def test_config_file_overridden_by_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=0.9\ngamma=0.3\n")
        out = tmp_path / "run"
        code, _, _ = run(capsys, "train", *TINY, "--out", str(out),
                         "--config", str(cfg), "--gamma", "0.2")
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "beta=0.9" in manifest  # from config file
        assert "gamma=0.2" in manifest  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_factor=9\n")
        code, _, err = run(capsys, "train", *TINY, "--out", str(tmp_path / "o"), "--config", str(cfg))
        assert code == 2
        assert "warp_factor" in err

    @pytest.mark.parametrize("line, key", [("epochs=ten", "epochs"), ("synthetic=maybe", "synthetic")])
    def test_unparsable_config_value_exits_2_naming_file_line_and_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"beta=0.7\n{line}\n")
        code, _, err = run(capsys, "train", *TINY, "--out", str(tmp_path / "o"), "--config", str(cfg))
        assert code == 2
        assert f"{cfg}:2: {key}:" in err
        assert "Traceback" not in err

    def test_old_manifest_naming_removed_options_replays_identically(self, tmp_path, capsys):
        old = tmp_path / "old.txt"
        old.write_text(OLD_TRAIN_MANIFEST.format(out=tmp_path / "old"))
        assert run(capsys, "train", *TINY, "--out", str(tmp_path / "new"))[0] == 0
        assert run(capsys, "train", "--config", str(old), "--out", str(tmp_path / "replay"))[0] == 0
        assert (tmp_path / "replay" / "model.ckpt").read_bytes() == (tmp_path / "new" / "model.ckpt").read_bytes()
        replayed = (tmp_path / "replay" / "manifest.txt").read_text().splitlines()
        assert without_keys(replayed, "out") == without_keys(old.read_text().splitlines(), "out", *cli.REMOVED_OPTIONS)

    def test_other_subcommands_manifest_keys_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=5\nmethod=model\nbeta=0.7\n")  # k/method belong to evaluate
        out = tmp_path / "run"
        code, _, _ = run(capsys, "train", *TINY, "--out", str(out), "--config", str(cfg))
        assert code == 0
        assert "beta=0.7" in (out / "manifest.txt").read_text()


class TestEvaluate:
    @pytest.fixture
    def trained(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY, "--out", str(out))[0] == 0
        return out

    def test_untrained_checkpoint_scores_in_open_interval(self, tmp_path, capsys):
        out = tmp_path / "cold"
        assert run(capsys, "train", *TINY, "--epochs", "0", "--out", str(out))[0] == 0
        code, stdout, _ = run(capsys, "evaluate", *TINY_DATA, "--out", str(out), "--k", "5")
        assert code == 0
        metrics = (out / "metrics.csv").read_text().splitlines()[1].split(",")[1:]
        assert all(0.0 < float(v) < 1.0 for v in metrics)

    @pytest.mark.parametrize("split, name", [("0.5,0.001,0.4", "val"), ("0.6,0.399999999999,1e-11", "test")])
    def test_empty_split_exits_2_naming_split_before_embedding(self, trained, capsys, monkeypatch, split, name):
        embedded = []
        monkeypatch.setattr(cli, "evaluate", lambda *args: embedded.append(args))
        code, stdout, err = run(capsys, "evaluate", *TINY_DATA, "--split", split, "--out", str(trained))
        assert code == 2
        assert err == f"error: --split {split} leaves the {name} split of 60 samples empty\n"
        assert stdout == "" and embedded == []

    def test_k_larger_than_archive_exits_2(self, trained, capsys):
        code, _, err = run(capsys, "evaluate", *TINY_DATA, "--out", str(trained), "--k", "999")
        assert code == 2
        assert "k=" in err

    def test_k_zero_exits_2(self, trained, tmp_path, capsys):
        code, _, err = run(capsys, "evaluate", *TINY_DATA, "--out", str(trained), "--k", "0")
        assert code == 2
        assert "k=0" in err
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("k=0\n")
        code, _, err = run(capsys, "evaluate", *TINY_DATA, "--out", str(trained), "--config", str(cfg))
        assert code == 2
        assert "k=0" in err

    def test_non_finite_checkpoint_exits_2_naming_path(self, trained, tmp_path, capsys):
        data = bytearray((trained / "model.ckpt").read_bytes())
        data[-8:] = struct.pack("<d", math.nan)  # the last bias entry
        ckpt = tmp_path / "nan.ckpt"
        ckpt.write_bytes(bytes(data))
        code, _, err = run(capsys, "evaluate", *TINY_DATA, "--checkpoint", str(ckpt),
                           "--out", str(tmp_path / "o"), "--k", "5")
        assert code == 2
        assert "nan.ckpt" in err and "non-finite" in err

    def test_repeat_evaluation_identical(self, trained, capsys):
        code1, out1, _ = run(capsys, "evaluate", *TINY_DATA, "--out", str(trained), "--k", "5")
        metrics1 = (trained / "metrics.csv").read_text()
        code2, out2, _ = run(capsys, "evaluate", *TINY_DATA, "--out", str(trained), "--k", "5")
        metrics2 = (trained / "metrics.csv").read_text()
        assert code1 == code2 == 0
        assert metrics1 == metrics2
        assert out1 == out2

    def test_incompatible_checkpoint_dims_exit_2(self, trained, tmp_path, capsys):
        code, _, err = run(capsys, "evaluate", *TINY_DATA, "--feature-dim", "9",
                           "--out", str(trained), "--k", "5")
        assert code == 2
        assert "features" in err

    @pytest.mark.parametrize("payload", [
        b"TMEMB001",  # cut off right after the magic
        b"TMEMB001" + struct.pack("<3I", 2, 65536, 65536),  # declares a 32 GB weight matrix
    ])
    def test_malformed_checkpoint_exits_2_naming_path(self, tmp_path, capsys, payload):
        ckpt = tmp_path / "broken.ckpt"
        ckpt.write_bytes(payload)
        code, _, err = run(capsys, "evaluate", *TINY_DATA, "--checkpoint", str(ckpt),
                           "--out", str(tmp_path / "o"), "--k", "5")
        assert code == 2
        assert "broken.ckpt" in err

    @pytest.mark.parametrize("pair", SAMPLER_CHOICES)
    def test_prints_the_first_block_training_mined(self, tmp_path, capsys, monkeypatch, pair):
        opts = [*TINY_DATA, "--batch-size", "16", "--sampler", pair]
        net_opts = ["--embedding", "8", "--hidden", "8"]
        # --epochs 0 saves the initial net, which embeds training's first batch
        init = tmp_path / "init"
        assert run(capsys, "train", *opts, *net_opts, "--epochs", "0", "--out", str(init))[0] == 0
        mined = []
        real = sampler.mine_batch

        def record(*args):
            mined.append(real(*args))
            return mined[-1]

        monkeypatch.setattr(sampler, "mine_batch", record)
        assert run(capsys, "train", *opts, *net_opts, "--epochs", "1", "--out", str(tmp_path / "o"))[0] == 0
        monkeypatch.undo()
        code, stdout, _ = run(capsys, "mine-debug", *opts, "--batches", "1", "--out", str(init))
        assert code == 0
        header, *rows = [json.loads(line) for line in stdout.splitlines()]
        first = mined[0]
        assert header["anchors"] == first.anchors.tolist()
        assert header["triplet_count"] == len(first)
        assert [r["positives"] for r in rows] == first.positives.tolist()
        assert [r["negatives"] for r in rows] == first.negatives.tolist()

    def test_takes_l2_normalize_from_the_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY, "--l2-normalize", "--out", str(out))[0] == 0
        flagged = run(capsys, "evaluate", *TINY_DATA, "--l2-normalize", "--out", str(out), "--k", "5")
        unflagged = run(capsys, "evaluate", *TINY_DATA, "--out", str(out), "--k", "5")
        assert flagged[0] == unflagged[0] == 0
        assert flagged[1] == unflagged[1]

    def test_l2_normalize_contradicting_the_checkpoint_exits_2(self, trained, capsys):
        code, stdout, err = run(capsys, "evaluate", *TINY_DATA, "--l2-normalize", "--out", str(trained))
        assert code == 2
        assert str(trained / "model.ckpt") in err and "l2_normalize" in err
        assert "Traceback" not in err and stdout == ""

    def test_prints_percent_table(self, trained, capsys):
        code, stdout, _ = run(capsys, "evaluate", *TINY_DATA, "--out", str(trained), "--k", "5")
        assert code == 0
        assert "Method" in stdout and "Accuracy" in stdout


CI_ABLATE = ["--synthetic", "--n-samples", "100", "--preset", "ci"]


def ablate(capsys, out, *argv):
    """Run ablate at ci size; returns the rows of grid.csv and curve.csv."""
    code, _, err = run(capsys, "ablate", *CI_ABLATE, "--out", str(out), *argv)
    assert code == 0, err
    return read_csv_rows(out / "grid.csv"), read_csv_rows(out / "curve.csv")


def cell_of(row):
    return f"{row['anchor_strategy']}-{row['image_strategy']}"


def without_seconds(rows):
    return [{key: v for key, v in r.items() if key != "seconds"} for r in rows]


class TestAblate:
    def test_grid_cells_triplet_counts_and_metric_ranges(self, tmp_path, capsys):
        grid, curve = ablate(capsys, tmp_path / "grid", "--seed", "1", "--epochs", "1")
        assert [cell_of(r) for r in grid] == list(SAMPLER_CHOICES)
        # one batch of 32: das/ras mine 4 anchors x 3 x 3, bas 32 x 3 x 3, bis 31 x 30 pairs
        counts = {cell_of(r): int(r["cum_triplets"]) for r in grid}
        assert counts["das-rhdis"] == 36 and counts["bas-rhdis"] == 288
        assert counts["das-bis"] == 4 * 31 * 30 and counts["bas-bis"] == 32 * 31 * 30
        for r in grid + curve:
            assert all(0.0 <= float(r[m]) <= 1.0 for m in METRICS)

    def test_curve_adds_each_epoch_and_its_last_rows_are_the_grid(self, tmp_path, capsys):
        grid, curve = ablate(capsys, tmp_path / "grid", "--seed", "1", "--epochs", "2")
        assert list(curve[0]) == ["seed", "anchor_strategy", "image_strategy", "epoch", "cum_triplets",
                                  "seconds", *METRICS]
        by_cell = {}
        for r in curve:
            by_cell.setdefault(cell_of(r), []).append(r)
        assert list(by_cell) == list(SAMPLER_CHOICES)
        for name, triplets in {"das-rhdis": 36, "ras-ris": 36, "bas-bis": 32 * 31 * 30}.items():
            assert [int(r["cum_triplets"]) for r in by_cell[name]] == [triplets, 2 * triplets]
        for g in grid:
            last = by_cell[cell_of(g)][-1]
            assert (last["seed"], last["epoch"]) == ("1", "1")
            assert [last[c] for c in (*METRICS, "cum_triplets")] == [g[c] for c in (*METRICS, "cum_triplets")]

    def test_seed_list_grid_is_the_mean_of_the_single_seed_grids(self, tmp_path, capsys):
        singles = [ablate(capsys, tmp_path / f"seed{s}", "--seed", str(s), "--epochs", "1") for s in (1, 2)]
        out = tmp_path / "both"
        grid, curve = ablate(capsys, out, "--seed", "1,2", "--epochs", "1")
        for i, row in enumerate(grid):
            total = np.zeros(4)
            for single_grid, _ in singles:
                total += tuple(float(single_grid[i][m]) for m in METRICS)
            assert [row[m] for m in METRICS] == [repr(v) for v in (total / 2).tolist()]
            assert row["cum_triplets"] == singles[1][0][i]["cum_triplets"]
        assert without_seconds(curve) == without_seconds(singles[0][1] + singles[1][1])
        # the manifest replays through ablate, and train names the line it cannot take
        lines = (out / "manifest.txt").read_text().splitlines()
        assert "seed=1,2" in lines
        code, _, err = run(capsys, "train", "--config", str(out / "manifest.txt"), "--out", str(tmp_path / "t"))
        assert code == 2
        assert f"manifest.txt:{lines.index('seed=1,2') + 1}: seed:" in err

    def test_old_manifest_replays_to_the_same_grid(self, tmp_path, capsys):
        old = tmp_path / "old.txt"
        old.write_text(OLD_ABLATE_MANIFEST.format(out=tmp_path / "old"))
        grid, curve = ablate(capsys, tmp_path / "new", "--seed", "1", "--epochs", "1")
        assert run(capsys, "ablate", "--config", str(old), "--out", str(tmp_path / "replay"))[0] == 0
        assert (tmp_path / "replay" / "grid.csv").read_bytes() == (tmp_path / "new" / "grid.csv").read_bytes()
        assert without_seconds(read_csv_rows(tmp_path / "replay" / "curve.csv")) == without_seconds(curve)
        # the sampler= line is train's key, skipped; the removed options' lines are dropped
        replayed = (tmp_path / "replay" / "manifest.txt").read_text().splitlines()
        assert without_keys(replayed, "out") == without_keys(old.read_text().splitlines(), "out", "sampler",
                                                             *cli.REMOVED_OPTIONS)

    def test_zero_epochs_scores_the_untrained_nets(self, tmp_path, capsys):
        grid, curve = ablate(capsys, tmp_path / "grid", "--seed", "1", "--epochs", "0")
        assert [cell_of(r) for r in grid] == list(SAMPLER_CHOICES)
        assert all(r["cum_triplets"] == "0" and 0.0 < float(r["f1"]) < 1.0 for r in grid)
        assert curve == []

    @pytest.mark.parametrize("seeds", ["1,x", ","])
    def test_bad_seed_list_rejected_before_training(self, tmp_path, capsys, seeds):
        code, stdout, err = run(capsys, "ablate", *CI_ABLATE, "--seed", seeds, "--out", str(tmp_path / "grid"))
        assert code == 2
        assert "integer" in err
        assert stdout == ""

    def test_grid_has_nine_rows_and_budget_ordering(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code, stdout, _ = run(capsys, "ablate", "--synthetic", "--n-samples", "60",
                              "--epochs", "2", "--batch-size", "16", "--embedding", "8",
                              "--hidden", "8", "--lr", "0.01", "--seed", "1",
                              "--out", str(out), "--k", "5")
        assert code == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "anchor_strategy,image_strategy,accuracy,precision,recall,f1,cum_triplets"
        assert len(lines) == 10
        counts = {}
        for line in lines[1:]:
            parts = line.split(",")
            counts[f"{parts[0]}-{parts[1]}"] = int(parts[-1])
            for v in parts[2:6]:
                assert 0.0 <= float(v) <= 1.0
        assert counts["bas-bis"] > counts["das-rhdis"]
        assert list(counts) == list(SAMPLER_CHOICES)
        assert "Triplets" in stdout

    def test_k_zero_rejected_before_training(self, tmp_path, capsys):
        code, stdout, err = run(capsys, "ablate", *TINY, "--out", str(tmp_path / "grid"), "--k", "0")
        assert code == 2
        assert "k=0" in err
        assert stdout == ""


    @pytest.mark.parametrize("split, name", [("0.5,0.001,0.4", "val"), ("0.6,0.399999999999,1e-11", "test")])
    def test_empty_split_rejected_before_training(self, tmp_path, capsys, built_batches, split, name):
        code, stdout, err = run(capsys, "ablate", *CI_ABLATE, "--seed", "1", "--epochs", "3", "--split", split,
                                "--out", str(tmp_path / "grid"))
        assert code == 2
        assert err == f"error: --split {split} leaves the {name} split of 100 samples empty\n"
        assert stdout == "" and built_batches == []

@pytest.fixture
def built_batches(monkeypatch):
    """The sample indices of every ``BatchView`` built, in order."""
    seen = []
    build = BatchView.from_embeddings.__func__

    def record(cls, sample_indices, embeddings, labels):
        seen.append(np.array(sample_indices))
        return build(cls, sample_indices, embeddings, labels)

    monkeypatch.setattr(BatchView, "from_embeddings", classmethod(record))
    return seen


class TestMineDebug:
    def test_single_batch_block(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY, "--out", str(out))[0] == 0
        code, stdout, _ = run(capsys, "mine-debug", *TINY_DATA, "--batch-size", "16",
                              "--out", str(out), "--batches", "1")
        assert code == 0
        lines = [json.loads(l) for l in stdout.strip().splitlines()]
        headers = [l for l in lines if "anchors" in l]
        assert len(headers) == 1
        batch_size = 16
        assert len(headers[0]["anchors"]) == math.ceil(0.1 * batch_size)
        for entry in lines:
            for key in ("anchors", "positives", "negatives"):
                for idx in entry.get(key, []):
                    assert 0 <= idx < batch_size

    def test_mines_the_batches_training_mined(self, tmp_path, capsys, built_batches):
        seen = built_batches
        out = tmp_path / "run"
        opts = ["--synthetic", "--n-samples", "200", "--seed", "3", "--sampler", "ras-ris",
                "--batch-size", "16", "--out", str(out)]
        assert run(capsys, "train", *opts, "--embedding", "8", "--hidden", "8", "--epochs", "1")[0] == 0
        trained = seen[:2]
        seen.clear()
        assert run(capsys, "mine-debug", *opts, "--batches", "2")[0] == 0
        assert len(seen) == 2
        for debug, train in zip(seen, trained):
            assert np.array_equal(debug, train)

    def test_next_epoch_mines_the_batches_training_mined(self, tmp_path, capsys, built_batches):
        seen = built_batches
        out = tmp_path / "run"
        # 120 training samples: 7 batches of 16 per epoch, each measured again after its last
        opts = ["--synthetic", "--n-samples", "200", "--seed", "3", "--sampler", "ras-ris",
                "--batch-size", "16", "--out", str(out)]
        assert run(capsys, "train", *opts, "--embedding", "8", "--hidden", "8", "--epochs", "2")[0] == 0
        trained = seen[:7] + seen[8:15]
        seen.clear()
        assert run(capsys, "mine-debug", *opts, "--batches", "14")[0] == 0
        debugged = seen[:7] + seen[8:]
        assert len(debugged) == 14
        for debug, train in zip(debugged, trained):
            assert np.array_equal(debug, train)

    def test_batches_run_on_into_the_next_epoch(self, tmp_path, capsys):
        out = tmp_path / "run"
        data = ["--synthetic", "--n-samples", "400", "--seed", "1", "--out", str(out)]
        assert run(capsys, "train", *data, "--epochs", "1", "--embedding", "8", "--hidden", "8")[0] == 0
        code, two, _ = run(capsys, "mine-debug", *data, "--batches", "2")
        assert code == 0
        code, nine, _ = run(capsys, "mine-debug", *data, "--batches", "9")
        assert code == 0
        # 240 training samples make 2 batches of 100 per epoch
        headers = [line for line in nine.splitlines() if '"anchors"' in line]
        assert [json.loads(line)["batch"] for line in headers] == list(range(9))
        assert nine.startswith(two) and nine != two

    def test_takes_l2_normalize_from_the_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY, "--l2-normalize", "--out", str(out))[0] == 0
        opts = [*TINY_DATA, "--batch-size", "16", "--out", str(out), "--batches", "2"]
        flagged = run(capsys, "mine-debug", *opts, "--l2-normalize")
        unflagged = run(capsys, "mine-debug", *opts)
        assert flagged[0] == unflagged[0] == 0
        assert flagged[1] == unflagged[1]

    def test_l2_normalize_contradicting_the_checkpoint_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY, "--out", str(out))[0] == 0
        code, stdout, err = run(capsys, "mine-debug", *TINY_DATA, "--batch-size", "16", "--l2-normalize",
                                "--out", str(out))
        assert code == 2
        assert str(out / "model.ckpt") in err and "l2_normalize" in err
        assert stdout == ""

    @pytest.mark.parametrize("batches", ["0", "-3"])
    def test_batches_below_one_exits_2(self, tmp_path, capsys, batches):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY, "--out", str(out))[0] == 0
        code, stdout, err = run(capsys, "mine-debug", *TINY_DATA, "--batch-size", "16",
                                "--out", str(out), "--batches", batches)
        assert code == 2
        assert f"--batches must be >= 1, got {batches}" in err
        assert stdout == ""

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "mine-debug", *TINY_DATA, "--out", str(tmp_path / "void"))
        assert code == 2
        assert "checkpoint" in err

    def test_triplet_count_over_limit_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY, "--out", str(out))[0] == 0
        code, stdout, err = run(capsys, "mine-debug", "--synthetic", "--n-samples", "600", "--seed", "1",
                                "--sampler", "bas-bis", "--batch-size", "300", "--out", str(out))
        assert code == 2
        assert "triplets per batch" in err
        assert stdout == ""


@pytest.mark.parametrize("command", ["evaluate", "mine-debug"])
def test_checkpoint_of_another_width_exits_2_naming_it(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert run(capsys, "train", *TINY, "--feature-dim", "16", "--out", str(out))[0] == 0
    ckpt = out / "model.ckpt"
    batch = ["--batch-size", "16"] if command == "mine-debug" else []
    code, stdout, err = run(capsys, command, *TINY_DATA, *batch, "--feature-dim", "8",
                            "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"))
    assert code == 2
    assert stdout == ""
    assert err == f"error: {ckpt}: checkpoint expects 16 features but dataset has 8\n"


class TestOverflowingCheckpoint:
    """A checkpoint whose finite weights make its rows, or only their squares,
    overflow float64 on the data."""

    @pytest.mark.parametrize("command, scale", [("evaluate", 1e200), ("mine-debug", 1e200)])
    @pytest.mark.parametrize("hidden", ["8", "24"])  # Cholesky factor; F = W
    def test_exits_2_naming_it_without_warnings(self, tmp_path, capsys, command, scale, hidden):
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY_DATA, "--epochs", "1", "--batch-size", "16", "--embedding", "16",
                   "--hidden", hidden, "--out", str(out))[0] == 0
        net = load_checkpoint(out / "model.ckpt")
        for w in net.weights:
            w *= scale
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(net, ckpt)
        batch = ["--batch-size", "16"] if command == "mine-debug" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, command, *TINY_DATA, *batch, "--checkpoint", str(ckpt),
                                    "--out", str(tmp_path / "o"))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
        assert "non-finite" in err and "diverged" not in err

    @pytest.mark.parametrize("hidden", ["8", "24"])  # Cholesky factor; F = W
    def test_rows_whose_squares_overflow_evaluate_as_unscaled(self, tmp_path, capsys, hidden):
        # 2**500 on every weight and hidden bias scales the rows h F by
        # exactly 2**1000: their squared norms overflow, their distances do not
        out = tmp_path / "run"
        assert run(capsys, "train", *TINY_DATA, "--epochs", "1", "--batch-size", "16", "--embedding", "16",
                   "--hidden", hidden, "--out", str(out))[0] == 0
        assert run(capsys, "evaluate", *TINY_DATA, "--out", str(out))[0] == 0
        net = load_checkpoint(out / "model.ckpt")
        for p in net.weights + net.biases[:-1]:
            np.ldexp(p, 500, out=p)
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(net, ckpt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "evaluate", *TINY_DATA, "--checkpoint", str(ckpt),
                               "--out", str(tmp_path / "o"))
        assert code == 0 and err == ""
        assert (tmp_path / "o" / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


class TestParser:
    def test_rejects_unknown_sampler_pair(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--sampler", "das-unknown"])

    def test_ablate_rejects_checkpoint_every(self, tmp_path, capsys):
        # ablate writes no checkpoint, so the flag would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["ablate", *TINY_DATA, "--out", str(tmp_path / "grid"), "--checkpoint-every", "1"])
        assert exc.value.code == 2
        assert "--checkpoint-every" in capsys.readouterr().err
        assert not (tmp_path / "grid").exists()

    @pytest.mark.parametrize("command, flag, value", [
        # ablate trains every strategy pair, so it would ignore a --sampler
        ("ablate", "--sampler", "das-rhdis"),
        *[(command, flag, value) for command in ("train", "ablate", "mine-debug")
          for flag, value in (("--combination", "cartesian"), ("--label-sim", "cosine"))],
    ])
    def test_rejects_options_it_does_not_take(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, *TINY_DATA, "--out", str(tmp_path / "o"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sampler_choices_cover_the_grid_anchor_major(self):
        assert SAMPLER_CHOICES == ("das-rhdis", "das-ris", "das-bis", "ras-rhdis", "ras-ris",
                                   "ras-bis", "bas-rhdis", "bas-ris", "bas-bis")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


@pytest.mark.parametrize("files, argv, message", [
    ({}, ["--synthetic", "--config", "{tmp}/missing.cfg"], "config file not found: {tmp}/missing.cfg"),
    ({"run.cfg": "epochs=1\nsampler\n"}, ["--synthetic", "--config", "{tmp}/run.cfg"],
     "{tmp}/run.cfg:2: expected key=value, got 'sampler'"),
    ({"run.cfg": "sampler=foo-bar\n"}, ["--synthetic", "--config", "{tmp}/run.cfg"],
     "{tmp}/run.cfg:1: sampler must be one of " + str(SAMPLER_CHOICES)),
    ({}, ["--synthetic", "--split", "0.6,0.4"], "--split needs three comma-separated fractions, got '0.6,0.4'"),
    ({}, ["--synthetic", "--split", "a,b,c"], "cannot parse fractions 'a,b,c'"),
    ({"f.csv": "a,1.0\n"}, ["--features", "{tmp}/f.csv"],
     "either --synthetic or both --features and --labels are required"),
    ({"f.csv": "a,1.0\n", "l.csv": "id\na\n"}, ["--features", "{tmp}/f.csv", "--labels", "{tmp}/l.csv"],
     "{tmp}/l.csv: header names no classes"),
    ({"f.csv": "a,1.0\nb,2.0\na,3.0\n", "l.csv": "id,c0\na,1\nb,1\n"},
     ["--features", "{tmp}/f.csv", "--labels", "{tmp}/l.csv"], "{tmp}/f.csv: sample id 'a' is repeated"),
    ({"f.csv": "a,1.0\n", "l.csv": "id,c0\na,1\n"},
     ["--synthetic", "--features", "{tmp}/f.csv", "--labels", "{tmp}/l.csv"],
     "--synthetic excludes --features and --labels"),
    ({"l.csv": "id,c0\na,1\n"}, ["--synthetic", "--labels", "{tmp}/l.csv"],
     "--synthetic excludes --features and --labels"),
    # np.loadtxt would warn on these featureless rows, before the error line
    ({"f.csv": "id,f0\na\nb\n", "l.csv": "id,c0\na,1\nb,1\n"},
     ["--features", "{tmp}/f.csv", "--labels", "{tmp}/l.csv"], "{tmp}/f.csv: row 2 has no feature columns"),
    ({"f.csv": "a,\nb,\n", "l.csv": "id,c0\na,1\nb,1\n"}, ["--features", "{tmp}/f.csv", "--labels", "{tmp}/l.csv"],
     "{tmp}/f.csv: non-numeric feature in row 2: could not convert string to float: ''"),
    ({"run.cfg": "beta=0.7\ncombination=paired\n"}, ["--synthetic", "--config", "{tmp}/run.cfg"],
     "{tmp}/run.cfg:2: option 'combination' was removed; only combination=cartesian is still accepted"),
    ({"run.cfg": "label_sim=jaccard\n"}, ["--synthetic", "--config", "{tmp}/run.cfg"],
     "{tmp}/run.cfg:1: option 'label_sim' was removed; only label_sim=cosine is still accepted"),
    ({"run.cfg": "beta=0.7\nlabel_sim=cosine\ndas_reduce=min\n"}, ["--synthetic", "--config", "{tmp}/run.cfg"],
     "{tmp}/run.cfg:3: option 'das_reduce' was removed; only das_reduce=max is still accepted"),
])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, files, argv, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, stdout, err = run(capsys, "train", *argv, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {message.format(tmp=tmp_path)}\n"
    assert stdout == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 95.4 GiB for an array with shape (200000000, 128) and data type float64"),
     "Unable to allocate 95.4 GiB for an array with shape (200000000, 128) and data type float64"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(options):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "train", exhausted)
    code, stdout, err = run(capsys, "train", *TINY, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {message}\n"
    assert stdout == ""


class TestDefaults:
    """The option tables read their defaults from ``TrainConfig()`` and
    ``SyntheticSpec()``; these check that each option maps onto its field."""

    def test_train_defaults_are_train_config(self):
        assert cli._train_config(cli.resolve_options("train", {})) == TrainConfig()

    def test_ablate_defaults_are_train_config_for_each_seed(self):
        o = cli.resolve_options("ablate", {})
        seeds = cli._parse_int_list(o["seed"])
        assert seeds == (0,)
        assert cli._train_config(dict(o, seed=seeds[0], sampler=cli.SAMPLER.default)) == TrainConfig()

    def test_mine_debug_sampler_and_batch_size_are_the_library_defaults(self):
        o = cli.resolve_options("mine-debug", {})
        assert cli._sampler_config(o) == SamplerConfig()
        assert o["batch_size"] == TrainConfig().batch_size

    def test_one_batch_size_option_serves_every_command_that_batches(self):
        found = {cmd: [o for o in opts if o.name == "batch_size"] for cmd, opts in cli.COMMAND_OPTS.items()}
        one = [cli.BATCH_SIZE]
        assert found == {"train": one, "evaluate": [], "ablate": one, "mine-debug": one}

    def test_evaluate_and_ablate_print_one_k_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a help text
        lines = []
        for command in ("evaluate", "ablate"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            lines.append([line.strip() for line in capsys.readouterr().out.splitlines()
                          if line.strip().startswith("--k ")])
        assert lines[0] == lines[1] and len(lines[0]) == 1 and "30 for archives" in lines[0][0]

    @pytest.mark.parametrize("command", list(cli.COMMAND_OPTS))
    def test_help_prints_each_default_of_the_option_table(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a help text
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        shown = [o for o in cli.COMMAND_OPTS[command] if not o.flag and o.default is not None]
        assert shown
        assert [o.name for o in shown if f"{o.help} (default: {o.default})" not in text] == []

    @pytest.mark.parametrize("command", list(cli.COMMAND_OPTS))
    def test_synthetic_spec_is_the_default_spec_seed_aside(self, monkeypatch, command):
        specs = []
        monkeypatch.setattr(cli, "generate_synthetic", lambda spec: specs.append(spec) or generate_synthetic(spec))
        cli._load_data(cli.resolve_options(command, {"synthetic": True, "seed": 7}))
        assert [spec.seed for spec in specs] == [7]
        assert dataclasses.replace(specs[0], seed=SyntheticSpec().seed) == SyntheticSpec()
