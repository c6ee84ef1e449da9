"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The oracles here are deliberately self-contained re-enumerations so
this module does not depend on the other test files.
"""

import math

import numpy as np
import pytest

from tripmine.cli import main as cli_main
from tripmine.core import BatchView, SampleTable, SamplerConfig, seeded_rng
from tripmine.data import SyntheticSpec, generate_synthetic, load_dataset, split_dataset
from tripmine.embedder import Embedder, finite_difference_check, triplet_loss
from tripmine.retrieval import MetricReport, evaluate, pair_metrics
from tripmine.sampler import (
    informativeness,
    select_anchors_das,
    select_negatives_rhdis,
    select_positives_rhdis,
)
from tripmine.similarity import label_similarity_matrix, minmax_normalize, pairwise_euclidean
from tripmine.trainer import TrainConfig, train


def report(num, desc, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ------------------------------------------------------------------ oracles

def enum_das(dist, h, first):
    selected = [first]
    while len(selected) < h:
        best, best_score = None, None
        for cand in range(len(dist)):
            if cand in selected:
                continue
            score = max(dist[cand][a] for a in selected)
            if best_score is None or score > best_score:
                best, best_score = cand, score
        selected.append(best)
    return selected


def enum_iterative(anchor, scores, dist, c, gamma, excluded=()):
    banned = set(excluded) | {anchor}
    chosen = []
    best, best_score = None, None
    for cand in range(len(scores)):
        if cand in banned:
            continue
        if best_score is None or scores[cand] > best_score:
            best, best_score = cand, scores[cand]
    chosen.append(best)
    while len(chosen) < c:
        best, best_score = None, None
        for cand in range(len(scores)):
            if cand in banned or cand in chosen:
                continue
            score = gamma * scores[cand] + (1.0 - gamma) * max(dist[cand][p] for p in chosen)
            if best_score is None or score > best_score:
                best, best_score = cand, score
        chosen.append(best)
    return chosen


def set_metrics(q, r):
    qs = {i for i, v in enumerate(q) if v}
    rs = {i for i, v in enumerate(r) if v}
    inter = len(qs & rs)
    prec, rec = inter / len(rs), inter / len(qs)
    f1 = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
    return inter / len(qs | rs), prec, rec, f1


# ------------------------------------------------------------------ criteria

def test_criterion_1_selection_oracle_equivalence():
    rng = seeded_rng(101)
    instances = 0
    ok = True
    while instances < 240:
        b = int(rng.integers(3, 9))
        if instances % 2:
            # quantized distances force genuine argmax ties
            upper = np.triu(rng.integers(0, 4, size=(b, b)).astype(float), k=1)
            raw = upper + upper.T
        else:
            raw = pairwise_euclidean(rng.normal(size=(b, 3)))
        dist = minmax_normalize(raw)
        labels = (rng.random((b, 4)) < 0.5).astype(np.uint8)
        labels[labels.sum(axis=1) == 0, 0] = 1
        s = label_similarity_matrix(labels)
        beta = float(rng.random())
        gamma = float(rng.random())
        first = int(rng.integers(b))
        h = int(rng.integers(1, b + 1))
        anchors = select_anchors_das(dist, h, rng, first_anchor=first)
        ok &= anchors.tolist() == enum_das(dist.tolist(), h, first)
        anchor = int(rng.integers(b))
        c = max(1, (b - 1) // 2)
        row = informativeness(np.array([anchor]), dist, s[[anchor]], beta)
        pos = select_positives_rhdis(np.array([anchor]), row, dist, c, gamma)
        neg = select_negatives_rhdis(np.array([anchor]), row, dist, c, gamma, exclude=pos)
        i_pos = [beta * s[anchor][x] + (1.0 - beta) * dist[anchor][x] for x in range(b)]
        i_neg = [beta * (1.0 - s[anchor][x]) + (1.0 - beta) * (1.0 - dist[anchor][x]) for x in range(b)]
        ok &= pos[0].tolist() == enum_iterative(anchor, i_pos, dist.tolist(), c, gamma)
        ok &= neg[0].tolist() == enum_iterative(anchor, i_neg, dist.tolist(), c, gamma, excluded=pos[0].tolist())
        instances += 1
    report(1, f"anchor/positive/negative selections match exhaustive enumeration on {instances} instances", ok)


def test_criterion_2_informativeness_complement_identity():
    rng = seeded_rng(102)
    worst = 0.0
    for _ in range(100):
        beta = float(rng.random())
        s = rng.random(100)
        d = rng.random(100)
        dist = np.zeros((2, 100))
        dist[0] = d
        row = informativeness(np.array([0]), dist, s[None], beta)
        worst = max(worst, float(np.max(np.abs(row.i_neg - (1.0 - row.i_pos)))))
    report(2, f"i_neg = 1 - i_pos within 1e-12 over 10^4 (S, D, beta) triples (worst {worst:.2e})", worst < 1e-12)


def test_criterion_3_gradient_matches_finite_differences():
    rng = seeded_rng(103)
    worst = 0.0
    checked_total = 0
    for _ in range(50):
        net = Embedder.init([8, 16, 8], rng)
        x = rng.normal(size=(12, 8))
        t = rng.integers(0, 12, size=(24, 3))
        t = t[(t[:, 0] != t[:, 1]) & (t[:, 0] != t[:, 2]) & (t[:, 1] != t[:, 2])]
        alpha = float(rng.uniform(0.05, 0.5))
        rep = finite_difference_check(net, x, t, alpha, step=1e-5)
        worst = max(worst, rep.max_rel_error)
        checked_total += rep.n_checked
    ok = worst < 1e-4 and checked_total > 0
    report(3, f"analytic vs central-difference gradients, 50 instances (worst rel err {worst:.2e})", ok)


def test_criterion_4_loss_semantics():
    # the satisfied-margin example: d(a,p)=0.3, d(a,n)=0.9, margin 0.2
    emb = np.array([[0.0], [0.3], [0.9]])
    trivial = triplet_loss(emb, np.array([[0, 1, 2]]), 0.2)
    ok = trivial == 0.0
    rng = seeded_rng(104)
    for _ in range(200):
        e = rng.normal(size=(6, 2))
        t = rng.integers(0, 6, size=(8, 3))
        t = t[(t[:, 0] != t[:, 1]) & (t[:, 0] != t[:, 2]) & (t[:, 1] != t[:, 2])]
        if not len(t):
            continue
        alpha = float(rng.uniform(0.0, 1.0))
        d = lambda i, j: float(np.linalg.norm(e[i] - e[j]))
        satisfied = all(d(a, n) >= d(a, p) + alpha for a, p, n in t)
        ok &= (triplet_loss(e, t, alpha) == 0.0) == satisfied
    report(4, "loss is 0 exactly when every triplet satisfies the margin", ok)


def _budget_run(ds, anchor, image, seed, epochs=15):
    sampler_cfg = SamplerConfig(anchor_strategy=anchor, image_strategy=image, seed=seed)
    cfg = TrainConfig(epochs=epochs, batch_size=32, lr0=0.01, hidden_dims=(32,),
                      embedding_dim=16, sampler=sampler_cfg, seed=seed)
    f1s = []
    def track(epoch, net, row):
        f1s.append(evaluate(net, ds.subset(ds.val_idx), ds.subset(ds.test_idx), 10).f1)
    _, log = train(ds, cfg, epoch_callback=track)
    cums = [r.cum_triplets for r in log.rows]
    return np.array(f1s), np.array(cums)


def test_criterion_5_triplet_budget_ordering():
    seed = 1
    ds = split_dataset(generate_synthetic(SyntheticSpec(n_samples=100, seed=seed)),
                       (0.6, 0.2, 0.2), seeded_rng(seed + 1))
    f1_sel, cum_sel = _budget_run(ds, "das", "rhdis", seed)
    f1_all, cum_all = _budget_run(ds, "bas", "bis", seed)
    ratio = cum_all[-1] / cum_sel[-1]

    def triplets_to_reach_own_threshold(f1s, cums, slack=0.05):
        threshold = f1s[-1] - slack
        return cums[int(np.argmax(f1s >= threshold))]

    need_sel = triplets_to_reach_own_threshold(f1_sel, cum_sel)
    need_all = triplets_to_reach_own_threshold(f1_all, cum_all)
    ok = ratio >= 10.0 and need_sel < need_all
    report(5, f"bas+bis mines {ratio:.0f}x more triplets; das+rhdis reaches its final-F1 band "
              f"with {need_sel} vs {need_all} triplets", ok)


def test_criterion_6_ablation_ordering():
    results = {"das-rhdis": [], "ras-ris": [], "das-ris": []}
    for seed in (1, 2, 3, 4, 5):
        ds = split_dataset(generate_synthetic(SyntheticSpec(seed=seed)),
                           (0.6, 0.2, 0.2), seeded_rng(seed + 1))
        for name in results:
            anchor, image = name.split("-")
            sampler_cfg = SamplerConfig(anchor_strategy=anchor, image_strategy=image, seed=seed)
            cfg = TrainConfig(epochs=60, batch_size=32, lr0=0.01, hidden_dims=(32,),
                              embedding_dim=16, sampler=sampler_cfg, seed=seed)
            net, _ = train(ds, cfg)
            results[name].append(evaluate(net, ds.subset(ds.val_idx), ds.subset(ds.test_idx), 10).f1)
    means = {name: float(np.mean(v)) for name, v in results.items()}
    ok = means["das-rhdis"] >= means["ras-ris"] and means["das-rhdis"] >= means["das-ris"]
    report(6, "5-seed mean F1: das+rhdis {das-rhdis:.3f} >= ras+ris {ras-ris:.3f} and "
              ">= das+ris {das-ris:.3f} (rhdis vs ris, das fixed)".format(**means), ok)


def test_criterion_7_metric_correctness():
    got = pair_metrics([0, 1, 1], [0, 1, 0])
    ok = got == (0.5, 1.0, 0.5, 2 / 3)

    rng = seeded_rng(107)
    net = Embedder.init([3, 4], rng)
    queries = SampleTable([f"q{i}" for i in range(2)], rng.normal(size=(2, 3)), [[1, 1, 0], [0, 1, 1]])
    archive = SampleTable([f"a{i}" for i in range(6)], rng.normal(size=(6, 3)),
                          [[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 1, 1], [1, 0, 1], [0, 0, 1]])
    rep = evaluate(net, queries, archive, k=3)

    from tripmine.embedder import forward
    q_emb = forward(net, queries.features)
    a_emb = forward(net, archive.features)
    per_query = []
    for qi in range(len(queries)):
        pool = sorted(
            ((math.sqrt(sum((q_emb[qi][t] - a_emb[j][t]) ** 2 for t in range(4))), j)
             for j in range(len(archive))),
            key=lambda item: (item[0], item[1]))
        metrics = [set_metrics(queries.labels[qi], archive.labels[j]) for _, j in pool[:3]]
        per_query.append([sum(col) / 3 for col in zip(*metrics)])
    expected = [sum(col) / 2 for col in zip(*per_query)]
    ok &= all(abs(g - e) < 1e-12 for g, e in
              zip((rep.accuracy, rep.precision, rep.recall, rep.f1), expected))
    report(7, "pair metrics worked example is exact; 6-item fixture matches full enumeration to 1e-12", ok)


def test_criterion_8_cli_train_determinism(tmp_path, capsys):
    args = ["train", "--synthetic", "--n-samples", "60", "--epochs", "3", "--batch-size", "16",
            "--embedding", "8", "--hidden", "8", "--lr", "0.01", "--seed", "7"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    same_ckpt = (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()

    def log_bytes(path):
        # the seconds column records wall-clock time; every other byte of the
        # log must be identical between seeded runs
        return "\n".join(",".join(line.split(",")[:4]) for line in path.read_text().splitlines())

    same_log = log_bytes(out1 / "train_log.csv") == log_bytes(out2 / "train_log.csv")
    report(8, "seeded train runs produce byte-identical checkpoints and logs", same_ckpt and same_log)


def test_criterion_9_degenerate_handling(tmp_path):
    constant = np.full((4, 4), 3.0)
    np.fill_diagonal(constant, 0.0)
    norm = minmax_normalize(constant)
    ok = bool(np.all(norm == 0.0))

    feats = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    feats.write_text("a,1.0,2.0\nb,3.0,4.0\n")
    labels.write_text("id,c0,c1\na,1,0\nb,0,0\n")
    with pytest.raises(ValueError, match="'b' has no class labels"):
        load_dataset(feats, labels)
    report(9, "constant-distance batches normalize to zero; all-zero label rows are rejected", ok)
