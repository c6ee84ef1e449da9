import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tripmine.core import SampleTable, SamplerConfig, TripletSet, seeded_rng
from tripmine.data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    split_dataset,
    write_dataset,
    write_features_binary,
)
import tripmine.embedder as emb_mod
import tripmine.sampler as sampler_mod
import tripmine.similarity as similarity
import tripmine.trainer as trainer
from tripmine.embedder import Embedder, forward
from tripmine.sampler import mine_batch
from tripmine.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_stream,
    init_adam,
    lr_schedule,
    train,
    write_train_log,
)


def small_dataset(seed=1, n=60):
    ds = generate_synthetic(SyntheticSpec(n_samples=n, seed=seed))
    return split_dataset(ds, (0.6, 0.2, 0.2), seeded_rng(seed + 1))


def small_config(seed=1, epochs=5, anchor="das", image="rhdis", **kw):
    sampler = SamplerConfig(anchor_strategy=anchor, image_strategy=image, seed=seed,
                            positives_per_anchor=2, negatives_per_anchor=2)
    defaults = dict(epochs=epochs, batch_size=16, lr0=0.01, hidden_dims=(8,),
                    embedding_dim=4, sampler=sampler, seed=seed)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.mark.parametrize("call, message", [
    (lambda: TrainConfig(decay_every_epochs=0).validate(), "decay_every_epochs must be >= 1 and decay_factor in (0, 1]"),
    (lambda: TrainConfig(decay_factor=1.5).validate(), "decay_every_epochs must be >= 1 and decay_factor in (0, 1]"),
    (lambda: TrainConfig(embedding_dim=0).validate(), "layer sizes must be >= 1"),
    (lambda: TrainConfig(hidden_dims=(8, 0)).validate(), "layer sizes must be >= 1"),
    (lambda: adam_step([np.zeros(2)], [], init_adam([np.zeros(2)]), 0.1),
     "params, grads, and state must have matching lengths"),
], ids=["decay-every", "decay-factor", "embedding", "hidden", "adam-lengths"])
def test_rejects_settings_it_cannot_train_with(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestLrSchedule:
    def test_initial_rate(self):
        assert lr_schedule(0, TrainConfig()) == 0.001

    def test_no_decay_before_first_boundary(self):
        assert lr_schedule(4, TrainConfig()) == 0.001

    def test_two_decay_steps(self):
        cfg = TrainConfig()
        assert lr_schedule(10, cfg) == pytest.approx(cfg.lr0 * cfg.decay_factor**2, abs=1e-18)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, TrainConfig())


def adam_oracle_quadratic(lr=0.1, steps=100, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook recurrence on f(x) = x**2 from x = 1."""
    x, m, v = 1.0, 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = 2.0 * x
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        x -= lr * (m / (1.0 - beta1**t)) / (math.sqrt(v / (1.0 - beta2**t)) + eps)
        history.append(x)
    return x, history


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = [np.array([1.0, 2.0])]
        state = init_adam(p)
        adam_step(p, [np.zeros(2)], state, lr=0.1)
        assert np.array_equal(p[0], [1.0, 2.0])
        assert state.t == 1

    def test_zero_gradient_decays_existing_moments(self):
        p = [np.array([1.0, 2.0])]
        state = AdamState(m=[np.array([0.5, 0.5])], v=[np.array([0.25, 0.25])], t=3)
        adam_step(p, [np.zeros(2)], state, lr=0.1)
        assert np.all(state.m[0] == 0.9 * 0.5)
        assert np.all(state.v[0] == 0.999 * 0.25)

    def test_first_step_magnitude_is_about_lr(self):
        p = [np.array([0.0])]
        state = init_adam(p)
        adam_step(p, [np.array([1.0])], state, lr=0.01)
        assert abs(abs(p[0][0]) - 0.01) < 1e-6

    def test_quadratic_convergence_matches_textbook_recurrence(self):
        x_expected, _ = adam_oracle_quadratic()
        p = [np.array([1.0])]
        state = init_adam(p)
        for _ in range(100):
            adam_step(p, [2.0 * p[0]], state, lr=0.1)
        assert abs(p[0][0] - x_expected) < 1e-12
        assert abs(p[0][0]) < 0.1

    def test_shape_mismatch_rejected(self):
        p = [np.zeros(2)]
        with pytest.raises(ValueError, match="shape"):
            adam_step(p, [np.zeros(3)], init_adam(p), lr=0.1)

    def test_bit_identical_to_the_textbook_expression(self):
        rng = seeded_rng(8)
        shapes = [(16, 64), (64,), (64, 1024), (1024,)]
        params = [rng.normal(size=s) for s in shapes]
        ref_p, ref_m, ref_v = ([p.copy() for p in params], [np.zeros(s) for s in shapes],
                               [np.zeros(s) for s in shapes])
        state = init_adam(params)
        for t in range(1, 31):
            # some steps see exactly zero gradients, as the l2-off output bias does
            grads = [rng.normal(size=s) * (t % 4 != 2) for s in shapes]
            lr = 1e-3 * 0.95 ** (t // 5)
            adam_step(params, grads, state, lr)
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for p, g, m, v in zip(ref_p, grads, ref_m, ref_v):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        for got, want in zip(params + state.m + state.v, ref_p + ref_m + ref_v):
            assert got.tobytes() == want.tobytes()

    def test_later_steps_allocate_no_parameter_sized_temporaries(self):
        rng = seeded_rng(9)
        params = [rng.normal(size=(64, 1024))]
        state = init_adam(params)
        grads = [rng.normal(size=(64, 1024))]
        adam_step(params, grads, state, lr=1e-3)
        tracemalloc.start()
        try:
            adam_step(params, grads, state, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params[0].nbytes

    def test_scratch_follows_the_parameter_shapes(self):
        state = AdamState(m=[np.zeros(2)], v=[np.zeros(2)], t=0)
        p = [np.array([1.0, 2.0])]
        adam_step(p, [np.ones(2)], state, lr=0.1)
        state.m, state.v = [np.zeros(3), np.zeros((2, 2))], [np.zeros(3), np.zeros((2, 2))]
        q = [np.zeros(3), np.zeros((2, 2))]
        adam_step(q, [np.ones(3), -np.ones((2, 2))], state, lr=0.1)
        assert [s.shape for pair in state.scratch for s in pair] == [(3,), (3,), (2, 2), (2, 2)]
        assert np.all(q[0] < 0.0) and np.all(q[1] > 0.0)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        ds = small_dataset()
        cfg = small_config(epochs=0)
        net, log = train(ds, cfg)
        fresh = Embedder.init([ds.n_features, *cfg.hidden_dims, cfg.embedding_dim],
                              seeded_rng(cfg.seed))
        for w1, w2 in zip(net.weights, fresh.weights):
            assert np.array_equal(w1, w2)
        assert len(log) == 0

    def test_reproducible_weights_and_log(self):
        ds = small_dataset()
        net1, log1 = train(ds, small_config())
        net2, log2 = train(ds, small_config())
        for w1, w2 in zip(net1.weights, net2.weights):
            assert np.array_equal(w1, w2)
        for r1, r2 in zip(log1.rows, log2.rows):
            assert r1.mean_loss == r2.mean_loss
            assert r1.cum_triplets == r2.cum_triplets
            assert r1.lr == r2.lr

    def test_triplet_count_matches_counting_oracle(self):
        ds = small_dataset()
        cfg = small_config(epochs=4)
        _, log = train(ds, cfg)
        n_batches = len(ds.train_idx) // cfg.batch_size
        h = cfg.sampler.num_anchors(cfg.batch_size)
        c = cfg.sampler.positives_per_anchor
        expected = 4 * n_batches * h * c * c
        assert log.rows[-1].cum_triplets == expected

    def test_cumulative_triplets_non_decreasing_and_loss_finite(self):
        ds = small_dataset()
        _, log = train(ds, small_config(epochs=6))
        cums = [r.cum_triplets for r in log.rows]
        assert cums == sorted(cums)
        assert all(np.isfinite(r.mean_loss) for r in log.rows)

    def test_two_cluster_loss_decreases(self):
        ds = split_dataset(
            generate_synthetic(SyntheticSpec(n_samples=80, n_prototypes=2, n_classes=4, seed=3)),
            (0.6, 0.2, 0.2), seeded_rng(4))
        _, log = train(ds, small_config(seed=3, epochs=30))
        assert log.rows[-1].mean_loss < log.rows[0].mean_loss

    def test_training_beats_random_initialization_on_default_synthetic(self):
        from tripmine.retrieval import evaluate

        seed = 1
        ds = split_dataset(generate_synthetic(SyntheticSpec(seed=seed)),
                           (0.6, 0.2, 0.2), seeded_rng(seed + 1))
        sampler = SamplerConfig(seed=seed)
        kwargs = dict(batch_size=32, lr0=0.01, hidden_dims=(32,), embedding_dim=16,
                      sampler=sampler, seed=seed)
        cold, _ = train(ds, TrainConfig(epochs=0, **kwargs))
        hot, _ = train(ds, TrainConfig(epochs=60, **kwargs))
        f1_cold = evaluate(cold, ds.subset(ds.val_idx), ds.subset(ds.test_idx), 10).f1
        f1_hot = evaluate(hot, ds.subset(ds.val_idx), ds.subset(ds.test_idx), 10).f1
        assert f1_hot > f1_cold

    def test_batch_exhaustive_strategies_mine_more_triplets(self):
        ds = small_dataset()
        _, log_dr = train(ds, small_config(epochs=3))
        _, log_bb = train(ds, small_config(epochs=3, anchor="bas", image="bis"))
        assert log_bb.rows[-1].cum_triplets > log_dr.rows[-1].cum_triplets

    def test_epoch_callback_sees_every_epoch(self):
        ds = small_dataset()
        seen = []
        train(ds, small_config(epochs=3), epoch_callback=lambda e, net, row: seen.append(e))
        assert seen == [0, 1, 2]

    def test_a_diverged_last_step_raises_before_the_epoch_callback(self, monkeypatch):
        # the step taken on epoch 0's last batch (batch 1 of 2) sends the
        # weights past float64; no batch of epoch 0 is left to embed them
        def overflowing_step(params, grads, state, lr):
            adam_step(params, grads, state, lr)
            if state.t == 2:
                for p in params:
                    p *= 1e300
            return state

        monkeypatch.setattr(trainer, "adam_step", overflowing_step)
        seen = []
        with pytest.raises(FloatingPointError, match="training diverged at epoch 0, batch 1: "
                                                     "embeddings contain non-finite values"):
            train(small_dataset(), small_config(epochs=2), epoch_callback=lambda *args: seen.append(args))
        assert seen == []

    def test_a_loss_beyond_float64_raises_naming_the_epoch(self):
        # features near 2e305 keep every distance finite, while a batch's
        # hinge terms sum past float64
        ds = split_dataset(generate_synthetic(SyntheticSpec(n_samples=40, seed=1, feature_dim=4)),
                           (0.5, 0.25, 0.25), seeded_rng(0))
        ds.samples.features[:] *= 2e305 / np.abs(ds.samples.features).max()
        cfg = TrainConfig(epochs=1, batch_size=20, hidden_dims=(4,), embedding_dim=4,
                          sampler=SamplerConfig(anchor_strategy="bas", image_strategy="bis"))
        with pytest.raises(FloatingPointError, match="training diverged at epoch 0: non-finite loss"):
            train(ds, cfg)

    def test_an_l2_backward_overflow_raises_naming_the_epoch_and_batch(self):
        # a step at lr 1e100 sends the hidden rows' squared norms past float64:
        # forward rescales such rows, and backward's l2 branch raises
        with pytest.raises(FloatingPointError, match=r"training diverged at epoch \d+, batch \d+: "
                                                     "squared norms of the l2 rows overflow float64"):
            train(small_dataset(), small_config(l2_normalize=True, lr0=1e100))

    @pytest.mark.parametrize("anchor, image", [("das", "rhdis"), ("bas", "bis")])
    @pytest.mark.parametrize("l2", [False, True])
    def test_forward_embeds_every_batch_and_every_evaluated_row(self, anchor, image, l2, monkeypatch):
        # one call per batch and one more per epoch, which checks the step
        # taken on its last batch; then evaluate's queries, and the archive
        # rows it ranks: the float32 screen's candidates, or with l2 the
        # archive. Every call measures in the hidden width, with a factor
        from tripmine.retrieval import evaluate

        calls, real = [], emb_mod.forward

        def spy(net, features, factor=None):
            calls.append((len(features), factor is None))
            return real(net, features, factor)

        ds = small_dataset()
        cfg = small_config(epochs=2, anchor=anchor, image=image, l2_normalize=l2)
        monkeypatch.setattr(emb_mod, "forward", spy)
        net, _ = train(ds, cfg)
        n_batches = len(ds.train_idx) // cfg.batch_size
        assert calls == [(cfg.batch_size, False)] * (cfg.epochs * (n_batches + 1))
        queries, archive = ds.subset(ds.val_idx), ds.subset(ds.test_idx)
        del calls[:]
        evaluate(net, queries, archive, 5)
        assert len(calls) == 2 and calls[0] == (len(queries), False)
        if l2:
            assert calls[1] == (len(archive), False)
        else:
            assert calls[1][1] is False and 5 <= calls[1][0] <= len(archive)

    def test_output_bias_stays_zero_without_l2_normalization(self):
        ds = small_dataset()
        plain, _ = train(ds, small_config(epochs=3))
        assert np.all(plain.biases[-1] == 0.0)
        normalized, _ = train(ds, small_config(epochs=3, l2_normalize=True))
        assert np.all(normalized.biases[-1] != 0.0)

    @pytest.mark.parametrize("anchor, image", [("bas", "bis"), ("das", "rhdis")])
    def test_training_never_builds_the_triplet_list(self, anchor, image, monkeypatch):
        def refuse(tset):
            raise AssertionError("training built the (T, 3) triplet list")

        ds = small_dataset()
        want_net, want_log = train(ds, small_config(epochs=2, anchor=anchor, image=image))
        monkeypatch.setattr(TripletSet, "triplets", property(refuse))
        net, log = train(ds, small_config(epochs=2, anchor=anchor, image=image))
        assert log.rows[-1].cum_triplets == want_log.rows[-1].cum_triplets > 0
        assert [r.mean_loss for r in log.rows] == [r.mean_loss for r in want_log.rows]
        for w1, w2 in zip(net.weights, want_net.weights):
            assert np.array_equal(w1, w2)

    def test_l2_off_training_never_builds_the_embedding(self, monkeypatch):
        self.check_never_builds_the_embedding(monkeypatch, l2=False)

    def test_l2_training_never_builds_the_embedding(self, monkeypatch):
        self.check_never_builds_the_embedding(monkeypatch, l2=True)

    @staticmethod
    def check_never_builds_the_embedding(monkeypatch, l2):
        # hidden 8 < embedding 16: distances and gradients in the hidden width
        def refuse(*args):
            raise AssertionError("training built the d-wide embedding")

        ds = small_dataset()
        cfg = small_config(epochs=2, embedding_dim=16, l2_normalize=l2)
        want_net, want_log = train(ds, cfg)
        monkeypatch.setattr(emb_mod, "_forward_cached", refuse)
        net, log = train(ds, cfg)
        assert [r.mean_loss for r in log.rows] == [r.mean_loss for r in want_log.rows]
        for w1, w2 in zip(net.weights, want_net.weights):
            assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("anchor", ["das", "ras", "bas"])
    @pytest.mark.parametrize("image", ["rhdis", "ris", "bis"])
    def test_distances_are_normalized_only_where_mining_scores_with_them(self, anchor, image, monkeypatch):
        # rhdis scores with the min-max distances, once per mined batch; das
        # ranks the raw ones, and the other cells and each epoch's closing
        # re-measure read none
        events = []
        real_mine, real_normalize = sampler_mod.mine_batch, similarity.minmax_normalize

        def mine(*args):
            events.append("mine")
            return real_mine(*args)

        def normalize(dist_raw):
            events.append("normalize")
            return real_normalize(dist_raw)

        monkeypatch.setattr(sampler_mod, "mine_batch", mine)
        monkeypatch.setattr(similarity, "minmax_normalize", normalize)
        ds = small_dataset()
        train(ds, small_config(epochs=2, anchor=anchor, image=image))
        mined = 2 * (len(ds.train_idx) // 16)
        assert events == (["mine", "normalize"] if image == "rhdis" else ["mine"]) * mined

    @pytest.mark.parametrize("rows", ["zero", "duplicate", "all zero"])
    def test_rank_deficient_output_weights_train(self, rows):
        # W W^T is singular, so the distances fall back to W itself or come
        # from a factor with tiny pivots; either way one epoch trains
        ds = small_dataset()
        cfg = small_config(embedding_dim=16)
        net, rng, epoch_batches = batch_stream(ds, cfg)
        w = net.weights[-1]
        if rows == "zero":
            w[::2] = 0.0
        elif rows == "duplicate":
            w[1::2] = w[0]
        else:
            w[:] = 0.0
        if rows != "duplicate":
            assert emb_mod.distance_factor(net) is w
        params = emb_mod.parameters(net)
        state = init_adam(params)
        for x, factor, batch in epoch_batches(net):
            tset = mine_batch(batch, cfg.sampler, rng)
            loss, grads = emb_mod.backward(net, x, tset, cfg.alpha, batch.dist_raw, factor)
            assert np.isfinite(loss)
            adam_step(params, grads, state, cfg.lr0)
        assert all(np.isfinite(p).all() for p in params)

    def test_empty_train_split_rejected(self):
        ds = small_dataset()
        ds.train_idx = []
        with pytest.raises(ValueError, match="training samples"):
            train(ds, small_config())

    def test_batch_larger_than_split_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="exceeds train split"):
            train(ds, small_config(batch_size=1000))


class TestFloat32Features:
    """A binary file's float32 features train the net the same values held
    in float64 train: each batch widens them exactly."""

    @pytest.fixture
    def twins(self, tmp_path):
        ds = small_dataset(n=120)
        write_dataset(ds, tmp_path / "features.csv", tmp_path / "labels.csv")
        write_features_binary(tmp_path / "features.bin", ds.samples.features)
        stored = replace(load_dataset(tmp_path / "features.bin", tmp_path / "labels.csv"),
                         train_idx=ds.train_idx, val_idx=ds.val_idx, test_idx=ds.test_idx)
        wide = replace(stored, samples=SampleTable(stored.samples.ids, stored.samples.features.astype(np.float64),
                                                   stored.samples.labels))
        return stored, wide

    def test_subsets_keep_float32(self, twins):
        stored, _ = twins
        assert stored.samples.features.dtype == np.float32
        for idx in (stored.train_idx, stored.val_idx, stored.test_idx):
            assert stored.subset(idx).features.dtype == np.float32

    @pytest.mark.parametrize("kw", [{}, {"l2_normalize": True}, {"image": "bis", "anchor": "bas"}])
    def test_weights_and_log_byte_identical_to_float64(self, twins, kw):
        (net32, log32), (net64, log64) = (train(ds, small_config(epochs=3, **kw)) for ds in twins)
        for p32, p64 in zip(emb_mod.parameters(net32), emb_mod.parameters(net64)):
            assert p32.dtype == np.float64 and p32.tobytes() == p64.tobytes()
        assert [(r.mean_loss, r.cum_triplets) for r in log32.rows] == [(r.mean_loss, r.cum_triplets) for r in log64.rows]


class TestTrainLogCsv:
    def test_columns_and_row_count(self, tmp_path):
        ds = small_dataset()
        _, log = train(ds, small_config(epochs=3))
        path = tmp_path / "train_log.csv"
        write_train_log(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,cum_triplets,lr,seconds"
        assert len(lines) == 4

    def test_deterministic_columns_identical_across_runs(self, tmp_path):
        ds = small_dataset()
        outs = []
        for name in ("a.csv", "b.csv"):
            _, log = train(ds, small_config(epochs=3))
            path = tmp_path / name
            write_train_log(log, path)
            rows = [line.split(",")[:4] for line in path.read_text().splitlines()]
            outs.append(rows)
        assert outs[0] == outs[1]


def test_readme_library_example_runs(capsys):
    # the README's "Library use" block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    f1, cum_triplets = capsys.readouterr().out.split()
    assert 0.0 < float(f1) <= 1.0
    assert int(cum_triplets) > 0
