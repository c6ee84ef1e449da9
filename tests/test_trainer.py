import math

import numpy as np
import pytest

from tripmine.core import SamplerConfig, TripletSet, seeded_rng
from tripmine.data import SyntheticSpec, generate_synthetic, split_dataset
import tripmine.embedder as emb_mod
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
        # hidden 8 < embedding 16: distances and gradients in the hidden width
        def refuse(*args):
            raise AssertionError("training built the d-wide embedding")

        ds = small_dataset()
        cfg = small_config(epochs=2, embedding_dim=16)
        want_net, want_log = train(ds, cfg)
        monkeypatch.setattr(emb_mod, "_forward_cached", refuse)
        net, log = train(ds, cfg)
        assert [r.mean_loss for r in log.rows] == [r.mean_loss for r in want_log.rows]
        for w1, w2 in zip(net.weights, want_net.weights):
            assert np.array_equal(w1, w2)

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
            bundle = emb_mod.backward(net, x, tset, cfg.alpha, batch.dist_raw, factor)
            assert np.isfinite(bundle.loss_value)
            adam_step(params, emb_mod.gradient_list(bundle), state, cfg.lr0)
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
