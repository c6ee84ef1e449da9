import itertools
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tripmine.embedder as embedder_mod
from tripmine.core import (
    ANCHOR_STRATEGIES, IMAGE_STRATEGIES, BatchView, SamplerConfig, TripletSet, seeded_rng,
)
from tripmine.embedder import (
    Embedder,
    _forward_cached,
    backward,
    distance_factor,
    finite_difference_check,
    float32_rows,
    forward,
    hinge_terms,
    load_checkpoint,
    parameters,
    save_checkpoint,
    triplet_loss,
)
from tripmine.sampler import build_triplets, mine_batch, select_anchors_bas, select_images_bis
from tripmine.similarity import padded_matmul, pairwise_euclidean

U = 2.0**-53

def forward_oracle(net, x):
    """Straight-line reimplementation: per-row dot products, no matmul."""
    a = np.asarray(x, dtype=np.float64)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.zeros((a.shape[0], w.shape[1]))
        for i in range(a.shape[0]):
            for j in range(w.shape[1]):
                z[i, j] = float(np.dot(a[i], w[:, j])) + b[j]
        a = np.maximum(z, 0.0) if l < len(net.weights) - 1 else z
    return a


def backward_oracle(net, x, t, alpha):
    """Per-triplet gradient: unit difference vectors scattered row by row.

    Builds (T, d) arrays, so it is for small inputs only. Returns
    (weight_grads, bias_grads, loss).
    """
    acts, emb = _forward_cached(net, x)
    t = np.asarray(t, dtype=np.int64).reshape(-1, 3)
    a_idx, p_idx, n_idx = t[:, 0], t[:, 1], t[:, 2]
    diff_ap = emb[a_idx] - emb[p_idx]
    diff_an = emb[a_idx] - emb[n_idx]
    d_ap = np.linalg.norm(diff_ap, axis=1)
    d_an = np.linalg.norm(diff_an, axis=1)
    pre = d_ap - d_an + alpha
    active = pre > 0.0
    loss = float(pre[active].sum())

    def unit_rows(diff, norms):
        safe = np.where(norms > 0.0, norms, 1.0)
        return np.where((norms > 0.0)[:, None], diff / safe[:, None], 0.0)

    u_ap = unit_rows(diff_ap[active], d_ap[active])
    u_an = unit_rows(diff_an[active], d_an[active])
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, a_idx[active], u_ap - u_an)
    np.add.at(d_emb, p_idx[active], -u_ap)
    np.add.at(d_emb, n_idx[active], u_an)
    if net.l2_normalize:
        out_norms = np.sqrt(np.einsum("ij,ij->i", acts[-1], acts[-1]))
        safe = np.where(out_norms > 0.0, out_norms, 1.0)
        proj = np.einsum("ij,ij->i", emb, d_emb)
        g = np.where((out_norms > 0.0)[:, None], (d_emb - emb * proj[:, None]) / safe[:, None], 0.0)
    else:
        g = d_emb
    weight_grads, bias_grads = [None] * net.n_layers, [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        weight_grads[l] = acts[l].T @ g
        bias_grads[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ net.weights[l].T) * (acts[l] > 0.0)
    return weight_grads, bias_grads, loss


def pair_backward(net, x, t, alpha):
    return backward(net, x, t, alpha, pairwise_euclidean(forward(net, x)))


def random_triplets(rng, b, count=20):
    t = rng.integers(0, b, size=(count, 3))
    keep = (t[:, 0] != t[:, 1]) & (t[:, 0] != t[:, 2]) & (t[:, 1] != t[:, 2])
    return t[keep]


class TestForward:
    def test_zero_weights_give_zero_embeddings(self):
        net = Embedder.init([4, 3, 2], seeded_rng(0))
        for w in net.weights:
            w[:] = 0.0
        out = forward(net, np.ones((5, 4)))
        assert np.all(out == 0.0)

    def test_identity_single_layer_passes_through(self):
        net = Embedder(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = seeded_rng(1).normal(size=(4, 3))
        assert np.array_equal(forward(net, x), x)

    def test_matches_straight_line_oracle(self):
        rng = seeded_rng(2)
        net = Embedder.init([6, 9, 4], rng)
        x = rng.normal(size=(7, 6))
        assert np.allclose(forward(net, x), forward_oracle(net, x), atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        net = Embedder.init([4, 2], seeded_rng(3))
        with pytest.raises(ValueError, match="does not match input dim"):
            forward(net, np.ones((2, 5)))

    def test_l2_normalize_gives_unit_rows(self):
        net = Embedder.init([4, 3], seeded_rng(4), l2_normalize=True)
        out = forward(net, seeded_rng(5).normal(size=(6, 4)))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    @pytest.mark.parametrize("l2, with_factor", [(False, False), (False, True), (True, False), (True, True)])
    def test_overflowing_net_raises_without_numpy_warnings(self, l2, with_factor):
        # the hidden layer overflows to inf, and the output to inf and NaN
        net = Embedder.init([4, 6, 8], seeded_rng(6), l2_normalize=l2)
        factor = distance_factor(net) if with_factor else None
        net.weights[0] *= 1e300
        x = 1e10 * seeded_rng(7).normal(size=(5, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite"):
                forward(net, x, factor)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    @pytest.mark.parametrize("with_factor", [False, True])
    def test_l2_rows_of_a_huge_or_tiny_net_are_the_unscaled_nets(self, scale, with_factor):
        # the output rows' square sums overflow (1e160) or underflow (1e-170),
        # yet the unit rows measure as the unscaled net's: up to the rounding
        # of two factors (the scaled net's W W^T is not factored) and of two
        # normalizations, a few units of 2**-53 on distances of at most 2
        net = Embedder.init([4, 6, 8], seeded_rng(6), l2_normalize=True)
        net.biases[-1][:] = seeded_rng(8).normal(size=8)
        x = seeded_rng(7).normal(size=(5, 4))

        def distances():
            return pairwise_euclidean(forward(net, x, distance_factor(net) if with_factor else None))

        want = distances()
        net.weights[-1] *= scale
        net.biases[-1] *= scale
        assert np.abs(distances() - want).max() <= 64 * U


class TestTripletLoss:
    def test_satisfied_margin_contributes_zero(self):
        emb = np.array([[0.0], [0.3], [0.9]])
        assert triplet_loss(emb, np.array([[0, 1, 2]]), 0.2) == 0.0

    def test_violated_margin_hand_arithmetic(self):
        emb = np.array([[0.0], [0.9], [0.3]])
        assert triplet_loss(emb, np.array([[0, 1, 2]]), 0.2) == pytest.approx(0.8, abs=1e-15)

    def test_loss_sums_over_triplets(self):
        emb = np.array([[0.0], [0.9], [0.3]])
        t = np.array([[0, 1, 2], [0, 2, 1]])  # terms 0.8 and 0
        assert triplet_loss(emb, t, 0.2) == pytest.approx(0.8, abs=1e-15)

    def test_zero_exactly_when_all_satisfied(self):
        rng = seeded_rng(6)
        emb = rng.normal(size=(8, 3))
        t = random_triplets(rng, 8)
        d = lambda i, j: np.linalg.norm(emb[i] - emb[j])
        alpha = 0.1
        satisfied = all(d(a, n) >= d(a, p) + alpha for a, p, n in t)
        assert (triplet_loss(emb, t, alpha) == 0.0) == satisfied

    def test_hinge_terms_vectorized(self):
        terms = hinge_terms(np.array([0.3, 0.9]), np.array([0.9, 0.3]), 0.2)
        assert terms.tolist() == [0.0, pytest.approx(0.8)]

    def test_chunked_distances_bit_identical_to_one_gather(self):
        # d = 1024 gives 128-row chunks; 1,000 triplets span eight of them
        rng = seeded_rng(7)
        emb = rng.normal(size=(30, 1024)) * rng.choice([1e-3, 1.0, 1e3], size=(30, 1))
        t = random_triplets(rng, 30, count=1200)
        assert t.shape[0] > 1000
        d_ap = np.linalg.norm(emb[t[:, 0]] - emb[t[:, 1]], axis=1)
        d_an = np.linalg.norm(emb[t[:, 0]] - emb[t[:, 2]], axis=1)
        for alpha in (0.0, 10.0, 1e4):
            assert triplet_loss(emb, t, alpha) == float(hinge_terms(d_ap, d_an, alpha).sum())

    def test_memory_does_not_scale_with_triplets_times_dim(self):
        # bas-bis at B = 40, d = 1024: one (T, d) gather of the 59,280
        # triplets' row differences would take 485 MB
        b = 40
        emb = seeded_rng(8).normal(size=(b, 1024))
        anchors = np.array(select_anchors_bas(b))
        tset = build_triplets(anchors, *select_images_bis(anchors, b))
        tracemalloc.start()
        try:
            loss = triplet_loss(emb, tset, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loss > 0.0
        assert peak < 16 * 2**20

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            triplet_loss(np.zeros((3, 2)), np.array([[0, 1, 2]]), -0.1)


@pytest.mark.parametrize("triplets", [
    [], np.empty((0, 3), dtype=np.int64),
    # bis over a batch of two: the one triple has p == n and is dropped
    build_triplets([0], [[1]], [[1]]),
], ids=["list", "array", "dropped"])
def test_loss_of_no_triplets_is_zero(triplets):
    assert triplet_loss(np.arange(6.0).reshape(3, 2), triplets, 0.2) == 0.0


class TestBackward:
    def test_l2_net_whose_square_norms_overflow_raises(self):
        # the rows' squared norms [h, 1] F F^T [h, 1]^T overflow with the
        # hidden activations h: zero inverse norms would silently zero those
        # rows' gradients
        net = Embedder.init([4, 6, 8], seeded_rng(6), l2_normalize=True)
        net.weights[0] *= 1e160
        x = seeded_rng(7).normal(size=(5, 4))
        factor = distance_factor(net)
        dist = pairwise_euclidean(forward(net, x, factor))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                backward(net, x, np.array([[0, 1, 2], [1, 3, 4], [2, 0, 4]]), 0.2, dist, factor)

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_l2_gradients_do_not_depend_on_the_output_scale(self, scale):
        # unit rows are the same at any scale of the output layer, so the
        # loss and the hidden layers' gradients are the unscaled net's, and
        # the output layer's 1 / scale times its: F F^T overflows (1e160),
        # is subnormal (1e-160) or underflows to zero (1e-170)
        rng = seeded_rng(16)
        net = Embedder.init([8, 6, 20], rng, l2_normalize=True)
        net.biases[-1] += rng.normal(size=20)
        x = rng.normal(size=(12, 8))
        t = random_triplets(rng, 12, count=30)

        def loss_and_gradients():
            factor = distance_factor(net)
            return backward(net, x, t, 0.5, pairwise_euclidean(forward(net, x, factor)), factor)

        want_loss, want = loss_and_gradients()
        assert want_loss > 0.0
        net.weights[-1] *= scale
        net.biases[-1] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grads = loss_and_gradients()
        assert loss == pytest.approx(want_loss, rel=1e-13)
        grads[-2:] = (g * scale for g in grads[-2:])
        for g, w in zip(grads, want, strict=True):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()

    def test_all_trivial_triplets_give_zero_gradient(self):
        net = Embedder(weights=[np.eye(1)], biases=[np.zeros(1)])
        x = np.array([[0.0], [0.1], [5.0]])
        loss, grads = pair_backward(net, x, np.array([[0, 1, 2]]), 0.2)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_single_active_triplet_identity_net_closed_form(self):
        # identity 2x2 net, rows (0,0), (1,0), (0,2): d(a,p)=1, d(a,n)=2
        # active with alpha=1.5; unit vectors give dE rows, and dW = X^T dE
        net = Embedder(weights=[np.eye(2)], biases=[np.zeros(2)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        loss, (d_w, d_b) = pair_backward(net, x, np.array([[0, 1, 2]]), 1.5)
        assert loss == pytest.approx(0.5, abs=1e-15)
        expected_dw = np.array([[1.0, 0.0], [0.0, -2.0]])
        assert np.allclose(d_w, expected_dw, atol=1e-14)
        assert np.allclose(d_b, [0.0, 0.0], atol=1e-14)

    def test_matches_finite_differences(self):
        rng = seeded_rng(8)
        net = Embedder.init([8, 16, 8], rng)
        x = rng.normal(size=(12, 8))
        t = random_triplets(rng, 12)
        report = finite_difference_check(net, x, t, 0.3, step=1e-5)
        assert report.n_checked > 0
        assert report.max_rel_error < 1e-4

    def test_matches_finite_differences_with_l2_normalization(self):
        rng = seeded_rng(9)
        net = Embedder.init([8, 16, 8], rng, l2_normalize=True)
        x = rng.normal(size=(12, 8))
        t = random_triplets(rng, 12)
        report = finite_difference_check(net, x, t, 0.3, step=1e-5)
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("dims", [[8, 6, 20], [8, 10, 6, 16], [8, 12, 5]])
    def test_matches_finite_differences_with_l2_normalization_and_biases(self, dims):
        # the bordered factor (hidden 6 < 20, and 6 < 16 behind two hidden
        # layers) and [W; b^T] itself (hidden 12 >= 5), every bias nonzero
        rng = seeded_rng(14)
        net = Embedder.init(dims, rng, l2_normalize=True)
        for b in net.biases:
            b += rng.normal(size=b.shape)
        h = dims[-2]
        assert distance_factor(net).shape == (h + 1, h + 1 if h < dims[-1] else dims[-1])
        x = rng.normal(size=(12, 8))
        report = finite_difference_check(net, x, random_triplets(rng, 12, count=30), 0.3, step=1e-5)
        assert report.n_checked > 0
        assert report.max_rel_error < 1e-4

    def test_l2_backward_never_embeds_at_the_output_width(self, monkeypatch):
        rng = seeded_rng(15)
        net = Embedder.init([8, 6, 20], rng, l2_normalize=True)
        net.biases[-1] += rng.normal(size=20)
        x = rng.normal(size=(12, 8))
        t = random_triplets(rng, 12, count=30)
        want_loss, want = pair_backward(net, x, t, 0.3)
        assert want_loss > 0.0

        def refuse(*args):
            raise AssertionError("backward embedded at the output width")

        monkeypatch.setattr(embedder_mod, "_forward_cached", refuse)
        factor = distance_factor(net)
        got_loss, got = backward(net, x, t, 0.3, pairwise_euclidean(forward(net, x, factor)), factor)
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-9, atol=1e-12)

    def test_gradient_descent_step_decreases_active_loss(self):
        rng = seeded_rng(10)
        net = Embedder.init([4, 6, 3], rng)
        x = rng.normal(size=(5, 4))
        t = np.array([[0, 1, 2]])
        before, grads = pair_backward(net, x, t, 1.0)
        assert before > 0.0
        for p, g in zip(parameters(net), grads):
            p -= 1e-3 * g
        after = triplet_loss(forward(net, x), t, 1.0)
        assert after < before


def assert_matches_oracle(net, x, t, alpha):
    loss, grads = pair_backward(net, x, t, alpha)
    ref_w, ref_b, ref_loss = backward_oracle(net, x, t, alpha)
    ref = [g for pair in zip(ref_w, ref_b) for g in pair]
    scale = max(float(np.abs(g).max()) for g in ref)
    for got, want in zip(grads, ref):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(scale, 1e-300)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    assert loss == pytest.approx(triplet_loss(forward(net, x), t, alpha), rel=1e-12, abs=0.0)
    return loss, grads


class TestPairMatrixBackward:
    @pytest.mark.parametrize("l2", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_triplet_oracle(self, l2, seed):
        rng = seeded_rng(100 + seed)
        net = Embedder.init([8, 16, 6], rng, l2_normalize=l2)
        x = rng.normal(size=(14, 8))
        t = random_triplets(rng, 14, count=60)
        loss, _ = assert_matches_oracle(net, x, t, 0.5)
        assert loss > 0.0

    @pytest.mark.parametrize("l2", [False, True])
    def test_duplicated_triplets_count_each_time(self, l2):
        rng = seeded_rng(110)
        net = Embedder.init([5, 7, 4], rng, l2_normalize=l2)
        x = rng.normal(size=(9, 5))
        base = random_triplets(rng, 9, count=12)
        t = np.concatenate([base, base[:4], base[:1]])
        assert_matches_oracle(net, x, t, 1.0)

    def test_coincident_rows_give_zero_direction(self):
        # rows 0 and 1 are identical inputs, so D(0, 1) = 0 in embedding space
        rng = seeded_rng(111)
        net = Embedder.init([4, 6, 3], rng)
        x = rng.normal(size=(6, 4))
        x[1] = x[0]
        t = np.array([[0, 1, 2], [0, 3, 1], [2, 0, 1], [1, 0, 4], [3, 4, 5]])
        assert pairwise_euclidean(forward(net, x))[0, 1] == 0.0
        _, grads = assert_matches_oracle(net, x, t, 0.7)
        assert all(np.isfinite(g).all() for g in grads)

    def test_hinge_exactly_zero_is_inactive(self):
        # d(a,p) = d(a,n) = 1 with alpha = 0: pre-hinge value is exactly 0
        net = Embedder(weights=[np.eye(2)], biases=[np.zeros(2)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        loss, grads = assert_matches_oracle(net, x, np.array([[0, 1, 2]]), 0.0)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("bad", [[[0, 1, 5]], [[0, -1, 2]], [[-5, 1, 2]]])
    def test_out_of_range_indices_rejected(self, bad):
        net = Embedder.init([3, 2], seeded_rng(112))
        x = seeded_rng(113).normal(size=(5, 3))
        with pytest.raises(ValueError, match="triplet indices"):
            pair_backward(net, x, np.array(bad), 0.2)

    def test_distance_matrix_shape_checked(self):
        net = Embedder.init([3, 2], seeded_rng(114))
        x = seeded_rng(115).normal(size=(5, 3))
        with pytest.raises(ValueError, match="distance matrix"):
            backward(net, x, np.array([[0, 1, 2]]), 0.2, np.zeros((4, 4)))

    def test_exhaustive_batch_memory_does_not_scale_with_triplets_times_dim(self):
        # bas-bis at B=40, d=256: T = 40 * 39 * 38 = 59,280 triplets; a single
        # (T, d) float64 array would take 121 MB
        b, d = 40, 256
        rng = seeded_rng(116)
        net = Embedder.init([8, d], rng)
        x = rng.normal(size=(b, 8))
        anchors = np.array(select_anchors_bas(b))
        tset = build_triplets(anchors, *select_images_bis(anchors, b))
        assert len(tset) == b * (b - 1) * (b - 2)
        dist = pairwise_euclidean(forward(net, x))
        tracemalloc.start()
        try:
            backward(net, x, tset, 0.2, dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def sparse_triplets(b, anchors, per_anchor, rng):
    """Triplets over a few anchors whose positives and negatives are distinct rows."""
    others = rng.permutation(np.setdiff1d(np.arange(b), anchors))
    t = []
    for k, a in enumerate(anchors):
        pos = others[4 * k * per_anchor:][:per_anchor]
        neg = others[4 * k * per_anchor + per_anchor:][:per_anchor]
        t.extend((a, p, n) for p in pos for n in neg)
    return np.array(t, dtype=np.int64)


def embedded_by_backward(monkeypatch, net, x, t, alpha):
    """The feature matrices ``backward`` passes through the hidden layers
    (``_hidden_cached``, which ``_forward_cached`` calls too)."""
    dist = pairwise_euclidean(forward(net, x))
    seen = []
    real = embedder_mod._hidden_cached

    def spy(net, features):
        seen.append(features)
        return real(net, features)

    with monkeypatch.context() as patch:
        patch.setattr(embedder_mod, "_hidden_cached", spy)
        backward(net, x, t, alpha, dist)
    return seen


class TestTouchedRowBackward:
    # an alpha this large keeps every triplet active, so the touched rows are
    # exactly the rows the triplets name
    ALPHA = 100.0

    @pytest.mark.parametrize("l2", [False, True])
    def test_most_rows_untouched_matches_oracle(self, l2, monkeypatch):
        rng = seeded_rng(120)
        net = Embedder.init([8, 16, 6], rng, l2_normalize=l2)
        x = rng.normal(size=(40, 8))
        t = sparse_triplets(40, [3, 17, 29], 2, rng)
        assert t.shape == (12, 3) and np.unique(t).size == 15
        assert_matches_oracle(net, x, t, self.ALPHA)
        seen = embedded_by_backward(monkeypatch, net, x, t, self.ALPHA)
        assert len(seen) == 1 and np.array_equal(seen[0], x[np.unique(t)])

    @pytest.mark.parametrize("l2", [False, True])
    def test_duplicated_sparse_triplets(self, l2):
        rng = seeded_rng(121)
        net = Embedder.init([5, 7, 4], rng, l2_normalize=l2)
        x = rng.normal(size=(40, 5))
        base = sparse_triplets(40, [0, 21, 39], 2, rng)
        assert_matches_oracle(net, x, np.concatenate([base, base[:5], base[:1]]), self.ALPHA)

    @pytest.mark.parametrize("l2", [False, True])
    def test_coincident_rows_in_sparse_batch(self, l2):
        rng = seeded_rng(122)
        net = Embedder.init([4, 6, 3], rng, l2_normalize=l2)
        x = rng.normal(size=(40, 4))
        t = sparse_triplets(40, [5, 25], 2, rng)
        x[t[0, 1]] = x[t[0, 0]]
        assert pairwise_euclidean(forward(net, x))[t[0, 0], t[0, 1]] == 0.0
        _, grads = assert_matches_oracle(net, x, t, self.ALPHA)
        assert all(np.isfinite(g).all() for g in grads)

    @pytest.mark.parametrize("l2", [False, True])
    def test_single_active_triplet(self, l2, monkeypatch):
        rng = seeded_rng(123)
        net = Embedder.init([6, 9, 5], rng, l2_normalize=l2)
        x = rng.normal(size=(40, 6))
        t = np.array([[31, 4, 17]])
        loss, _ = assert_matches_oracle(net, x, t, self.ALPHA)
        assert loss > 0.0
        seen = embedded_by_backward(monkeypatch, net, x, t, self.ALPHA)
        assert len(seen) == 1 and np.array_equal(seen[0], x[[4, 17, 31]])

    @pytest.mark.parametrize("l2", [False, True])
    def test_every_row_touched_embeds_the_batch_without_a_gather(self, l2, monkeypatch):
        rng = seeded_rng(124)
        net = Embedder.init([6, 9, 5], rng, l2_normalize=l2)
        x = rng.normal(size=(40, 6))
        rows = np.arange(40)
        t = np.stack([rows, (rows + 1) % 40, (rows + 3) % 40], axis=1)
        assert_matches_oracle(net, x, t, self.ALPHA)
        seen = embedded_by_backward(monkeypatch, net, x, t, self.ALPHA)
        assert len(seen) == 1 and seen[0] is x

    def test_cancelling_triplet_touches_no_row(self, monkeypatch):
        # positive == negative: active (loss alpha) but the two pulls cancel
        rng = seeded_rng(125)
        net = Embedder.init([4, 5, 3], rng)
        x = rng.normal(size=(10, 4))
        t = np.array([[2, 7, 7]])
        loss, grads = assert_matches_oracle(net, x, t, 0.5)
        assert loss == 0.5
        assert all(np.all(g == 0.0) for g in grads)
        seen = embedded_by_backward(monkeypatch, net, x, t, 0.5)
        assert len(seen) == 1 and seen[0].shape == (0, 4)

    @pytest.mark.parametrize("triplets", [np.empty((0, 3), dtype=np.int64), np.array([[0, 1, 2]])])
    def test_feature_width_checked_before_early_returns(self, triplets):
        # all-zero distances with alpha 0: no triplet is active
        net = Embedder.init([3, 2], seeded_rng(126))
        with pytest.raises(ValueError, match="does not match input dim"):
            backward(net, np.ones((5, 4)), triplets, 0.0, np.zeros((5, 5)))

    def test_empty_batch_without_triplets_gives_zero_gradients(self):
        net = Embedder.init([3, 4, 2], seeded_rng(128))
        loss, grads = backward(net, np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), 0.2, np.empty((0, 0)))
        assert loss == 0.0
        assert [g.shape for g in grads] == [p.shape for p in parameters(net)]
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("l2", [False, True])
    def test_output_bias_gradient(self, l2):
        rng = seeded_rng(127)
        net = Embedder.init([8, 16, 6], rng, l2_normalize=l2)
        x = rng.normal(size=(14, 8))
        loss, grads = pair_backward(net, x, random_triplets(rng, 14, count=60), 0.5)
        assert loss > 0.0
        assert np.all(grads[-1] == 0.0) != l2


def flat_list_coefficients(x, t, alpha, dist):
    """The flat (T, 3) list's loss and, over the rows its active triplets
    touch, their features and the symmetric pair coefficients ``S``
    (``None`` for both when no triplet is active): per-triplet gathers, an
    index check and two integer bincounts, as ``backward`` was before the
    block form."""
    size = x.shape[0]
    t = np.asarray(t, dtype=np.int64)
    if t.size == 0:
        t = np.empty((0, 3), dtype=np.int64)
    if t.shape[0] and (t.min() < 0 or t.max() >= size):
        raise ValueError(f"triplet indices must lie in [0, {size})")
    if t.shape[0] == 0:
        return 0.0, None, None
    a_idx, p_idx, n_idx = t[:, 0], t[:, 1], t[:, 2]
    pre = dist[a_idx, p_idx] - dist[a_idx, n_idx] + alpha
    active = pre > 0.0
    loss = float(pre[active].sum())
    if not active.any():
        return loss, None, None
    rows = a_idx[active] * size
    coef = (np.bincount(rows + p_idx[active], minlength=size * size)
            - np.bincount(rows + n_idx[active], minlength=size * size)).reshape(size, size)
    m = np.divide(coef, dist, out=np.zeros((size, size)), where=dist > 0.0)
    s = m + m.T
    touched = np.flatnonzero(s.any(axis=1))
    return loss, x[touched], s[np.ix_(touched, touched)]


def flat_list_backward(net, x, t, alpha, dist):
    """``backward`` as it was before the block form and the hidden-width
    layers, kept as the reference: the flat list's coefficients, then the
    embedding gradient ``Lap(S) e`` carried back through every layer from
    the d-wide embedding, each product taken from ``padded_matmul`` as in
    ``backward``."""
    loss, x, s = flat_list_coefficients(x, t, alpha, dist)
    if s is None:
        return loss, [np.zeros_like(p) for p in parameters(net)]
    acts, emb = _forward_cached(net, x)
    d_emb = s.sum(axis=1)[:, None] * emb - padded_matmul(s, emb)
    if net.l2_normalize:
        out_norms = np.sqrt(np.einsum("ij,ij->i", acts[-1], acts[-1]))
        safe = np.where(out_norms > 0.0, out_norms, 1.0)
        proj = np.einsum("ij,ij->i", emb, d_emb)
        g = np.where((out_norms > 0.0)[:, None], (d_emb - emb * proj[:, None]) / safe[:, None], 0.0)
    else:
        g = d_emb
    grads = [None] * (2 * net.n_layers)
    for l in range(net.n_layers - 1, -1, -1):
        grads[2 * l:2 * l + 2] = padded_matmul(acts[l].T, g), g.sum(axis=0)
        if l > 0:
            g = padded_matmul(g, net.weights[l].T) * (acts[l] > 0.0)
    return loss, grads


def hidden_width_term_bounds(net, x, s):
    """Per gradient entry, in ``parameters`` order, a bound on the terms
    behind it in both ``flat_list_backward`` and the hidden-width
    ``backward``, to be scaled by the rounding of the products and the factor.

    Without ``l2_normalize``: the sum of absolute terms, the products taken
    with ``|S|``, the activations and weights absolutely, and the hidden
    metric ``F F^T`` (or ``W W^T``) bounded by ``|W_i| |W_j|``.

    With it, each touched row's embedding gradient ``(M e)_i`` is bounded
    as a whole. Let ``sigma_i = sum_a |[h, 1]_ia| |A_a|`` over the rows of
    ``A = [W; b^T]`` and ``rho_i = sigma_i / |e_i| >= 1``, the cancellation
    in ``e_i``. Both paths' dot products of embedding rows, the computed
    ``e_i`` and the factor rows, are within the rounding times
    ``sigma_i sigma_j`` of the exact ones; the unit rows' dot products and
    the norms ``1 / |e_i|`` then move by that times ``rho_i rho_j``,
    ``rho_i^2`` and ``rho_j^2``, so the row moves by at most
    ``q_i = sum_j |Lap(S)|_ij (rho_i + rho_j)^2 / |e_i|`` times it, with
    ``|Lap(S)| = diag(|S| 1) + |S|``. The output weights get ``|h|^T q``,
    the bias ``sum q``, and the last hidden activations ``q_i |W_a|``. A
    zero embedding row has zero rows on both paths and adds nothing."""
    acts = embedder_mod._hidden_cached(net, x)
    w, b = net.weights[-1], net.biases[-1]
    lap = np.diag(np.abs(s).sum(axis=1)) + np.abs(s)
    norms = np.linalg.norm(w, axis=1)
    terms = [None] * (2 * net.n_layers)
    if net.l2_normalize:
        a = np.vstack([w, b])
        h_one = np.hstack([acts[-1], np.ones((len(x), 1))])
        e_norms = np.linalg.norm(h_one @ a, axis=1)
        inv = np.divide(1.0, e_norms, out=np.zeros_like(e_norms), where=e_norms > 0.0)
        rho = (np.abs(h_one) @ np.linalg.norm(a, axis=1)) * inv
        q = inv * (lap * (rho[:, None] + rho[None]) ** 2).sum(axis=1)
        terms[-2:] = np.repeat((np.abs(acts[-1]).T @ q)[:, None], w.shape[1], axis=1), np.full(w.shape[1], q.sum())
        g = np.outer(q, norms)
    else:
        lap_h = lap @ np.abs(acts[-1])
        lap_e = lap @ (np.abs(acts[-1]) @ np.abs(w) + np.abs(b))
        terms[-2:] = np.abs(acts[-1]).T @ lap_e, lap_e.sum(axis=0)
        g = lap_h @ np.outer(norms, norms) + lap_e @ np.abs(w).T
    for l in range(net.n_layers - 2, -1, -1):
        g = g * (acts[l + 1] > 0.0)
        terms[2 * l:2 * l + 2] = np.abs(acts[l]).T @ g, g.sum(axis=0)
        g = g @ np.abs(net.weights[l]).T
    return terms


def assert_bit_identical(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1], want[1], strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def assert_matches_flat_list(net, x, t, alpha, dist, got):
    """``got``, ``backward``'s ``(loss, grads)``, is ``flat_list_backward``'s:
    bit for bit with no active triplet; else the same loss, without l2
    normalization an exactly-zero output bias gradient, and every entry within the rounding
    of its terms (``hidden_width_term_bounds``), of which the factor adds
    ``(d + h + 2) u`` and each product its length times u."""
    want = flat_list_backward(net, x, t, alpha, dist)
    _, x_touched, s = flat_list_coefficients(x, t, alpha, dist)
    if s is None:
        assert_bit_identical(got, want)
        return
    assert got[0] == want[0]
    if not net.l2_normalize:
        assert np.all(got[1][-1] == 0.0)
    tol = 8 * (len(s) + sum(net.layer_dims)) * U
    terms = hidden_width_term_bounds(net, x_touched, s)
    for g, w, m in zip(got[1], want[1], terms, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.all(np.abs(g - w) <= tol * m)


def integer_net(rng, l2):
    """Two layers of small integer weights: integer-grid inputs stay on an
    integer grid, so distances tie and duplicate rows coincide. The hidden
    width is 4 >= d = 3 (distances on the output weights) or 3 < d = 5
    (on the Cholesky factor when W W^T is positive definite)."""
    dims = (2, 4, 3) if rng.random() < 0.5 else (2, 3, 5)
    weights = [rng.integers(-2, 3, size=shape).astype(np.float64) for shape in zip(dims[:-1], dims[1:])]
    return Embedder(weights=weights, biases=[np.zeros(n) for n in dims[1:]], l2_normalize=l2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(itertools.product(ANCHOR_STRATEGIES, IMAGE_STRATEGIES))),
       st.booleans(), st.sampled_from([0.0, 0.2, 1.0]))
def test_block_backward_bit_identical_to_flat_list(seed, pair, l2, alpha):
    # the block and its flat list give the same bits; against the d-wide
    # reference, the same loss and rounding-level gradients
    # (assert_matches_flat_list)
    anchor_strategy, image_strategy = pair
    rng = seeded_rng(seed)
    b = int(rng.integers(3, 25))
    c_pos = int(rng.integers(1, b - 1))
    c_neg = int(rng.integers(1, b - c_pos))
    cfg = SamplerConfig(
        anchor_strategy=anchor_strategy, image_strategy=image_strategy,
        anchor_fraction=float(rng.uniform(0.01, 1.0)), positives_per_anchor=c_pos, negatives_per_anchor=c_neg,
    )
    net = integer_net(rng, l2)
    mine_rng = seeded_rng(seed + 1)
    for _ in range(3):
        x = rng.integers(0, 3, size=(b, 2)).astype(np.float64)
        labels = (rng.random((b, 2)) < 0.5).astype(np.uint8)
        labels[labels.sum(axis=1) == 0, 0] = 1
        batch = BatchView.from_embeddings(np.arange(b), forward(net, x), labels)
        tsets = [mine_batch(batch, cfg, mine_rng)]
        if image_strategy == "bis":
            # a block whose every triple is cleared, which backward must handle too
            a, p = tsets[0].anchors[0], tsets[0].positives[0, 0]
            tsets.append(build_triplets([a], [[p]], [[p]]))
            assert len(tsets[1]) == 0
        for tset in tsets:
            got = backward(net, x, tset, alpha, batch.dist_raw)
            assert_bit_identical(backward(net, x, tset.triplets, alpha, batch.dist_raw), got)
            assert_matches_flat_list(net, x, tset.triplets, alpha, batch.dist_raw, got)


class TestBlockBackward:
    @pytest.mark.parametrize("l2", [False, True])
    def test_raw_list_with_repeats_and_p_equal_n(self, l2):
        rng = seeded_rng(130)
        net = Embedder.init([5, 7, 4], rng, l2_normalize=l2)
        x = rng.normal(size=(12, 5))
        x[4] = x[9]
        # unfiltered draws: repeated triplets, a == p, a == n and p == n all occur
        t = rng.integers(0, 12, size=(80, 3))
        t = np.concatenate([t, t[:10], [[3, 5, 5], [5, 5, 5], [4, 9, 9], [4, 9, 1]]])
        dist = pairwise_euclidean(forward(net, x))
        for alpha in (0.0, 0.5, 3.0):
            assert_matches_flat_list(net, x, t, alpha, dist, backward(net, x, t, alpha, dist))

    def test_bad_list_shape_rejected(self):
        net = Embedder.init([3, 2], seeded_rng(132))
        x = np.ones((4, 3))
        with pytest.raises(ValueError, match="triplets must be a"):
            backward(net, x, np.array([[0, 1]]), 0.2, np.zeros((4, 4)))

    def test_paper_default_bas_bis_batch_peaks_below_20_bytes_per_triplet(self):
        # mine plus backward at batch 100, embedding 1024: 970,200 triplets
        b = 100
        rng = seeded_rng(133)
        net = Embedder.init([16, 64, 1024], rng)
        x = rng.normal(size=(b, 16))
        labels = (rng.random((b, 8)) < 0.3).astype(np.uint8)
        labels[:, 0] = 1
        batch = BatchView.from_embeddings(np.arange(b), forward(net, x), labels)
        cfg = SamplerConfig(anchor_strategy="bas", image_strategy="bis")
        tracemalloc.start()
        try:
            tset = mine_batch(batch, cfg, seeded_rng(134))
            loss, _ = backward(net, x, tset, 0.2, batch.dist_raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tset) == b * (b - 1) * (b - 2)
        assert loss > 0.0
        assert peak / len(tset) < 20.0


# prints, per net, a digest of the batch distances training measures, then
# per case the rows backward embedded and a digest of the gradients; the
# nets cover the Cholesky factor at hidden widths 64 and 96, the output
# weights themselves as the factor at hidden 100 and 128 (over the widest
# factored width) and 128 >= d = 100, embedding sizes 500, 1024 and 1030
# (padded products), and l2 normalization with a nonzero output bias: the
# bordered factor at hidden 64 (d = 1024 and 500) and 96, and [W; b^T]
# itself at hidden 100. The last
# case is a 400-row batch whose backward sums over 390 touched rows: an
# inner dimension past 384, which OpenBLAS splits differently at 1 and 2
# threads unless it is padded
_THREAD_SCRIPT = """
import hashlib
import numpy as np
import tripmine.embedder as E
from tripmine.similarity import pairwise_euclidean
real = E._hidden_cached
rows = []
E._hidden_cached = lambda net, x: (rows.append(len(x)), real(net, x))[1]
digest = lambda arrays: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

def cases(net, x, counts):
    factor = E.distance_factor(net)
    dist = pairwise_euclidean(E.forward(net, x, factor))
    print(*net.layer_dims[1:], factor.shape[1], digest([dist]))
    for k in counts:
        r = rng.permutation(len(x))[:k]
        # one anchor pulls r[1] and pushes the rest; r[0] as its own negative adds nothing
        t = np.array([(r[0], r[1], r[j]) for j in range(2, k)] or [(r[0], r[1], r[0])])
        del rows[:]
        grads = E.backward(net, x, t, 1e3, dist, factor)[1]
        print(rows[-1], digest(grads))

nets = [(128, h, d, False) for h in (64, 96, 128) for d in (500, 1024, 1030)]
nets += [(128, 128, 100, False), (128, 64, 1024, True), (128, 100, 1024, False), (128, 64, 500, True)]
nets += [(128, 96, 1024, True), (128, 100, 1024, True)]
for seed, (f, h, d, l2) in enumerate(nets):
    rng = np.random.default_rng(7 + seed)
    net = E.Embedder.init([f, h, d], rng, l2_normalize=l2)
    if l2:
        net.biases[-1] += 0.1 * rng.normal(size=d)
    cases(net, rng.normal(size=(100, f)), (2, 3, 7, 29, 70, 99, 100))
rng = np.random.default_rng(3)
net = E.Embedder.init([128, 64, 1024], rng)
cases(net, rng.normal(size=(400, 128)), (390,))
"""


def test_gradients_bit_identical_across_blas_thread_counts(stdout_at_blas_threads):
    one = stdout_at_blas_threads(_THREAD_SCRIPT, 1)
    per_net = 4 + 2 * 7
    nets = [one[i:i + per_net] for i in range(0, len(one) - 6, per_net)]
    assert [n[:3] for n in nets] == (
        [[str(h), str(d), str(h if h <= 96 else d)] for h in (64, 96, 128) for d in (500, 1024, 1030)]
        + [["128", "100", "100"], ["64", "1024", "65"], ["100", "1024", "1024"], ["64", "500", "65"],
           ["96", "1024", "97"], ["100", "1024", "1024"]])
    assert all([int(c) for c in n[4::2]] == [2, 3, 7, 29, 70, 99, 100] for n in nets)
    assert one[-6:-3] == ["64", "1024", "64"] and one[-2] == "390"
    assert stdout_at_blas_threads(_THREAD_SCRIPT, 2) == one


@st.composite
def hidden_width_nets(draw):
    """A net with one or two hidden layers and input rows for it. The output
    weights are Glorot draws, some rows zeroed or duplicated (rank-deficient
    W W^T), or rows rescaled over six orders of magnitude (ill-conditioned);
    the hidden width ranges past the widest factored width."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = draw(st.one_of(st.integers(1, 12), st.integers(90, 130)))
    d = draw(st.one_of(st.integers(1, 16), st.integers(h + 1, h + 40)))
    dims = [5, *draw(st.sampled_from([[], [7]])), h, d]
    net = Embedder.init(dims, rng)
    net.biases[-1] = draw(st.sampled_from([0.0, 1.0, 1e3])) * rng.normal(size=d)
    w = net.weights[-1] * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    kind = draw(st.sampled_from(["glorot", "zero rows", "duplicate rows", "rescaled rows"]))
    if kind == "zero rows":
        w[rng.random(h) < 0.5] = 0.0
        w[0] = 0.0
    elif kind == "duplicate rows" and h > 1:
        w[rng.integers(1, h, size=max(1, h // 3))] = w[0]
    elif kind == "rescaled rows":
        w *= 10.0 ** rng.uniform(-6, 0, size=(h, 1))
    net.weights[-1] = w
    x = rng.normal(size=(draw(st.integers(2, 20)), 5))
    x[rng.random(len(x)) < 0.2] = x[0]
    return net, x, kind


def assert_factor_distances_within_bound(net, x, d_f, width, factored):
    """``d_f``, the distances of ``net``'s rows of the factor's ``width``,
    against those of the forward's d-wide embedding. With E = L L^T - W W^T,
    |E_ab| <= (d + h + 2) u |W_a| |W_b| (0 unless ``factored``), so the
    squared distances of a pair d = h_i - h_j differ by at most
    A = (d + h + 2) u sigma^2 with sigma = sum_a |d_a| |W_a|, and the
    distances by at most A / max(t_F + t, sqrt(A)). Each side also carries
    its products' rounding (at most (h + 1) u rho per row pair,
    rho = sum_a (|h_ia| + |h_ja|) |W_a| + 2 |b|) and pairwise_euclidean's
    relative error; every term is doubled."""
    w = net.weights[-1]
    h, d = w.shape
    d_e = pairwise_euclidean(forward(net, x))
    hid = embedder_mod._hidden_cached(net, x)[-1]
    w_norms = np.linalg.norm(w, axis=1)
    sigma = np.abs(hid[:, None] - hid[None]) @ w_norms
    row_sums = np.abs(hid) @ w_norms
    rho = row_sums[:, None] + row_sums[None] + 2.0 * np.linalg.norm(net.biases[-1])
    noise = ((2 * h + 3) * U * rho + (2.0**-41 + (width + 4) * U) * d_f
             + (2.0**-41 + (d + 4) * U) * d_e)
    a = ((d + h + 2) * U if factored else 0.0) * sigma**2
    lower = np.maximum(d_f + d_e - 2.0 * noise, np.sqrt(a))
    gap = np.divide(a, lower, out=np.zeros_like(a), where=lower > 0.0)
    assert np.all(np.abs(d_f - d_e) <= 2.0 * (noise + gap))


def assert_l2_distances_within_bound(net, x, d_f, width):
    """``d_f``, the distances of ``net``'s unit rows of [h, 1] F, F of
    ``width`` columns, against those of the forward's d-wide normalized
    embedding. With A = [W; b^T], sigma_i = sum_a |[h, 1]_ia| |A_a| and
    rho_i = sigma_i / |e_i|: F F^T is within (d + h + 3) u |A_a| |A_b| of
    A A^T, and each side's rows within (h + 1) u sigma_i of exact, so the
    rows' dot products are within eta sigma_i sigma_j, eta = (d + 3 h + 5) u.
    The unit rows' dot products, their squared distance halved, then move
    by eta (rho_i + rho_j)^2, and the distances by at most
    a / max(t_F + t, sqrt(a)) for a = 2 eta (rho_i + rho_j)^2. Each side
    also carries its normalization's rounding (a few (k + 4) u, k its
    width) and pairwise_euclidean's relative error; every term is doubled."""
    w, b = net.weights[-1], net.biases[-1]
    h, d = w.shape
    d_e = pairwise_euclidean(forward(net, x))
    hid = embedder_mod._hidden_cached(net, x)[-1]
    sigma = np.abs(hid) @ np.linalg.norm(w, axis=1) + np.linalg.norm(b)
    e_norms = np.linalg.norm(hid @ w + b, axis=1)
    # a zero embedding row has no direction: its pairs are not compared
    rho = np.divide(sigma, e_norms, out=np.full_like(e_norms, np.inf), where=e_norms > 0.0)
    eta = (d + 3 * h + 5) * U
    a = 2.0 * eta * (rho[:, None] + rho[None]) ** 2
    pairs = np.isfinite(a)
    a[~pairs] = 0.0
    noise = (4 * (width + d + 8) * U + (2.0**-41 + (width + 4) * U) * d_f + (2.0**-41 + (d + 4) * U) * d_e)
    lower = np.maximum(d_f + d_e - 2.0 * noise, np.sqrt(a))
    gap = np.divide(a, lower, out=np.zeros_like(a), where=lower > 0.0)
    assert np.all(np.abs(d_f - d_e)[pairs] <= 2.0 * (noise + gap)[pairs])


class TestDistanceFactor:
    @settings(max_examples=200, deadline=None)
    @given(hidden_width_nets())
    def test_factor_distances_within_bound_of_embedding_distances(self, case):
        # rows h F of the last hidden activations h
        net, x, kind = case
        w = net.weights[-1]
        h, d = w.shape
        factor = distance_factor(net)
        if kind == "glorot" and h < d and h <= embedder_mod._CHOLESKY_MAX:
            assert factor.shape == (h, h) and np.array_equal(factor, np.tril(factor))
        if h >= d or h > embedder_mod._CHOLESKY_MAX or kind == "zero rows":
            assert factor is w
        d_f = pairwise_euclidean(forward(net, x, factor))
        assert_factor_distances_within_bound(net, x, d_f, factor.shape[1], factor is not w)

    @settings(max_examples=200, deadline=None)
    @given(hidden_width_nets())
    def test_l2_rows_within_bound_of_normalized_embedding_distances(self, case):
        net, x, kind = case
        net.l2_normalize = True
        w, b = net.weights[-1], net.biases[-1]
        h, d = w.shape
        factor = distance_factor(net)
        if kind == "glorot" and h < d and h <= embedder_mod._CHOLESKY_MAX:
            assert factor.shape == (h + 1, h + 1) and np.array_equal(factor, np.tril(factor))
        if h >= d or h > embedder_mod._CHOLESKY_MAX or kind == "zero rows":
            assert np.array_equal(factor, np.vstack([w, b]))
        assert_l2_distances_within_bound(net, x, pairwise_euclidean(forward(net, x, factor)), factor.shape[1])

    @pytest.mark.parametrize("exp", [-531, 498])
    @pytest.mark.parametrize("l2", [False, True])
    @pytest.mark.parametrize("h, d", [(6, 8), (64, 1024)])
    def test_factor_distances_within_bound_at_tiny_and_huge_output_scales(self, exp, l2, h, d):
        # the output layer times 2**-531 (about 1e-160), where W W^T is
        # subnormal, or 2**498 (about 1e150): the scaled net's distances are
        # 2**exp times the unscaled net's (1 with l2), which the bound holds
        rng = seeded_rng(144)
        net = Embedder.init([5, h, d], rng, l2_normalize=l2)
        net.biases[-1] = rng.normal(size=d)
        x = rng.normal(size=(20, 5))
        scaled = Embedder([*net.weights[:-1], np.ldexp(net.weights[-1], exp)],
                          [*net.biases[:-1], np.ldexp(net.biases[-1], exp)], l2_normalize=l2)
        factor = distance_factor(scaled)
        assert factor.shape == (h + l2, h + l2)
        d_f = pairwise_euclidean(forward(scaled, x, factor))
        if l2:
            assert_l2_distances_within_bound(net, x, d_f, factor.shape[1])
        else:
            assert_factor_distances_within_bound(net, x, np.ldexp(d_f, -exp), h, True)

    def test_rows_are_the_embedding_with_l2_normalization(self):
        # without a factor, forward gives the d-wide normalized embedding;
        # with one, unit rows of the bordered factor's width h + 1
        rng = seeded_rng(140)
        net = Embedder.init([4, 6, 9], rng, l2_normalize=True)
        x = rng.normal(size=(5, 4))
        factor = distance_factor(net)
        assert factor.shape == (7, 7) and np.array_equal(factor, np.tril(factor))
        assert np.array_equal(forward(net, x, None), _forward_cached(net, x)[1])
        rows = forward(net, x, factor)
        assert rows.shape == (5, 7) and np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0.0, atol=4 * U * 7)

    @pytest.mark.parametrize("dims", [[6, 10, 8, 16], [6, 10, 12, 5]])
    def test_matches_finite_differences_with_two_hidden_layers(self, dims):
        # hidden 8 < d 16 measures on the Cholesky factor, hidden 12 >= d 5
        # on the output weights themselves
        rng = seeded_rng(141)
        net = Embedder.init(dims, rng)
        factor = distance_factor(net)
        assert (factor is net.weights[-1]) == (dims[-2] >= dims[-1])
        x = rng.normal(size=(12, 6))
        report = finite_difference_check(net, x, random_triplets(rng, 12, count=30), 0.3, step=1e-5)
        assert report.n_checked > 0
        assert report.max_rel_error < 1e-4

    def test_not_positive_definite_falls_back_to_the_output_weights(self):
        net = Embedder.init([3, 4, 8], seeded_rng(143))
        net.weights[-1][2] = net.weights[-1][1]
        net.weights[-1][3] = 0.0
        assert distance_factor(net) is net.weights[-1]


class TestBlockedDistanceRows:
    """``forward`` embeds its input in blocks of ``_CHUNK_VALUES // widest``
    rows, one-row blocks included, bit for bit as one pass would."""

    @pytest.mark.parametrize("l2", [False, True])
    @pytest.mark.parametrize("dims", [[128, 64, 1024], [37, 50, 20, 70]])
    @pytest.mark.parametrize("step", [1, 2, 5])
    def test_blocks_match_one_pass(self, monkeypatch, dims, l2, step):
        rng = seeded_rng(150)
        net = Embedder.init(dims, rng, l2_normalize=l2)
        factor = distance_factor(net)
        widest = max(*dims[:-1], factor.shape[1])
        blocks = []
        real = embedder_mod._hidden_cached

        def spy(net, features):
            blocks.append(len(features))
            return real(net, features)

        for n in sorted({0, 1, 2, step - 1, step, step + 1, 2 * step + 1}):
            x = rng.normal(size=(n, dims[0]))
            hidden = real(net, x)[-1]
            one_pass = (embedder_mod._unit_rows(padded_matmul(hidden, factor[:-1]) + factor[-1]) if l2
                        else padded_matmul(hidden, factor))
            del blocks[:]
            with monkeypatch.context() as patch:
                patch.setattr(embedder_mod, "_CHUNK_VALUES", widest * step + widest - 1)
                patch.setattr(embedder_mod, "_hidden_cached", spy)
                rows = forward(net, x, factor)
            assert rows.shape == one_pass.shape and rows.tobytes() == one_pass.tobytes()
            assert sum(blocks) == n
            # full blocks of step rows, then the rest, a lone row included
            full, rest = divmod(n, step)
            assert blocks == ([step] * full + [rest] * (rest > 0) or [0])

    @pytest.mark.parametrize("l2", [False, True])
    def test_one_row_call_gives_that_rows_bits(self, l2):
        # numpy would multiply a lone row by matrix-vector code, which sums
        # in another order; padded_matmul multiplies it as two rows
        rng = seeded_rng(152)
        net = Embedder.init([128, 64, 1024], rng, l2_normalize=l2)
        factor = distance_factor(net)
        x = rng.normal(size=(50, 128))
        emb, rows = forward(net, x), forward(net, x, factor)
        for i in range(50):
            assert forward(net, x[i:i + 1]).tobytes() == emb[i:i + 1].tobytes()
            assert forward(net, x[i:i + 1], factor).tobytes() == rows[i:i + 1].tobytes()

    def test_non_finite_rows_in_a_later_block_raise(self, monkeypatch):
        rng = seeded_rng(151)
        net = Embedder.init([6, 8, 20], rng)
        net.weights[0] *= 1e10
        x = rng.normal(size=(9, 6))
        x[7] = 1e300
        monkeypatch.setattr(embedder_mod, "_CHUNK_VALUES", 8 * 4)
        with pytest.raises(FloatingPointError, match="non-finite"):
            forward(net, x, distance_factor(net))


@st.composite
def float32_nets(draw):
    """A net with zero to two hidden layers, hidden widths on both sides of
    ``_CHOLESKY_MAX``, each layer's weights and biases rescaled, and input
    rows with duplicates, an offset and rows that differ only past float32's
    precision."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_hidden = draw(st.integers(0, 2))
    hidden = [draw(st.one_of(st.integers(1, 12), st.integers(90, 130))) for _ in range(n_hidden)]
    dims = [draw(st.integers(1, 9)), *hidden, draw(st.integers(1, 140))]
    net = Embedder.init(dims, rng)
    for w, b in zip(net.weights, net.biases):
        w *= 10.0 ** draw(st.sampled_from([-6, -1, 0, 1, 3]))
        b += draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3])) * rng.normal(size=b.shape)
    x = rng.normal(size=(draw(st.integers(1, 40)), dims[0]))
    x *= 10.0 ** draw(st.sampled_from([-3, 0, 4]))
    x += draw(st.sampled_from([0.0, 1.0, 1e4])) * rng.normal(size=dims[0])
    x[rng.random(len(x)) < 0.2] = x[0]
    # the same float32 cast, distinct float64 rows
    x[rng.random(len(x)) < 0.2] *= 1.0 + 2.0**-40
    return net, x


class TestFloat32DistanceRows:
    """``float32_rows`` embeds in float32 and bounds every row's distance
    from the float64 ``forward`` rows."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(float32_nets(), hidden_width_nets().map(lambda case: case[:2])))
    def test_rows_lie_within_the_bound_of_the_float64_rows(self, case):
        net, x = case
        factor = distance_factor(net)
        rows64 = forward(net, x, factor)
        screen = float32_rows(net, x, factor)
        if screen is None:
            return
        rows32, e = screen
        assert rows32.dtype == np.float32 and rows32.shape == rows64.shape
        assert np.all(np.linalg.norm(rows32 - rows64, axis=1) <= e)

    def test_bound_is_small_beside_the_rows_of_a_glorot_net(self):
        # 128 features, hidden 64, d = 1024: the float32 rows lie within a
        # few 1e-4 of the largest row norm
        rng = seeded_rng(160)
        net = Embedder.init([128, 64, 1024], rng)
        x = rng.normal(size=(3000, 128))
        factor = distance_factor(net)
        rows32, e = float32_rows(net, x, factor)
        rows64 = forward(net, x, factor)
        top = np.linalg.norm(rows64, axis=1).max()
        assert np.linalg.norm(rows32 - rows64, axis=1).max() <= e < 1e-3 * top

    def test_l2_normalize_rows_stay_float64(self):
        net = Embedder.init([6, 8, 20], seeded_rng(161), l2_normalize=True)
        assert float32_rows(net, np.ones((3, 6)), distance_factor(net)) is None

    @pytest.mark.parametrize("case", ["weights 1e13", "features 1e13", "features 1e39", "zero net",
                                      "features nan"])
    def test_rows_float32_cannot_carry_stay_float64(self, case):
        rng = seeded_rng(161)
        net = Embedder.init([6, 8, 20], rng)
        x = rng.normal(size=(30, 6))
        if case == "weights 1e13":
            net.weights[0] *= 1e13
        elif case == "features 1e13":
            x[17] = 1e13
        elif case == "features 1e39":  # beyond float32
            x[17, 2] = 1e39
        elif case == "zero net":
            for p in parameters(net):
                p[...] = 0.0
        elif case == "features nan":
            x[17, 2] = np.nan
        assert float32_rows(net, x, distance_factor(net)) is None

    def test_in_range_net_takes_the_float32_rows(self):
        rng = seeded_rng(162)
        net = Embedder.init([6, 8, 20], rng)
        net.weights[0] *= 1e5
        x = 1e3 * rng.normal(size=(30, 6))
        rows32, e = float32_rows(net, x, distance_factor(net))
        assert rows32.dtype == np.float32 and 0.0 < e < np.inf


class TestFiniteDifferenceCheck:
    def test_no_triplets_report_zero(self):
        net = Embedder.init([3, 4, 2], seeded_rng(150))
        x = seeded_rng(151).normal(size=(5, 3))
        report = finite_difference_check(net, x, np.empty((0, 3), dtype=np.int64), 0.2)
        assert report.max_rel_error == 0.0
        assert report.n_checked > 0 and report.n_checked + report.n_skipped == sum(p.size for p in parameters(net))

    def test_zero_gradient_case_reports_zero_error(self):
        net = Embedder(weights=[np.eye(1)], biases=[np.zeros(1)])
        x = np.array([[0.0], [0.1], [5.0]])
        report = finite_difference_check(net, x, np.array([[0, 1, 2]]), 0.2, step=1e-5)
        assert report.max_rel_error == 0.0

    def test_large_step_has_larger_truncation_error(self):
        rng = seeded_rng(11)
        net = Embedder.init([4, 6, 3], rng)
        x = rng.normal(size=(6, 4))
        t = random_triplets(rng, 6, count=10)
        small = finite_difference_check(net, x, t, 0.5, step=1e-5)
        large = finite_difference_check(net, x, t, 0.5, step=1e-1)
        assert large.max_rel_error > small.max_rel_error

    def test_rejects_nonpositive_step(self):
        net = Embedder.init([2, 2], seeded_rng(12))
        with pytest.raises(ValueError, match="step"):
            finite_difference_check(net, np.zeros((3, 2)), np.array([[0, 1, 2]]), 0.1, step=0.0)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        rng = seeded_rng(13)
        net = Embedder.init([5, 7, 3], rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.layer_dims == net.layer_dims
        for w1, w2 in zip(net.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(net.biases, loaded.biases):
            assert np.array_equal(b1, b2)

    def test_save_is_deterministic_bytes(self, tmp_path):
        net = Embedder.init([4, 3], seeded_rng(14))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(path)

    def test_cut_after_magic_rejected_naming_path(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(b"TMEMB001")
        with pytest.raises(ValueError, match="cut.ckpt.*truncated"):
            load_checkpoint(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"TMEMB001" + struct.pack("<3I", 2, 65536, 65536) + b"\x00" * 64)
        with pytest.raises(ValueError, match="huge.ckpt.*truncated"):
            load_checkpoint(path)

    def test_dim_count_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "dims.ckpt"
        path.write_bytes(b"TMEMB001" + struct.pack("<I", 2**31))
        with pytest.raises(ValueError, match="dims.ckpt.*truncated"):
            load_checkpoint(path)

    def test_truncated_payload_rejected_naming_path(self, tmp_path):
        net = Embedder.init([3, 4, 2], seeded_rng(19))
        path = tmp_path / "short.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="short.ckpt.*truncated"):
            load_checkpoint(path)

    def test_zero_layer_size_rejected(self, tmp_path):
        path = tmp_path / "zero.ckpt"
        path.write_bytes(b"TMEMB001" + struct.pack("<3I", 2, 0, 3) + b"\x00" * 24)
        with pytest.raises(ValueError, match="zero.ckpt.*layer sizes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_non_finite_weights_rejected_naming_path(self, tmp_path, bad_value):
        net = Embedder.init([3, 4, 2], seeded_rng(20))
        net.weights[1][2, 1] = bad_value
        path = tmp_path / "nan.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(ValueError, match="nan.ckpt.*non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("l2", [False, True])
    def test_records_l2_normalize(self, tmp_path, l2):
        net = Embedder.init([3, 4, 2], seeded_rng(21), l2_normalize=l2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        assert path.read_bytes()[:16] == b"TMEMB002" + struct.pack("<2I", int(l2), 3)
        assert load_checkpoint(path).l2_normalize is l2
        assert load_checkpoint(path, l2_normalize=l2).l2_normalize is l2
        with pytest.raises(ValueError, match=f"model.ckpt.*l2_normalize={l2}, not l2_normalize={not l2}"):
            load_checkpoint(path, l2_normalize=not l2)

    def test_reads_the_format_without_flags(self, tmp_path):
        net = Embedder.init([3, 4, 2], seeded_rng(22))
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        v1 = tmp_path / "v1.ckpt"
        # TMEMB001: the same file less the flags field
        v1.write_bytes(b"TMEMB001" + path.read_bytes()[12:])
        for l2 in (False, True):
            loaded = load_checkpoint(v1, l2_normalize=l2)
            assert loaded.l2_normalize is l2
            for got, want in zip(loaded.weights + loaded.biases, net.weights + net.biases):
                assert np.array_equal(got, want)
        assert load_checkpoint(v1).l2_normalize is False

    def test_unknown_flags_rejected(self, tmp_path):
        net = Embedder.init([2, 2], seeded_rng(23))
        path = tmp_path / "flags.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<I", 2) + raw[12:])
        with pytest.raises(ValueError, match="flags.ckpt.*unknown flags 0x2"):
            load_checkpoint(path)

    def test_cut_in_flags_rejected(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(b"TMEMB002\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="cut.ckpt.*truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = Embedder.init([2, 2], seeded_rng(15))
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        net = Embedder.init([10, 20], seeded_rng(16))
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(net.weights[0]) <= limit)
        assert np.all(net.biases[0] == 0.0)

    def test_seeded_init_reproducible(self):
        a = Embedder.init([4, 5, 2], seeded_rng(17))
        b = Embedder.init([4, 5, 2], seeded_rng(17))
        for w1, w2 in zip(a.weights, b.weights):
            assert np.array_equal(w1, w2)

    def test_rejects_too_few_dims(self):
        with pytest.raises(ValueError, match="at least"):
            Embedder.init([4], seeded_rng(18))
