"""Sampler tests, anchored on brute-force re-enumeration of the selection rules.

The oracles below re-evaluate every candidate's score at every iteration in
plain Python, with strict-greater comparison so ties keep the lowest index,
exactly like the library's argmax scans.
"""

import copy
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripmine import similarity
from tripmine.core import (
    ANCHOR_STRATEGIES, IMAGE_STRATEGIES, BatchView, SamplerConfig, seeded_rng, validate_config,
)
from tripmine.sampler import (
    InformativenessRow,
    build_triplets,
    informativeness,
    mine_batch,
    mine_debug_lines,
    select_anchors_bas,
    select_anchors_das,
    select_anchors_ras,
    select_images_bis,
    select_images_ris,
    select_negatives_rhdis,
    select_positives_rhdis,
)
from tripmine.similarity import label_similarity_matrix, minmax_normalize, pairwise_euclidean


# ---------------------------------------------------------------- oracles

def oracle_das(dist, h, first):
    selected = [first]
    b = len(dist)
    while len(selected) < h:
        best, best_score = None, None
        for cand in range(b):
            if cand in selected:
                continue
            score = max(dist[cand][a] for a in selected)
            if best_score is None or score > best_score:
                best, best_score = cand, score
        selected.append(best)
    return selected


def oracle_scores(anchor, s_row, d_row, beta):
    i_pos = [beta * s_row[b] + (1.0 - beta) * d_row[b] for b in range(len(s_row))]
    i_neg = [beta * (1.0 - s_row[b]) + (1.0 - beta) * (1.0 - d_row[b]) for b in range(len(s_row))]
    return i_pos, i_neg


def oracle_iterative(anchor, scores, dist, c, gamma, excluded=()):
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


def random_instance(rng, b=None, quantized=False):
    b = b if b is not None else int(rng.integers(3, 9))
    if quantized:
        upper = rng.integers(0, 4, size=(b, b)).astype(np.float64)
        raw = np.triu(upper, k=1)
        raw = raw + raw.T
    else:
        raw = pairwise_euclidean(rng.normal(size=(b, 3)))
    dist = minmax_normalize(raw)
    labels = (rng.random((b, 4)) < 0.5).astype(np.uint8)
    labels[labels.sum(axis=1) == 0, 0] = 1
    s = label_similarity_matrix(labels)
    return b, dist, s


# ---------------------------------------------------------------- anchors

class TestDiverseAnchors:
    def test_four_point_line_example(self):
        # points 0, 1, 2, 10: farthest from 0 is 3; then 1 beats 2 (0.889 vs 0.778)
        dist = minmax_normalize(pairwise_euclidean(np.array([[0.0], [1.0], [2.0], [10.0]])))
        anchors = select_anchors_das(dist, 3, seeded_rng(0), first_anchor=0)
        assert anchors.dtype == np.int64
        assert anchors.tolist() == [0, 3, 1]
        assert anchors.tolist() == oracle_das(dist.tolist(), 3, 0)

    def test_selecting_all_gives_permutation(self):
        b, dist, _ = random_instance(seeded_rng(1), b=6)
        anchors = select_anchors_das(dist, 6, seeded_rng(2))
        assert sorted(anchors.tolist()) == list(range(6))

    def test_single_anchor_is_rng_draw(self):
        b, dist, _ = random_instance(seeded_rng(3), b=5)
        rng = seeded_rng(9)
        expected = int(seeded_rng(9).integers(5))
        assert select_anchors_das(dist, 1, rng).tolist() == [expected]

    def test_rejects_h_above_batch(self):
        _, dist, _ = random_instance(seeded_rng(4), b=4)
        with pytest.raises(ValueError, match="cannot select"):
            select_anchors_das(dist, 5, seeded_rng(0))

    def test_matches_oracle_on_tied_instances(self):
        rng = seeded_rng(5)
        for _ in range(30):
            b, dist, _ = random_instance(rng, quantized=True)
            first = int(rng.integers(b))
            h = int(rng.integers(1, b + 1))
            got = select_anchors_das(dist, h, rng, first_anchor=first)
            assert got.tolist() == oracle_das(dist.tolist(), h, first)

    def test_scores_by_the_farthest_chosen_anchor(self):
        # a candidate scores its distance to the FARTHEST selected anchor, not
        # the nearest (Gonzalez's farthest-point rule would pick 2 third)
        pts = np.array([[0.0], [10.0], [5.5], [9.0]])
        dist = pairwise_euclidean(pts)
        assert select_anchors_das(dist, 3, seeded_rng(0), first_anchor=0).tolist() == [0, 1, 3]
        assert oracle_das(dist.tolist(), 3, 0) == [0, 1, 3]


class TestRandomAnchors:
    def test_all_anchors_is_permutation(self):
        got = select_anchors_ras(8, 8, seeded_rng(0))
        assert got.dtype == np.int64
        assert sorted(got.tolist()) == list(range(8))

    def test_seed_reproducible(self):
        assert np.array_equal(select_anchors_ras(20, 5, seeded_rng(7)), select_anchors_ras(20, 5, seeded_rng(7)))

    def test_uniform_frequencies(self):
        rng = seeded_rng(123)
        counts = np.zeros(10)
        n = 100_000
        for _ in range(n):
            counts[select_anchors_ras(10, 1, rng)[0]] += 1
        freq = counts / n
        sigma = np.sqrt(0.1 * 0.9 / n)
        assert np.all(np.abs(freq - 0.1) < 3 * sigma)

    def test_rejects_h_above_batch(self):
        with pytest.raises(ValueError):
            select_anchors_ras(3, 4, seeded_rng(0))


class TestBatchAnchors:
    def test_enumerates_batch(self):
        anchors = select_anchors_bas(3)
        assert anchors.dtype == np.int64
        assert anchors.tolist() == [0, 1, 2]

    def test_single_item(self):
        assert select_anchors_bas(1).tolist() == [0]

    @given(st.integers(1, 50))
    def test_size_equals_batch(self, b):
        assert len(select_anchors_bas(b)) == b


# ---------------------------------------------------------------- scores

class TestInformativeness:
    def test_hand_arithmetic(self):
        dist = np.array([[0.0, 0.6], [0.6, 0.0]])
        row = informativeness(np.array([0]), dist, np.array([[1.0, 0.8]]), beta=0.5)
        assert row.i_pos.shape == row.i_neg.shape == (1, 2)
        assert row.i_pos[0, 1] == pytest.approx(0.7, abs=1e-15)
        assert row.i_neg[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_beta_one_is_pure_relevancy(self):
        dist = np.array([[0.0, 0.3], [0.3, 0.0]])
        row = informativeness(np.array([0]), dist, np.array([[1.0, 0.8]]), beta=1.0)
        assert row.i_pos[0, 1] == 0.8

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_negative_score_is_complement_and_bounded(self, s, d, beta):
        dist = np.array([[0.0, d], [d, 0.0]])
        row = informativeness(np.array([0, 1]), dist, np.array([[1.0, s], [s, 1.0]]), beta=beta)
        for k, other in ((0, 1), (1, 0)):
            assert abs(row.i_neg[k, other] - (1.0 - row.i_pos[k, other])) < 1e-12
            assert 0.0 <= row.i_pos[k, other] <= 1.0
            assert 0.0 <= row.i_neg[k, other] <= 1.0

    def test_rows_follow_the_anchor_array(self):
        rng = seeded_rng(20)
        b, dist, s = random_instance(rng, b=7)
        anchors = rng.permutation(b)
        row = informativeness(anchors, dist, s[anchors], 0.3)
        for k, a in enumerate(anchors.tolist()):
            i_pos, i_neg = oracle_scores(a, s[a].tolist(), dist[a].tolist(), 0.3)
            assert row.i_pos[k].tolist() == i_pos
            assert row.i_neg[k].tolist() == i_neg


# ---------------------------------------------------------------- rhdis

class TestRhdisSelection:
    # each selector is called once with every anchor of the instance, in a
    # random order; row k answers for anchors[k]

    def _rows(self, rng, b=5, quantized=False):
        b, dist, s = random_instance(rng, b=b, quantized=quantized)
        anchors = rng.permutation(b)
        return anchors, informativeness(anchors, dist, s[anchors], 0.5), dist, s

    def test_gamma_one_is_top_c_by_score(self):
        rng = seeded_rng(21)
        anchors, row, dist, _ = self._rows(rng)
        got = select_positives_rhdis(anchors, row, dist, 3, gamma=1.0)
        assert got.shape == (5, 3) and got.dtype == np.int64
        for k, anchor in enumerate(anchors.tolist()):
            order = sorted((i for i in range(5) if i != anchor), key=lambda i: (-row.i_pos[k, i], i))
            assert got[k].tolist() == order[:3]

    def test_gamma_zero_second_pick_is_farthest_from_first(self):
        rng = seeded_rng(22)
        anchors, row, dist, _ = self._rows(rng)
        got = select_positives_rhdis(anchors, row, dist, 2, gamma=0.0)
        for k, anchor in enumerate(anchors.tolist()):
            first = int(got[k, 0])
            rest = [i for i in range(5) if i not in (anchor, first)]
            assert got[k, 1] == max(rest, key=lambda i: (dist[i, first], -i))

    def test_positives_match_bruteforce_oracle(self):
        rng = seeded_rng(23)
        for t in range(30):
            anchors, row, dist, s = self._rows(rng, b=int(rng.integers(3, 9)), quantized=bool(t % 2))
            b = len(anchors)
            c = int(rng.integers(1, b))
            got = select_positives_rhdis(anchors, row, dist, c, gamma=0.1)
            for k, anchor in enumerate(anchors.tolist()):
                i_pos, _ = oracle_scores(anchor, s[anchor].tolist(), dist[anchor].tolist(), 0.5)
                assert got[k].tolist() == oracle_iterative(anchor, i_pos, dist.tolist(), c, 0.1)

    def test_negatives_match_bruteforce_oracle(self):
        rng = seeded_rng(24)
        for t in range(30):
            anchors, row, dist, s = self._rows(rng, b=int(rng.integers(3, 9)), quantized=bool(t % 2))
            c = max(1, (len(anchors) - 1) // 2)
            pos = select_positives_rhdis(anchors, row, dist, c, gamma=0.1)
            got = select_negatives_rhdis(anchors, row, dist, c, gamma=0.1, exclude=pos)
            for k, anchor in enumerate(anchors.tolist()):
                _, i_neg = oracle_scores(anchor, s[anchor].tolist(), dist[anchor].tolist(), 0.5)
                want = oracle_iterative(anchor, i_neg, dist.tolist(), c, 0.1, excluded=pos[k].tolist())
                assert got[k].tolist() == want

    def test_gamma_one_negatives_are_top_c_by_score(self):
        rng = seeded_rng(28)
        anchors, row, dist, _ = self._rows(rng)
        got = select_negatives_rhdis(anchors, row, dist, 3, gamma=1.0)
        for k, anchor in enumerate(anchors.tolist()):
            order = sorted((i for i in range(5) if i != anchor), key=lambda i: (-row.i_neg[k, i], i))
            assert got[k].tolist() == order[:3]

    def test_single_negative_is_argmax(self):
        rng = seeded_rng(25)
        anchors, row, dist, _ = self._rows(rng)
        got = select_negatives_rhdis(anchors, row, dist, 1, gamma=0.1)
        for k, anchor in enumerate(anchors.tolist()):
            candidates = [i for i in range(5) if i != anchor]
            assert got[k].tolist() == [max(candidates, key=lambda i: (row.i_neg[k, i], -i))]

    def test_negatives_exclude_positives(self):
        rng = seeded_rng(26)
        for t in range(20):
            anchors, row, dist, _ = self._rows(rng, b=int(rng.integers(3, 9)), quantized=bool(t % 2))
            c = max(1, (len(anchors) - 1) // 2)
            pos = select_positives_rhdis(anchors, row, dist, c, gamma=0.1)
            neg = select_negatives_rhdis(anchors, row, dist, c, gamma=0.1, exclude=pos)
            for anchor, p, n in zip(anchors.tolist(), pos.tolist(), neg.tolist()):
                assert not set(p) & set(n)
                assert anchor not in p and anchor not in n

    def test_rejects_too_many_picks(self):
        rng = seeded_rng(27)
        anchors, row, dist, _ = self._rows(rng)
        with pytest.raises(ValueError, match="cannot select"):
            select_positives_rhdis(anchors, row, dist, 5, gamma=0.1)


# ---------------------------------------------------------------- baselines

class TestRandomImages:
    def test_reproducible(self):
        anchors = np.array([2, 7, 0])
        pos_a, neg_a = select_images_ris(anchors, 10, 3, 3, seeded_rng(5))
        pos_b, neg_b = select_images_ris(anchors, 10, 3, 3, seeded_rng(5))
        assert np.array_equal(pos_a, pos_b) and np.array_equal(neg_a, neg_b)

    def test_anchor_never_selected_and_disjoint(self):
        rng = seeded_rng(6)
        anchors = np.arange(12)
        for _ in range(50):
            pos, neg = select_images_ris(anchors, 12, 3, 3, rng)
            assert pos.shape == neg.shape == (12, 3)
            for anchor, p, n in zip(anchors.tolist(), pos.tolist(), neg.tolist()):
                assert anchor not in p and anchor not in n
                assert not set(p) & set(n)
                assert len(set(p)) == 3 and len(set(n)) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_are_one_anchor_calls_in_anchor_order(self, seed):
        # the array call draws anchor by anchor: its rows are H one-anchor
        # calls on a clone of the generator, and both leave it in one state
        rng = seeded_rng(seed)
        b = int(rng.integers(3, 20))
        c_pos = int(rng.integers(1, b - 1))
        c_neg = int(rng.integers(1, b - c_pos))
        anchors = rng.choice(b, size=int(rng.integers(1, b + 1)), replace=False)
        clone = copy.deepcopy(rng)
        pos, neg = select_images_ris(anchors, b, c_pos, c_neg, rng)
        for k, anchor in enumerate(anchors.tolist()):
            one_pos, one_neg = select_images_ris(np.array([anchor]), b, c_pos, c_neg, clone)
            assert pos[k].tolist() == one_pos[0].tolist()
            assert neg[k].tolist() == one_neg[0].tolist()
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError, match="cannot draw"):
            select_images_ris(np.array([0]), 6, 3, 3, seeded_rng(0))


class TestBatchImages:
    def test_enumerates_everything_but_anchor(self):
        anchors = np.array([2, 0, 3, 1])
        pos, neg = select_images_bis(anchors, 4)
        for k, anchor in enumerate(anchors.tolist()):
            assert pos[k].tolist() == neg[k].tolist() == [i for i in range(4) if i != anchor]
        assert pos[0].tolist() == [0, 1, 3]

    def test_sizes(self):
        pos, neg = select_images_bis(np.arange(7), 7)
        assert pos.shape == neg.shape == (7, 6)

    def test_cartesian_count_after_degenerate_filter(self):
        b = 6
        anchors = np.array([0])
        pos, neg = select_images_bis(anchors, b)
        ts = build_triplets(anchors, pos, neg)
        # counting oracle: (B-1)^2 pairs minus the B-1 cases with p == n
        assert len(ts) == (b - 1) * (b - 2)


# ---------------------------------------------------------------- anchor checks

def _selector_calls(b):
    """One call per public selector that takes anchors, for a batch of b."""
    _, dist, s = random_instance(seeded_rng(40), b=b)

    def scores(anchors):
        return InformativenessRow(i_pos=np.full((np.size(anchors), b), 0.5),
                                  i_neg=np.full((np.size(anchors), b), 0.5))

    return {
        "informativeness": lambda a: informativeness(a, dist, np.full((np.size(a), b), 0.5), 0.5),
        "select_positives_rhdis": lambda a: select_positives_rhdis(a, scores(a), dist, 1, 0.5),
        "select_negatives_rhdis": lambda a: select_negatives_rhdis(a, scores(a), dist, 1, 0.5),
        "select_images_ris": lambda a: select_images_ris(a, b, 1, 1, seeded_rng(0)),
        "select_images_bis": lambda a: select_images_bis(a, b),
        "select_anchors_das": lambda a: select_anchors_das(dist, 1, seeded_rng(0), first_anchor=a),
    }


@pytest.mark.parametrize("selector", list(_selector_calls(4)))
@pytest.mark.parametrize("anchors, bad", [(np.array([-1]), -1), (np.array([4]), 4), (np.array([0, 2, 5, 9]), 5),
                                          (np.array([3, -2]), -2)])
def test_out_of_range_anchor_is_rejected(selector, anchors, bad):
    call = _selector_calls(4)[selector]
    if selector == "select_anchors_das":
        anchors = anchors[anchors == bad][0]  # its one first anchor
    with pytest.raises(ValueError, match=f"anchor {bad} is outside a batch of 4"):
        call(anchors)


@pytest.mark.parametrize("selector", [name for name in _selector_calls(4) if name != "select_anchors_das"])
@pytest.mark.parametrize("anchor", [1, np.int64(1), np.array(1), np.array([[1]])])
def test_anchor_that_is_not_an_anchor_array_is_rejected(selector, anchor):
    # an int, 0-d or 2-d anchor is not an (H,) array and fails loudly
    with pytest.raises(ValueError, match=r"not an \(H,\) array of indices into a batch of 4"):
        _selector_calls(4)[selector](anchor)


# ---------------------------------------------------------------- assembly

@pytest.mark.parametrize("call, message", [
    (lambda: select_anchors_das(np.zeros((3, 3)), 0, seeded_rng(0)), "anchor count must be >= 1"),
    (lambda: select_anchors_bas(0), "batch must be nonempty"),
    (lambda: select_images_bis(np.array([0]), 1), "bis needs a batch of at least 2"),
], ids=["das-no-anchor", "bas-empty-batch", "bis-batch-of-one"])
def test_selector_rejects_what_it_cannot_select(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestBuildTriplets:
    def test_cartesian_two_by_two(self):
        ts = build_triplets([0], [[1, 2]], [[3, 4]])
        assert ts.triplets.tolist() == [[0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 4]]

    def test_cartesian_drops_p_equals_n(self):
        ts = build_triplets([0], [[1, 2]], [[2, 5]])
        assert ts.triplets.tolist() == [[0, 1, 2], [0, 1, 5], [0, 2, 5]]

    def test_exhaustive_build_peaks_below_40_bytes_per_triplet(self):
        # bas-bis at B = 100: T = 100 * 99 * 98 = 970,200 triplets. The block
        # is 1 byte per triplet and the (T, 3) list read from it 24; a list
        # that stacks three T-length columns peaks near 49, the per-anchor
        # build near 48.
        b = 100
        anchors = np.arange(b)
        pos, neg = select_images_bis(anchors, b)
        tracemalloc.start()
        try:
            ts = build_triplets(anchors, pos, neg)
            assert ts.triplets.shape == (len(ts), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ts) == b * (b - 1) * (b - 2)
        assert peak < 40 * len(ts)

    def test_per_anchor_preserved(self):
        ts = build_triplets([3, 1], [[0], [2]], [[2], [0]])
        assert ts.anchors.tolist() == [3, 1]
        assert (ts.positives[0].tolist(), ts.negatives[0].tolist()) == ([0], [2])
        assert ts.triplets.tolist() == [[3, 0, 2], [1, 2, 0]]


# ---------------------------------------------------------------- batch mining

def _random_batch(rng, b=12, n_classes=5):
    emb = rng.normal(size=(b, 3))
    labels = (rng.random((b, n_classes)) < 0.4).astype(np.uint8)
    labels[labels.sum(axis=1) == 0, 0] = 1
    return BatchView.from_embeddings(np.arange(b), emb, labels)


class TestMineBatch:
    @pytest.mark.parametrize("anchor_strategy", ["das", "ras", "bas"])
    @pytest.mark.parametrize("image_strategy", ["rhdis", "ris", "bis"])
    def test_indices_in_range_and_anchor_excluded(self, anchor_strategy, image_strategy):
        rng = seeded_rng(31)
        batch = _random_batch(rng)
        cfg = SamplerConfig(anchor_strategy=anchor_strategy, image_strategy=image_strategy,
                            anchor_fraction=0.25, positives_per_anchor=2, negatives_per_anchor=2)
        ts = mine_batch(batch, cfg, rng)
        assert len(ts) > 0
        t = ts.triplets
        assert t.min() >= 0 and t.max() < batch.size
        assert np.all(t[:, 0] != t[:, 1])
        assert np.all(t[:, 0] != t[:, 2])
        assert np.all(t[:, 1] != t[:, 2])

    def test_rhdis_cartesian_count(self):
        rng = seeded_rng(32)
        batch = _random_batch(rng, b=20)
        cfg = SamplerConfig(anchor_fraction=0.2, positives_per_anchor=3, negatives_per_anchor=3)
        ts = mine_batch(batch, cfg, rng)
        h = cfg.num_anchors(20)
        assert ts.anchors.shape == (h,)
        assert len(ts) == h * 3 * 3  # disjoint sets: no p == n drops

    @pytest.mark.parametrize("names, message", [
        ({"anchor_strategy": "DAS", "image_strategy": "RHDIS"}, "unknown anchor strategy 'DAS'"),
        ({"anchor_strategy": "bas", "image_strategy": "RHDIS"}, "unknown image strategy 'RHDIS'"),
        ({"anchor_strategy": "", "image_strategy": "bis"}, "unknown anchor strategy ''"),
    ])
    def test_unknown_strategy_is_rejected_like_validate_config(self, names, message):
        rng = seeded_rng(35)
        batch = _random_batch(rng, b=10)
        cfg = SamplerConfig(**names)
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_config(cfg, batch.size)
        with pytest.raises(ValueError, match=re.escape(message)):
            mine_batch(batch, cfg, rng)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_rejects_exactly_what_validate_config_rejects(self, data):
        # mine_batch checks what train checks, with the same message, and
        # every configuration it accepts mines a triplet
        def one_of(known, unknown):
            return st.sampled_from(tuple(known) + unknown)

        b = data.draw(st.integers(2, 30), label="batch size")
        weights = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-3.0, -1e-9, 1.0 + 1e-9, 2.0, np.nan]))
        cfg = SamplerConfig(
            anchor_strategy=data.draw(one_of(ANCHOR_STRATEGIES, ("DAS", "", "magic")), label="anchors"),
            image_strategy=data.draw(one_of(IMAGE_STRATEGIES, ("RHDIS", "all")), label="images"),
            anchor_fraction=data.draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                                                st.sampled_from([0.0, -0.5, 1.5, 1e-12, np.nan])), label="fraction"),
            positives_per_anchor=data.draw(st.integers(0, b), label="positives"),
            negatives_per_anchor=data.draw(st.integers(0, b), label="negatives"),
            beta=data.draw(weights, label="beta"),
            gamma=data.draw(weights, label="gamma"),
        )
        rng = seeded_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        batch = _random_batch(rng, b=b)
        try:
            validate_config(cfg, b)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                mine_batch(batch, cfg, rng)
            assert str(raised.value) == str(exc)
        else:
            assert len(mine_batch(batch, cfg, rng)) >= 1

    def test_das_spreads_anchors_more_than_ras(self):
        rng = seeded_rng(33)
        das_spread, ras_spread = [], []
        for _ in range(100):
            emb = rng.uniform(size=(32, 4))
            dist = minmax_normalize(pairwise_euclidean(emb))
            das = select_anchors_das(dist, 4, rng)
            ras = select_anchors_ras(32, 4, rng)
            das_spread.append(max(dist[i, j] for i in das for j in das if i != j))
            ras_spread.append(max(dist[i, j] for i in ras for j in ras if i != j))
        assert np.mean(das_spread) >= np.mean(ras_spread)

    def test_debug_lines_shape(self):
        rng = seeded_rng(34)
        batch = _random_batch(rng)
        cfg = SamplerConfig(anchor_fraction=0.25, positives_per_anchor=2, negatives_per_anchor=2)
        lines = mine_debug_lines(0, batch, cfg, rng)
        import json
        header = json.loads(lines[0])
        assert header["batch"] == 0
        assert len(header["anchors"]) == cfg.num_anchors(batch.size)
        assert len(lines) == 1 + len(header["anchors"])
        entry = json.loads(lines[1])
        assert set(entry) >= {"anchor", "i_pos_max", "i_neg_min", "positives", "negatives", "i_pos", "i_neg"}
        assert all(0 <= i < batch.size for i in entry["positives"] + entry["negatives"])

    @pytest.mark.parametrize("anchor_strategy", ANCHOR_STRATEGIES)
    @pytest.mark.parametrize("image_strategy", IMAGE_STRATEGIES)
    def test_debug_lines_normalize_and_score_each_batch_once(self, anchor_strategy, image_strategy, monkeypatch):
        # the dump scores the anchors in every cell, so it reads D and S: once each
        calls = []
        for name in ("minmax_normalize", "label_similarity_matrix"):
            real = getattr(similarity, name)
            monkeypatch.setattr(similarity, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
        rng = seeded_rng(35)
        batch = _random_batch(rng)
        cfg = SamplerConfig(anchor_strategy=anchor_strategy, image_strategy=image_strategy,
                            anchor_fraction=0.25, positives_per_anchor=2, negatives_per_anchor=2)
        mine_debug_lines(0, batch, cfg, rng)
        assert sorted(calls) == ["label_similarity_matrix", "minmax_normalize"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["das", "ras", "bas"]), st.sampled_from(["rhdis", "ris", "bis"]))
def test_property_every_index_below_batch_size(seed, anchor_strategy, image_strategy):
    rng = seeded_rng(seed)
    b = int(rng.integers(5, 16))
    batch = _random_batch(rng, b=b)
    cfg = SamplerConfig(anchor_strategy=anchor_strategy, image_strategy=image_strategy,
                        anchor_fraction=0.3, positives_per_anchor=2, negatives_per_anchor=2)
    ts = mine_batch(batch, cfg, rng)
    assert ts.triplets.min() >= 0
    assert ts.triplets.max() < b
    for a, pos, neg in zip(ts.anchors, ts.positives, ts.negatives):
        assert a not in pos and a not in neg


# ---------------------------------------------------------------- lockstep vs per-anchor reference
# The per-anchor miner that the lockstep one replaced, kept as the reference:
# one score row, two iterative picks and one triplet block per anchor.

def _reference_iterative_pick(scores, dist_norm, count, gamma, blocked):
    blocked = blocked.copy()
    chosen = []
    first = int(np.argmax(np.where(blocked, -np.inf, scores)))
    chosen.append(first)
    blocked[first] = True
    spread = dist_norm[:, first].copy()
    while len(chosen) < count:
        blended = gamma * scores + (1.0 - gamma) * spread
        nxt = int(np.argmax(np.where(blocked, -np.inf, blended)))
        chosen.append(nxt)
        blocked[nxt] = True
        spread = np.maximum(spread, dist_norm[:, nxt])
    return chosen


def _reference_select_pair(anchor, batch, cfg, s_matrix, rng):
    b = batch.size
    if cfg.image_strategy == "rhdis":
        dist_norm = minmax_normalize(batch.dist_raw)
        s, d = s_matrix[anchor], dist_norm[anchor]
        i_pos = cfg.beta * s + (1.0 - cfg.beta) * d
        i_neg = cfg.beta * (1.0 - s) + (1.0 - cfg.beta) * (1.0 - d)
        blocked = np.zeros(b, dtype=bool)
        blocked[anchor] = True
        pos = _reference_iterative_pick(i_pos, dist_norm, cfg.positives_per_anchor, cfg.gamma, blocked)
        blocked[pos] = True
        neg = _reference_iterative_pick(i_neg, dist_norm, cfg.negatives_per_anchor, cfg.gamma, blocked)
        return pos, neg
    if cfg.image_strategy == "ris":
        pool = np.delete(np.arange(b), anchor)
        picks = rng.choice(pool, size=cfg.positives_per_anchor + cfg.negatives_per_anchor, replace=False)
        c = cfg.positives_per_anchor
        return [int(i) for i in picks[:c]], [int(i) for i in picks[c:]]
    others = [i for i in range(b) if i != anchor]
    return others, list(others)


def mine_batch_reference(batch, cfg, rng):
    """(anchors, {anchor: (positives, negatives)}, (T, 3) triplets)."""
    h = cfg.num_anchors(batch.size)
    if cfg.anchor_strategy == "das":
        anchors = select_anchors_das(batch.dist_raw, h, rng)
    elif cfg.anchor_strategy == "ras":
        anchors = select_anchors_ras(batch.size, h, rng)
    else:
        anchors = select_anchors_bas(batch.size)
    anchors = anchors.tolist()
    s_matrix = label_similarity_matrix(batch.labels)
    per_anchor = {a: _reference_select_pair(a, batch, cfg, s_matrix, rng) for a in anchors}
    rows = []
    for a in anchors:
        p, n = (np.asarray(x, dtype=np.int64) for x in per_anchor[a])
        pp, nn = (m.ravel() for m in np.meshgrid(p, n, indexing="ij"))
        keep = pp != nn
        rows.append(np.column_stack([np.full(keep.sum(), a, dtype=np.int64), pp[keep], nn[keep]]))
    return anchors, per_anchor, np.concatenate(rows, axis=0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(itertools.product(ANCHOR_STRATEGIES, IMAGE_STRATEGIES))),
       st.booleans())
def test_lockstep_mining_matches_per_anchor_reference(seed, pair, quantized):
    anchor_strategy, image_strategy = pair
    rng = seeded_rng(seed)
    b = int(rng.integers(3, 25))
    c_pos = int(rng.integers(1, b - 1))
    c_neg = int(rng.integers(1, b - c_pos))
    cfg = SamplerConfig(
        anchor_strategy=anchor_strategy, image_strategy=image_strategy,
        anchor_fraction=float(rng.uniform(0.01, 1.0)), positives_per_anchor=c_pos, negatives_per_anchor=c_neg,
        beta=float(rng.choice([0.0, 0.5, 1.0, rng.random()])),
        gamma=float(rng.choice([0.0, 0.1, 1.0, rng.random()])),
    )
    lockstep_rng, reference_rng = seeded_rng(seed + 1), seeded_rng(seed + 1)
    for _ in range(3):
        if quantized:
            # a coarse grid: tied and zero distances, tied label similarities
            emb = rng.integers(0, 3, size=(b, 2)).astype(np.float64)
            labels = (rng.random((b, 2)) < 0.5).astype(np.uint8)
        else:
            emb = rng.normal(size=(b, 4))
            labels = (rng.random((b, 6)) < 0.4).astype(np.uint8)
        labels[labels.sum(axis=1) == 0, 0] = 1
        batch = BatchView.from_embeddings(np.arange(b), emb, labels)
        ts = mine_batch(batch, cfg, lockstep_rng)
        anchors, per_anchor, triplets = mine_batch_reference(batch, cfg, reference_rng)
        assert ts.triplets.dtype == triplets.dtype and ts.triplets.shape == triplets.shape
        assert ts.triplets.tobytes() == triplets.tobytes()
        assert ts.anchors.tolist() == anchors
        assert ts.positives.tolist() == [list(per_anchor[a][0]) for a in anchors]
        assert ts.negatives.tolist() == [list(per_anchor[a][1]) for a in anchors]
        assert lockstep_rng.bit_generator.state == reference_rng.bit_generator.state
