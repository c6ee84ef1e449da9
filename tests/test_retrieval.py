import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripmine.core import SampleTable, seeded_rng
from tripmine import embedder, retrieval
from tripmine.embedder import Embedder, forward, parameters
from tripmine.trainer import adam_step, init_adam
from tripmine.retrieval import (
    MetricReport,
    default_k,
    evaluate,
    format_metric_table,
    knn_retrieve,
    pair_metrics,
    write_metrics_csv,
)


def identity_net(d):
    return Embedder(weights=[np.eye(d)], biases=[np.zeros(d)])


class TestKnnRetrieve:
    def test_exact_duplicate_ranks_first_with_zero_distance(self):
        archive = np.array([[5.0, 5.0], [1.0, 2.0], [9.0, 0.0]])
        idx, dist = knn_retrieve([[1.0, 2.0]], archive, k=2)
        assert idx.shape == dist.shape == (1, 2)
        assert idx[0, 0] == 1
        assert dist[0, 0] == 0.0

    def test_one_dimensional_hand_example(self):
        archive = np.array([[0.0], [1.0], [5.0]])
        idx, dist = knn_retrieve([[0.9]], archive, k=2)
        assert idx.tolist() == [[1, 0]]
        assert np.all(np.diff(dist) >= 0)

    def test_full_k_gives_permutation(self):
        rng = seeded_rng(1)
        archive = rng.normal(size=(7, 3))
        idx, _ = knn_retrieve(rng.normal(size=(1, 3)), archive, k=7)
        assert sorted(idx[0].tolist()) == list(range(7))

    def test_ties_break_to_lowest_index(self):
        archive = np.array([[1.0], [-1.0], [1.0]])
        idx, _ = knn_retrieve([[0.0]], archive, k=3)
        assert idx.tolist() == [[0, 1, 2]]

    def test_subnormal_ties_break_to_lowest_index(self):
        # both rows are 1e-161 away; the squares are subnormal, where the
        # screen's rounding error is absolute rather than relative
        archive = np.array([[-2e-161], [0.0]])
        idx, dist = knn_retrieve([[-1e-161]], archive, k=1)
        want_idx, want_dist = knn_oracle(np.array([-1e-161]), archive, 1, None)
        assert idx[0].tolist() == want_idx.tolist() == [0]
        assert np.array_equal(dist[0], want_dist)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k="):
            knn_retrieve([[0.0]], np.zeros((3, 1)), k=4)

    def test_exclusion_reduces_capacity(self):
        archive = np.zeros((3, 1))
        with pytest.raises(ValueError, match="k="):
            knn_retrieve([[0.0]], archive, k=3, exclude_index=[0])
        idx, _ = knn_retrieve([[0.0]], archive, k=2, exclude_index=[0])
        assert 0 not in idx[0].tolist()

    def test_exclude_indices_must_match_queries_and_archive(self):
        archive = np.zeros((3, 1))
        with pytest.raises(ValueError, match="exclude indices for 2 queries"):
            knn_retrieve(np.zeros((2, 1)), archive, k=1, exclude_index=[0])
        with pytest.raises(ValueError, match="exclude indices must lie"):
            knn_retrieve([[0.0]], archive, k=1, exclude_index=[3])

    @pytest.mark.parametrize("query", [[0.0], 0.0, [[[0.0]]]])
    def test_query_that_is_not_a_block_rejected(self, query):
        # a single query is a (1, d) block, never a 1-D row
        with pytest.raises(ValueError, match="does not match query block shape"):
            knn_retrieve(query, np.zeros((3, 1)), k=1)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["query", "archive"])
    def test_non_finite_embeddings_rejected(self, side, bad_value):
        query, archive = np.zeros((1, 2)), np.zeros((3, 2))
        (query[0] if side == "query" else archive)[1] = bad_value
        with pytest.raises(ValueError, match=f"{side} embeddings"):
            knn_retrieve(query, archive, k=1)

    @pytest.mark.parametrize("side", ["query", "archive"])
    def test_finite_huge_entries_are_searched(self, side):
        # 1e200 squared overflows float64, but the rows are finite and are
        # ranked like their 2**-600 scaled copies, which do not overflow
        query, archive = np.zeros((1, 2)), np.zeros((3, 2))
        (query[0] if side == "query" else archive)[1] = 1e200
        want_idx, want_dist = knn_oracle(np.ldexp(query[0], -600), np.ldexp(archive, -600), 3, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, dist = knn_retrieve(query, archive, k=3)
        assert np.array_equal(idx[0], want_idx)
        assert np.array_equal(dist[0], np.ldexp(want_dist, 600))
        assert np.all(np.isfinite(dist)) and dist.max() >= 1e200

    @pytest.mark.parametrize("exp", [600, -700])
    def test_rows_whose_squares_leave_float64_rank_as_unscaled(self, exp, monkeypatch):
        # at 2**600 every squared norm and squared distance overflows
        # float64, while the distances themselves are representable; at
        # 2**-700 they underflow to 0. The screen runs at a power-of-two
        # scale and keeps the unscaled rows' candidates, and each one's
        # difference is summed at its own
        rng = seeded_rng(4)
        archive = rng.normal(size=(40, 5))
        archive[30:] = archive[:10]
        queries = np.vstack([rng.normal(size=(6, 5)), archive[3:5]])
        exclude = [None] * 6 + [3, 4]
        measured = []
        real = retrieval._scaled_row_distances

        def spy(x, rows_i, rows_j, y=None):
            measured.append(len(rows_i))
            return real(x, rows_i, rows_j, y=y)

        monkeypatch.setattr(retrieval, "_scaled_row_distances", spy)
        want_idx, want_dist = knn_retrieve(queries, archive, 9, exclude_index=exclude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, dist = knn_retrieve(np.ldexp(queries, exp), np.ldexp(archive, exp), 9, exclude_index=exclude)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, np.ldexp(want_dist, exp))
        assert measured[1] == measured[0] < 8 * 40 // 2

    def test_small_differences_beside_huge_entries_stay_exact(self):
        # the first column's 2**600 forces a scaled screen; the pairs differ
        # only in the second, by amounts whose squares vanish at that scale
        # but not at scale 1
        small = np.ldexp(np.array([5.0, 0.0, 3.0, 1.0, 4.0]), -450)
        archive = np.column_stack([np.full(5, 2.0**600), small])
        archive = np.vstack([archive, [-(2.0**600), 0.0]])
        query = np.array([2.0**600, 0.0])
        idx, dist = knn_retrieve(query[None], archive, k=6)
        want_idx, want_dist = knn_oracle(query, archive, 5, None)
        assert idx[0, :5].tolist() == want_idx.tolist() == [1, 3, 2, 4, 0]
        assert np.array_equal(dist[0, :5], want_dist)
        # the last row is 2**601 away: its squared distance overflows, its distance does not
        assert idx[0, 5] == 5 and dist[0, 5] == 2.0**601

    @settings(deadline=None)
    @given(st.data())
    def test_block_matches_brute_force_oracle(self, data):
        m = data.draw(st.integers(1, 12), label="archive rows")
        d = data.draw(st.integers(1, 3), label="dim")
        n_q = data.draw(st.integers(1, 4), label="queries")
        # a few coarse values, so duplicate rows and equal distances are common
        value = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0]),
                          st.floats(-100.0, 100.0, allow_nan=False))
        archive = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                              min_size=m, max_size=m)))
        if data.draw(st.booleans(), label="duplicate a row"):
            archive[-1] = archive[0]
        queries = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                              min_size=n_q, max_size=n_q)))
        # at 1e-161 the squares underflow into subnormals; at 1e150 they
        # come within a few thousand of the float64 maximum
        scale = data.draw(st.sampled_from([1.0, 1e-161, 1e150]), label="scale")
        archive, queries = scale * archive, scale * queries
        exclude = (data.draw(st.lists(st.one_of(st.none(), st.integers(0, m - 1)),
                                      min_size=n_q, max_size=n_q), label="exclude")
                   if m > 1 else [None] * n_q)
        usable = m - (1 if any(e is not None for e in exclude) else 0)
        k = data.draw(st.one_of(st.just(usable), st.integers(1, usable)), label="k")
        idx, dist = knn_retrieve(queries, archive, k, exclude_index=exclude)
        for qi in range(n_q):
            want_idx, want_dist = knn_oracle(queries[qi], archive, k, exclude[qi])
            assert np.array_equal(idx[qi], want_idx)
            assert np.array_equal(dist[qi], want_dist)

    @settings(deadline=None)
    @given(st.data())
    def test_offset_rows_in_several_blocks_match_brute_force_oracle(self, data):
        # a common offset makes |q|^2 + |a|^2 - 2 q.a cancel, so the screen's
        # rounding swamps the small and tied distances
        m = data.draw(st.integers(2, 12), label="archive rows")
        d = data.draw(st.integers(1, 4), label="dim")
        n_q = data.draw(st.integers(2, 6), label="queries")
        value = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.5]), st.floats(-4.0, 4.0))
        rows = st.lists(st.lists(value, min_size=d, max_size=d), min_size=m + n_q, max_size=m + n_q)
        points = np.array(data.draw(rows))
        points[m - 1] = points[0]
        offset = data.draw(st.one_of(st.sampled_from([1e4, 1e6, 1e8, -1e8]), st.floats(-1e8, 1e8)),
                           label="offset")
        archive, queries = points[:m] + offset, points[m:] + offset
        exclude = data.draw(st.lists(st.one_of(st.none(), st.integers(0, m - 1)),
                                     min_size=n_q, max_size=n_q), label="exclude")
        usable = m - (1 if any(e is not None for e in exclude) else 0)
        k = data.draw(st.integers(1, usable), label="k")
        # screens of fewer queries than there are: at least two blocks
        block = data.draw(st.integers(1, n_q - 1), label="queries per block")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval, "_SCREEN_VALUES", block * m)
            idx, dist = knn_retrieve(queries, archive, k, exclude_index=exclude)
        for qi in range(n_q):
            want_idx, want_dist = knn_oracle(queries[qi], archive, k, exclude[qi])
            assert np.array_equal(idx[qi], want_idx)
            assert np.array_equal(dist[qi], want_dist)

    def test_large_common_offset_keeps_exact_order(self):
        # coordinates 1e8 + 1e-3 * step: in |q|^2 + |a|^2 - 2 q.a the terms
        # near 3e16 cancel, and their rounding (steps of 8) swamps the squared
        # distances (below 1e-3); row 5 is 5th nearest but screens at 8, not 0
        steps = np.array([[9, 10, 15], [19, 0, 2], [16, 18, 4], [6, 17, 8], [5, 16, 5],
                          [8, 12, 10], [1, 0, 17], [15, 16, 10], [16, 6, 9], [15, 2, 6],
                          [2, 9, 19], [2, 7, 8], [18, 4, 10], [5, 0, 15], [1, 5, 9],
                          [9, 2, 19], [14, 19, 1]])
        archive = 1e8 + 1e-3 * steps
        query = 1e8 + 1e-3 * np.array([14, 5, 10])
        gram = query @ query + np.einsum("ij,ij->i", archive, archive) - 2.0 * archive @ query
        want_idx, want_dist = knn_oracle(query, archive, 5, None)
        assert gram[5] > 0.0 and (gram == 0.0).sum() == 15
        idx, dist = knn_retrieve(query[None], archive, k=5)
        assert idx[0].tolist() == want_idx.tolist() == [8, 12, 9, 0, 5]
        assert np.array_equal(dist[0], want_dist)

    @pytest.mark.parametrize("screen_values", [retrieval._SCREEN_VALUES, 1000])
    def test_block_matches_single_query_calls(self, monkeypatch, screen_values):
        # 1000 values hold 3 queries' screens of this archive: 27 blocks
        monkeypatch.setattr(retrieval, "_SCREEN_VALUES", screen_values)
        rng = seeded_rng(3)
        archive = rng.normal(size=(300, 8))
        archive[150:200] = archive[:50]
        # the default screen takes all 80 queries in one block; only the
        # 1000-value case (27 blocks) crosses blocks. The last 10 are
        # archive rows
        queries = np.vstack([rng.normal(size=(70, 8)), archive[:10]])
        exclude = [None] * 70 + list(range(10))
        idx, dist = knn_retrieve(queries, archive, k=12, exclude_index=exclude)
        assert idx.shape == dist.shape == (80, 12)
        for qi in range(len(queries)):
            one_idx, one_dist = knn_retrieve(queries[qi : qi + 1], archive, k=12, exclude_index=exclude[qi : qi + 1])
            assert np.array_equal(idx[qi], one_idx[0])
            assert np.array_equal(dist[qi], one_dist[0])

    @settings(deadline=None)
    @given(st.data())
    def test_clusters_of_norms_far_below_the_largest_match_oracle(self, data):
        # tight clusters whose norms span 6 to 12 decades: within a cluster
        # the screen cancels like a common offset, and each query's one
        # allowance comes from the largest norm, far above its cluster's
        m = data.draw(st.integers(2, 300), label="archive rows")
        d = data.draw(st.integers(1, 8), label="dim")
        n_q = data.draw(st.integers(2, 8), label="queries")
        span = data.draw(st.floats(6.0, 12.0), label="decades of row norms")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n_clusters = data.draw(st.integers(2, 4), label="clusters")
        scales = 10.0 ** np.concatenate([[span / 2, -span / 2],
                                         rng.uniform(-span / 2, span / 2, n_clusters - 2)])
        centres = rng.normal(size=(n_clusters, d))

        def draw_rows(n):
            # coarse steps about a centre, so distances tie often
            c = rng.integers(0, n_clusters, size=n)
            c[:2] = [0, 1][:n]
            return scales[c, None] * (centres[c] + 1e-4 * rng.integers(0, 20, size=(n, d)))

        archive = draw_rows(m)
        archive[m - 1] = archive[m // 2]
        queries = draw_rows(n_q)
        # some queries are archive rows, their own row excluded or not
        own = rng.integers(0, m, size=n_q)
        is_row = rng.random(n_q) < 0.5
        queries[is_row] = archive[own[is_row]]
        exclude = [int(i) if r and rng.random() < 0.7 else None for i, r in zip(own, is_row)]
        usable = m - (1 if any(e is not None for e in exclude) else 0)
        k = data.draw(st.integers(1, min(30, usable)), label="k")
        block = data.draw(st.integers(1, n_q), label="queries per block")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval, "_SCREEN_VALUES", block * m)
            idx, dist = knn_retrieve(queries, archive, k, exclude_index=exclude)
        for qi in range(n_q):
            want_idx, want_dist = knn_oracle(queries[qi], archive, k, exclude[qi])
            assert np.array_equal(idx[qi], want_idx)
            assert np.array_equal(dist[qi], want_dist)

    def test_block_allocates_one_screen_and_its_partition(self):
        # 30 queries against 20,000 rows of 64: the screen and the copy
        # np.partition makes, plus per-row vectors and the candidate mask
        rng = seeded_rng(5)
        archive, queries = rng.normal(size=(20_000, 64)), rng.normal(size=(30, 64))
        tracemalloc.start()
        try:
            knn_retrieve(queries, archive, k=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 30 * 20_000 * 8


def knn_oracle(query, archive, k, exclude):
    """Stable argsort of per-row difference distances, the excluded row
    dropped. Each difference is measured at the power of two that brings its
    largest |entry| into [0.5, 1), so no square over- or underflows (the
    convention of ``test_similarity.rescaled_loop``)."""
    diff = archive - query
    exp = np.frexp(np.abs(diff).max(axis=1))[1]
    diff = np.ldexp(diff, -exp[:, None])
    dist = np.ldexp(np.sqrt(np.einsum("ij,ij->i", diff, diff)), exp)
    order = np.array([i for i in np.argsort(dist, kind="stable") if i != exclude][:k])
    return order, dist[order]


def pair_metrics_oracle(q, r):
    qs = {i for i, v in enumerate(q) if v}
    rs = {i for i, v in enumerate(r) if v}
    inter = len(qs & rs)
    acc = inter / len(qs | rs)
    prec = inter / len(rs)
    rec = inter / len(qs)
    f1 = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
    return acc, prec, rec, f1


class TestPairMetrics:
    def test_worked_example(self):
        # query labels {1, 2}, retrieved labels {1}
        got = pair_metrics([0, 1, 1], [0, 1, 0])
        assert got == (0.5, 1.0, 0.5, 2 / 3)

    def test_identical_label_sets_score_one(self):
        assert pair_metrics([1, 0, 1], [1, 0, 1]) == (1.0, 1.0, 1.0, 1.0)

    def test_disjoint_label_sets_score_zero(self):
        assert pair_metrics([1, 0, 0], [0, 1, 1]) == (0.0, 0.0, 0.0, 0.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pair_metrics([0, 0], [1, 0])

    def test_broadcasts_over_leading_axes(self):
        q = np.array([[0, 1, 1], [1, 0, 0]])
        r = np.array([[[0, 1, 0], [0, 1, 1]], [[1, 0, 1], [0, 1, 1]]])
        got = pair_metrics(q[:, None, :], r)
        assert all(m.shape == (2, 2) for m in got)
        for i in range(2):
            for j in range(2):
                assert tuple(m[i, j] for m in got) == pair_metrics(q[i], r[i, j])

    def test_label_axis_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            pair_metrics([[1, 0]], [[1, 0, 1]])

    @pytest.mark.parametrize("bad", [[2, 1], [0.5, 1], [-1, 1]])
    def test_non_binary_entries_rejected_on_either_side(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            pair_metrics(bad, [1, 1])
        with pytest.raises(ValueError, match="0 or 1"):
            pair_metrics([1, 1], bad)
        with pytest.raises(ValueError, match="0 or 1"):
            pair_metrics(np.array([[1, 0], [1, 1]])[:, None, :], np.array([[[1, 0]], [bad]]))

    @given(
        st.lists(st.integers(0, 1), min_size=5, max_size=5).filter(lambda v: sum(v) > 0),
        st.lists(st.integers(0, 1), min_size=5, max_size=5).filter(lambda v: sum(v) > 0),
    )
    def test_matches_set_oracle_and_harmonic_bounds(self, q, r):
        got = pair_metrics(q, r)
        assert got == pytest.approx(pair_metrics_oracle(q, r), abs=1e-15)
        acc, prec, rec, f1 = got
        assert all(0.0 <= v <= 1.0 for v in got)
        if prec > 0 and rec > 0:
            assert min(prec, rec) - 1e-12 <= f1 <= max(prec, rec) + 1e-12


def toy_samples(feats, labels, prefix):
    return SampleTable([f"{prefix}{i}" for i in range(len(feats))], np.asarray(feats, dtype=float), labels)


def joined(*tables):
    """One table holding the rows of ``tables`` in order."""
    return SampleTable([i for t in tables for i in t.ids], np.vstack([t.features for t in tables]),
                       np.vstack([t.labels for t in tables]))


def rebuilt(table):
    """A table of fresh contiguous copies of ``table``'s rows."""
    return SampleTable(table.ids, table.features.copy(), table.labels.copy())


def evaluate_oracle(net, queries, archive, k):
    """Full enumeration with python floats and explicit (distance, index) sorting."""
    q_emb = forward(net, queries.features)
    a_emb = forward(net, archive.features)
    per_query = []
    for qi, q_id in enumerate(queries.ids):
        pool = []
        for j, a_id in enumerate(archive.ids):
            if a_id == q_id:
                continue
            d = math.sqrt(sum((q_emb[qi][t] - a_emb[j][t]) ** 2 for t in range(q_emb.shape[1])))
            pool.append((d, j))
        pool.sort(key=lambda t: (t[0], t[1]))
        metrics = [pair_metrics_oracle(queries.labels[qi], archive.labels[j]) for _, j in pool[:k]]
        per_query.append([sum(col) / k for col in zip(*metrics)])
    return [sum(col) / len(per_query) for col in zip(*per_query)]


class TestEvaluate:
    def test_archive_of_query_copies_scores_one(self):
        # two well-separated queries, three distinct-id copies of each in the archive
        queries = toy_samples([[0.0, 0.0], [10.0, 10.0]], [[1, 0], [0, 1]], "q")
        archive = toy_samples(
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0], [10.0, 10.0]],
            [[1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]], "a")
        rep = evaluate(identity_net(2), queries, archive, k=3)
        assert rep == MetricReport(1.0, 1.0, 1.0, 1.0)

    def test_disjoint_labels_score_zero(self):
        queries = toy_samples([[0.0]], [[1, 0]], "q")
        archive = toy_samples([[1.0], [2.0]], [[0, 1], [0, 1]], "a")
        rep = evaluate(identity_net(1), queries, archive, k=2)
        assert rep == MetricReport(0.0, 0.0, 0.0, 0.0)

    def test_six_item_fixture_matches_exhaustive_oracle(self):
        rng = seeded_rng(9)
        net = Embedder.init([3, 4], rng)
        queries = toy_samples(rng.normal(size=(2, 3)), [[1, 1, 0], [0, 1, 1]], "q")
        archive = toy_samples(rng.normal(size=(6, 3)),
                              [[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 1, 1], [1, 0, 1], [0, 0, 1]], "a")
        rep = evaluate(net, queries, archive, k=3)
        expected = evaluate_oracle(net, queries, archive, k=3)
        assert rep.accuracy == pytest.approx(expected[0], abs=1e-12)
        assert rep.precision == pytest.approx(expected[1], abs=1e-12)
        assert rep.recall == pytest.approx(expected[2], abs=1e-12)
        assert rep.f1 == pytest.approx(expected[3], abs=1e-12)

    def test_query_in_archive_never_retrieves_itself(self):
        queries = toy_samples([[0.0]], [[1, 0]], "item")
        archive = toy_samples([[0.0], [1.0]], [[0, 1], [1, 0]], "item")
        # archive item0 shares the query's id and would otherwise win at distance 0
        rep = evaluate(identity_net(1), queries, archive, k=1)
        assert rep.f1 == 1.0

    def test_query_sharing_an_archive_id_skips_that_row(self):
        # query "a" sits on archive row "a"; k=2 must retrieve "b" and "c"
        queries = SampleTable(["a"], [[0.0]], [[1, 0]])
        archive = SampleTable(["a", "b", "c"], [[0.0], [1.0], [2.0]], [[1, 0], [1, 0], [0, 1]])
        rep = evaluate(identity_net(1), queries, archive, k=2)
        assert rep == MetricReport(0.5, 0.5, 0.5, 0.5)  # ("a", "b") would score 1.0

    def test_archive_permutation_invariance(self):
        rng = seeded_rng(10)
        net = Embedder.init([2, 3], rng)
        queries = toy_samples(rng.normal(size=(3, 2)), [[1, 0], [0, 1], [1, 1]], "q")
        feats = rng.normal(size=(8, 2))
        labels = [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]]
        archive = toy_samples(feats, labels, "a")
        rep1 = evaluate(net, queries, archive, k=4)
        order = rng.permutation(8)
        rep2 = evaluate(net, queries, archive[order], k=4)
        for v1, v2 in zip((rep1.accuracy, rep1.precision, rep1.recall, rep1.f1),
                          (rep2.accuracy, rep2.precision, rep2.recall, rep2.f1)):
            assert abs(v1 - v2) < 1e-12

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            archive = toy_samples([[0.0]], [[1]], "a")
            evaluate(identity_net(1), archive[:0], archive, 1)


def evaluate_without_memo(net, queries, archive, k):
    """``evaluate`` as it was before the archive memo: both splits embedded on every call."""
    q_emb = forward(net, queries.features)
    a_emb = forward(net, archive.features)
    archive_pos = {i: j for j, i in enumerate(archive.ids)}
    exclude = [archive_pos.get(i) for i in queries.ids]
    idxs, _ = knn_retrieve(q_emb, a_emb, k, exclude_index=exclude)
    q_labels = queries.labels[:, None, :]
    r_labels = np.array([[archive.labels[j] for j in row] for row in idxs])
    metrics = np.stack(pair_metrics(q_labels, r_labels), axis=-1)
    per_query = np.cumsum(metrics, axis=1)[:, -1] / k
    totals = np.cumsum(per_query, axis=0)[-1]
    return MetricReport(*(totals / len(queries)).tolist())


def random_split(rng, n, dim, n_classes, prefix):
    labels = rng.integers(0, 2, size=(n, n_classes))
    labels[np.arange(n), rng.integers(0, n_classes, size=n)] = 1
    return toy_samples(rng.normal(size=(n, dim)), labels, prefix)


class TestArchiveMemo:
    """``evaluate`` keeps nothing between calls: each one embeds both splits
    of what it is given, so no change to the net or the archive goes stale."""

    @pytest.fixture
    def forward_rows(self, monkeypatch):
        """Records the row count of every embedding up to the last hidden
        layer, the part of the forward every ``evaluate`` path runs."""
        rows = []
        real = embedder._hidden_cached

        def counting(net, features):
            rows.append(len(features))
            return real(net, features)

        monkeypatch.setattr(embedder, "_hidden_cached", counting)
        return rows

    @pytest.fixture
    def setup(self):
        rng = seeded_rng(21)
        net = Embedder.init([5, 7, 4], rng)
        queries = random_split(rng, 9, 5, 4, "q")
        archive = joined(random_split(rng, 40, 5, 4, "a"), queries[:3])  # three queries sit in the archive
        return net, queries, archive

    @pytest.mark.parametrize("change", ["adam_step", "one_ulp", "negative_zero", "archive_features",
                                        "l2_normalize", "other_archive"])
    def test_any_bit_change_recomputes(self, forward_rows, setup, change):
        net, queries, archive = setup
        evaluate(net, queries, archive, k=5)
        if change == "adam_step":
            params = parameters(net)
            grads = [seeded_rng(3).normal(size=p.shape) for p in params]
            adam_step(params, grads, init_adam(params), lr=1e-3)
        elif change == "one_ulp":
            net.weights[1][2, 3] = np.nextafter(net.weights[1][2, 3], np.inf)
        elif change == "negative_zero":
            assert net.biases[0][4] == 0.0
            net.biases[0][4] = -0.0
        elif change == "archive_features":
            archive.features[17, 2] += 0.25
        elif change == "l2_normalize":
            net.l2_normalize = True
        else:
            archive = archive[:-1]
        del forward_rows[:]
        warm = evaluate(net, queries, archive, k=5)
        # both splits, then (without l2) the archive's float32 screen candidates
        assert forward_rows[:2] == [9, len(archive)]
        assert warm == evaluate_without_memo(net, queries, archive, k=5)

    @pytest.mark.parametrize("change", ["adam_step", "one_ulp", "archive_features", "other_archive"])
    def test_any_bit_change_recomputes_the_float32_screen(self, monkeypatch, setup, change):
        # every call embeds the 9 queries in float64, the whole archive in
        # float32, then its candidates in float64
        calls, real = [], embedder._hidden_cached

        def recording(net, features):
            calls.append((len(features), net.weights[0].dtype.name))
            return real(net, features)

        monkeypatch.setattr(embedder, "_hidden_cached", recording)
        net, queries, archive = setup
        evaluate(net, queries, archive, k=5)
        if change == "adam_step":
            params = parameters(net)
            adam_step(params, [seeded_rng(3).normal(size=p.shape) for p in params], init_adam(params), lr=1e-3)
        elif change == "one_ulp":
            net.weights[1][2, 3] = np.nextafter(net.weights[1][2, 3], np.inf)
        elif change == "archive_features":
            archive.features[17, 2] += 0.25
        else:
            archive = archive[:-1]
        del calls[:]
        warm = evaluate(net, queries, archive, k=5)
        assert calls[:2] == [(9, "float64"), (len(archive), "float32")]
        assert len(calls) == 3 and calls[2][1] == "float64" and 5 <= calls[2][0] <= len(archive)
        assert warm == evaluate_without_memo(net, queries, archive, k=5)

    @pytest.mark.parametrize("l2", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_bit_identical_to_the_uncached_path(self, seed, l2):
        # without l2, [6, 8, 3] searches the rows h W and the narrower hidden
        # layers the rows h F, F the Cholesky factor of W W^T
        for dims in ([6, 8, 3], [6, 8, 20], [6, 10, 12, 40]):
            rng = seeded_rng(seed)
            net = Embedder.init(dims, rng, l2_normalize=l2)
            archive = random_split(rng, 120, 6, 5, "a")
            # duplicated rows, under their own ids, give distance ties
            archive = joined(archive, toy_samples(archive.features[:20], archive.labels[:20], "dup"))
            queries = joined(random_split(rng, 30, 6, 5, "q"), archive[40:50])
            # so do rows on a coarse grid
            grid = random_split(rng, 60, 6, 5, "grid")
            archive = joined(archive, toy_samples(np.round(grid.features, 1), grid.labels, "grid"))
            expected = evaluate_without_memo(net, queries, archive, k=12)
            assert evaluate(net, queries, archive, k=12) == expected  # cold
            assert evaluate(net, queries, archive, k=12) == expected  # warm

    def test_old_entry_dropped_before_a_failing_forward(self, forward_rows, setup):
        net, queries, archive = setup
        evaluate(net, queries, archive, k=5)
        wide = SampleTable([f"w{i}" for i in range(8)], np.zeros((8, 6)), [[1, 0, 0, 0]] * 8)
        with pytest.raises(ValueError, match="does not match input dim 5"):
            evaluate(net, queries, wide, k=5)


class TestHiddenWidthSearch:
    """``evaluate`` searches the rows ``h F`` (with ``l2_normalize`` the unit
    rows ``[h, 1] F``) and never the (M, d) embedding."""

    def test_never_runs_the_full_forward(self, monkeypatch):
        self.check_never_runs_the_full_forward(monkeypatch, l2=False)

    def test_l2_never_runs_the_full_forward(self, monkeypatch):
        self.check_never_runs_the_full_forward(monkeypatch, l2=True)

    @staticmethod
    def check_never_runs_the_full_forward(monkeypatch, l2):
        rng = seeded_rng(5)
        net = Embedder.init([6, 10, 30], rng, l2_normalize=l2)
        if l2:
            net.biases[-1] += rng.normal(size=30)
        queries, archive = random_split(rng, 20, 6, 4, "q"), random_split(rng, 80, 6, 4, "a")
        expected = evaluate_without_memo(net, queries, archive, k=7)

        def refuse(*args):
            raise AssertionError("evaluate embedded at the output width")

        # _forward_cached is the one path that embeds at the output width
        monkeypatch.setattr(embedder, "_forward_cached", refuse)
        assert evaluate(net, queries, archive, k=7) == expected

    def test_never_holds_an_archive_by_embedding_array(self):
        rng = seeded_rng(6)
        n_archive, d = 2000, 1024
        net = Embedder.init([8, 16, d], rng)
        labels = rng.integers(0, 2, size=(n_archive + 30, 4))
        labels[:, 0] = 1
        table = SampleTable([f"s{i}" for i in range(n_archive + 30)], rng.normal(size=(n_archive + 30, 8)), labels)
        queries, archive = table[:30], table[30:]
        tracemalloc.start()
        try:
            evaluate(net, queries, archive, k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (M, d) float64 array is 16.4 MB
        assert peak < n_archive * d * 8 / 4


def float64_rows_knn(net, queries, archive, k):
    """Indices and distances of a brute-force search of the float64
    ``forward`` rows, the rows ``evaluate`` ranks on, each split embedded
    in one call."""
    factor = embedder.distance_factor(net)
    q_rows, a_rows = (embedder.forward(net, t.features, factor) for t in (queries, archive))
    found = [knn_oracle(q_rows[i], a_rows, k, archive.row_of.get(qid)) for i, qid in enumerate(queries.ids)]
    return np.array([idx for idx, _ in found]), np.array([dist for _, dist in found])


def float64_rows_oracle(net, queries, archive, k):
    """``evaluate`` as ``float64_rows_knn``, with the report's summation order."""
    idxs = float64_rows_knn(net, queries, archive, k)[0]
    metrics = np.stack(pair_metrics(queries.labels[:, None, :], archive.labels[idxs]), axis=-1)
    per_query = np.cumsum(metrics, axis=1)[:, -1] / k
    totals = np.cumsum(per_query, axis=0)[-1]
    return MetricReport(*(totals / len(queries)).tolist())


def screen_case(rng, n_features, n_archive, n_queries, grid):
    """Archive and query tables over one feature family: duplicated rows,
    optionally a coarse grid, rows equal in float32 but distinct in float64,
    and queries that are archive rows under the archive's ids."""
    archive = random_split(rng, n_archive, n_features, 4, "a")
    if grid:
        archive.features[:] = np.round(archive.features * 2.0) / 2.0
    dup = min(3, n_archive // 2)
    archive.features[n_archive // 2:][:dup] = archive.features[:dup]
    archive.features[-1] = archive.features[0] * (1.0 + 2.0**-40)
    queries = random_split(rng, n_queries, n_features, 4, "q")
    return joined(queries, archive[: min(3, n_archive)]), archive


class TestFloat32Screen:
    """``evaluate`` screens the archive in float32 and ranks the candidates
    on their float64 rows; its reports are those of the float64 search.
    The screen is taken on any archive float32 can carry, however small."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reports_match_the_float64_search(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n_hidden = data.draw(st.integers(0, 2), label="hidden layers")
        hidden = [data.draw(st.sampled_from([3, 8, 96, 97, 120]), label="width") for _ in range(n_hidden)]
        dims = [data.draw(st.integers(1, 6), label="features"), *hidden,
                data.draw(st.sampled_from([2, 16, 100, 130]), label="d")]
        net = Embedder.init(dims, rng)
        # the output weights' scale decides float32 (within 2**40 of 1) or float64
        net.weights[-1] *= 10.0 ** data.draw(st.sampled_from([-30, -12, -3, 0, 3, 11, 13, 30, 150]), label="scale")
        n_archive = data.draw(st.integers(2, 40), label="archive rows")
        queries, archive = screen_case(rng, dims[0], n_archive, data.draw(st.integers(1, 6), label="queries"),
                                       data.draw(st.booleans(), label="grid"))
        k = data.draw(st.integers(1, n_archive - 1), label="k")
        assert evaluate(net, queries, archive, k) == float64_rows_oracle(net, queries, archive, k)

    @pytest.mark.parametrize("dims", [[6, 16], [6, 8, 100], [6, 96, 100], [6, 97, 130], [6, 10, 120, 40]])
    @pytest.mark.parametrize("scale", [1e-30, 1.0, 1e13, 1e150])
    def test_reports_match_the_d_wide_forward(self, dims, scale):
        rng = seeded_rng(170)
        net = Embedder.init(dims, rng)
        net.weights[-1] *= scale
        for grid in (False, True):
            queries, archive = screen_case(rng, dims[0], 120, 20, grid)
            assert evaluate(net, queries, archive, 9) == evaluate_without_memo(net, queries, archive, 9)

    @pytest.mark.parametrize("layers, exp", [("all", -332), ("all", -465), ("output", -531), ("output", -565)])
    def test_tiny_nets_report_as_the_unscaled_net(self, layers, exp):
        # every layer times 2**-332 (about 1e-100) or 2**-465 (1e-140) puts
        # the rows' squares, and their differences', below float64's normal
        # range; the output layer times 2**-531 (1e-160) or 2**-565 (1e-170)
        # puts W W^T there too, subnormal or zero. The distances are the
        # unscaled net's times a power of two
        rng = seeded_rng(171)
        net = Embedder.init([6, 16, 100], rng)
        for b in net.biases:
            b += rng.normal(size=b.shape)
        queries, archive = screen_case(rng, 6, 120, 20, False)
        want = evaluate(net, queries, archive, 9)
        for p in parameters(net) if layers == "all" else parameters(net)[-2:]:
            p[:] = np.ldexp(p, exp)
        assert evaluate(net, queries, archive, 9) == want

    @settings(deadline=None)
    @given(st.data())
    def test_screen_rows_within_row_error_match_the_oracle_on_exact_rows(self, data):
        # each screen row is its exact row moved by up to e, toward or away
        # from the first query, then rounded to float32; every row as near
        # as a query's k-th is still ranked on its exact row
        m = data.draw(st.integers(1, 30), label="archive rows")
        d = data.draw(st.integers(1, 6), label="dim")
        n_q = data.draw(st.integers(1, 5), label="queries")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        points = rng.normal(size=(m + n_q, d))
        if data.draw(st.booleans(), label="grid"):
            points = np.round(points * 2.0) / 2.0
        points[m - 1] = points[0]
        # 1e-30 screens at squares float32 flushes to 0, 1e25 at a scale 2**-s
        scale = data.draw(st.sampled_from([1.0, 1e-30, 1e25]), label="scale")
        archive, queries = scale * points[:m], scale * points[m:]
        step = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1]), label="relative error") * scale
        away = archive - queries[0]
        norms = np.linalg.norm(away, axis=1, keepdims=True)
        away = np.divide(away, norms, out=np.zeros_like(away), where=norms > 0)
        screen = (archive + step * rng.choice([-1.0, 1.0], size=(m, 1)) * away).astype(np.float32)
        row_error = np.linalg.norm(screen - archive, axis=1).max() * (1.0 + 1e-12)
        exclude = [data.draw(st.one_of(st.none(), st.integers(0, m - 1)), label="exclude") if m > 1 else None
                   for _ in range(n_q)]
        usable = m - (1 if any(e is not None for e in exclude) else 0)
        k = data.draw(st.integers(1, usable), label="k")
        calls = []

        def exact_rows(rows):
            calls.append(rows.tolist())
            return archive[rows]

        idx, dist = knn_retrieve(queries, screen, k, exclude, row_error, exact_rows)
        # one fetch of each candidate row, in index order: at least a query's k
        assert len(calls) == 1 and len(calls[0]) >= k and calls[0] == sorted(set(calls[0]))
        for qi in range(n_q):
            want_idx, want_dist = knn_oracle(queries[qi], archive, k, exclude[qi])
            assert np.array_equal(idx[qi], want_idx)
            assert np.array_equal(dist[qi], want_dist)

    @settings(deadline=None)
    @given(st.data())
    def test_float32_archive_with_a_common_offset_matches_the_oracle(self, data):
        # a float32 archive without exact rows is screened in float32 and
        # ranked on its own rows; the offset makes the screen cancel, so its
        # float32 rounding alone must be covered
        m = data.draw(st.integers(2, 25), label="archive rows")
        d = data.draw(st.integers(1, 4), label="dim")
        n_q = data.draw(st.integers(1, 4), label="queries")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        offset = data.draw(st.sampled_from([1e2, 1e3, -1e4]), label="offset")
        archive = (offset + 1e-2 * rng.integers(0, 8, size=(m, d))).astype(np.float32)
        archive[m - 1] = archive[0]
        queries = offset + 1e-2 * rng.integers(0, 8, size=(n_q, d)) + 1e-3 * rng.normal(size=(n_q, d))
        k = data.draw(st.integers(1, m), label="k")
        idx, dist = knn_retrieve(queries, archive, k)
        for qi in range(n_q):
            want_idx, want_dist = knn_oracle(queries[qi], archive.astype(np.float64), k, None)
            assert np.array_equal(idx[qi], want_idx)
            assert np.array_equal(dist[qi], want_dist)

    def test_archive_row_beyond_float32_falls_back_to_the_float64_search(self, monkeypatch):
        # one feature past float32's range overflows the float32 pass, so
        # the archive is screened and ranked on its float64 rows alone
        rng = seeded_rng(176)
        net = Embedder.init([6, 8, 20], rng)
        queries, archive = screen_case(rng, 6, 40, 5, False)
        archive.features[7, 2] = 1e39
        passes, searches = [], []
        real_hidden, real_search = embedder._hidden_cached, retrieval.knn_retrieve

        def hidden(net, features):
            passes.append(net.weights[0].dtype.name)
            return real_hidden(net, features)

        def search(q_rows, a_rows, k, exclude, row_error, exact_rows):
            searches.append((a_rows.dtype, row_error, exact_rows))
            return real_search(q_rows, a_rows, k, exclude, row_error, exact_rows)

        monkeypatch.setattr(embedder, "_hidden_cached", hidden)
        monkeypatch.setattr(retrieval, "knn_retrieve", search)
        report = evaluate(net, queries, archive, 9)
        assert passes == ["float64", "float32", "float64"]
        assert searches == [(np.float64, 0.0, None)]
        assert report == float64_rows_oracle(net, queries, archive, 9)

    def test_wide_layer_input_ranks_on_the_rows_of_one_float64_pass(self, monkeypatch):
        # the 512 hidden units feed the factor W, so each candidate's float64
        # row sums 512 products; fetched in a call of a few rows, it must keep
        # the bits of the archive's one pass
        rng = seeded_rng(190)
        net = Embedder.init([16, 512, 64], rng)
        queries, archive = random_split(rng, 2, 16, 4, "q"), random_split(rng, 10000, 16, 4, "a")
        found, real_search = [], retrieval.knn_retrieve

        def search(q_rows, a_rows, k, exclude, row_error, exact_rows):
            found.append((a_rows.dtype, real_search(q_rows, a_rows, k, exclude, row_error, exact_rows)))
            return found[-1][1]

        monkeypatch.setattr(retrieval, "knn_retrieve", search)
        evaluate(net, queries, archive, 10)
        [(dtype, (idx, dist))] = found
        want_idx, want_dist = float64_rows_knn(net, queries, archive, 10)
        assert dtype == np.float32
        assert np.array_equal(idx, want_idx) and dist.tobytes() == want_dist.tobytes()

    def test_one_candidate_is_fetched_alone(self):
        archive = np.array([[0.0, 1.0]])
        calls = []

        def exact_rows(rows):
            calls.append(rows.tolist())
            return archive[rows]

        idx, dist = knn_retrieve([[0.0, 0.0]], archive.astype(np.float32), 1, None, 0.0, exact_rows)
        assert calls == [[0]] and idx.tolist() == [[0]] and dist.tolist() == [[1.0]]

    def test_float32_archive_whose_products_overflow_float32_is_scaled(self):
        # every |a|^2 fits float32, but 2 q.a overflows it for the far rows
        # (|a| cos > 1.134e19): unscaled, they would screen at -inf and push
        # the near row, whose screen value is finite, out of the candidates
        def row(norm, cos):
            return norm * np.array([cos, np.sqrt(1.0 - cos**2), 0.0])

        archive = np.array([row(1.8e19, 0.7), row(1.5e19, 0.74), row(1.8e19, 0.71)], dtype=np.float32)
        idx, dist = knn_retrieve([[1.5e19, 0.0, 0.0]], archive, 1)
        want_idx, want_dist = knn_oracle(np.array([1.5e19, 0.0, 0.0]), archive.astype(np.float64), 1, None)
        assert want_idx.tolist() == [1]
        assert np.array_equal(idx[0], want_idx) and np.array_equal(dist[0], want_dist)

    @pytest.mark.parametrize("row_error", [-1.0, np.nan, np.inf])
    def test_row_error_must_be_finite_and_non_negative(self, row_error):
        with pytest.raises(ValueError, match="row_error"):
            knn_retrieve([[0.0]], np.zeros((2, 1), dtype=np.float32), 1, None, row_error)

    @pytest.mark.parametrize("screen_values", [40, 50])
    def test_pending_candidates_never_outgrow_a_screen(self, monkeypatch, screen_values):
        # a collapsed net makes every row a candidate: a block screens 2
        # queries against 20 rows, and its 40 pairs would take the pending
        # ones past the screen's size, so each block is ranked before the next
        monkeypatch.setattr(retrieval, "_SCREEN_VALUES", screen_values)
        archive = np.ones((20, 3))
        archive[::3] += 1e-9
        calls = []

        def exact_rows(rows):
            calls.append(len(rows))
            return archive[rows]

        queries = np.ones((5, 3))
        idx, dist = knn_retrieve(queries, archive.astype(np.float32), 4, None, 1e-6, exact_rows)
        assert calls == [20] * 3
        for qi in range(5):
            want_idx, want_dist = knn_oracle(queries[qi], archive, 4, None)
            assert np.array_equal(idx[qi], want_idx) and np.array_equal(dist[qi], want_dist)


class TestScreenPrecisionChoice:
    """``evaluate`` screens in float32 wherever float32 can carry the rows,
    whatever the archive's size."""

    def test_small_archive_takes_the_float32_screen(self, monkeypatch):
        # ablate's per-epoch scoring: 40 queries against 40 archive rows
        calls, real = [], embedder._hidden_cached

        def recording(net, features):
            calls.append(net.weights[0].dtype.name)
            return real(net, features)

        monkeypatch.setattr(embedder, "_hidden_cached", recording)
        rng = seeded_rng(180)
        net = Embedder.init([16, 64, 1024], rng)
        queries, archive = random_split(rng, 40, 16, 4, "q"), random_split(rng, 40, 16, 4, "a")
        report = evaluate(net, queries, archive, 10)
        assert calls == ["float64", "float32", "float64"]
        assert report == float64_rows_oracle(net, queries, archive, 10)

    def test_weights_float32_cannot_carry_skip_the_float32_pass(self, monkeypatch):
        # the first layer scaled by 1e13 casts to float32, but its norm is
        # above 2**40: the weights are tested before the pass, so the call
        # embeds the 30 queries and 20,000 archive rows once, in float64
        rows, real = [], embedder._hidden_cached

        def counting(net, features):
            rows.append((len(features), net.weights[0].dtype.name))
            return real(net, features)

        rng = seeded_rng(182)
        net = Embedder.init([128, 64, 1024], rng)
        net.weights[0] *= 1e13
        queries, archive = random_split(rng, 30, 128, 4, "q"), random_split(rng, 20000, 128, 4, "a")
        monkeypatch.setattr(embedder, "_hidden_cached", counting)
        evaluate(net, queries, archive, 30)
        assert {dtype for _, dtype in rows} == {"float64"} and sum(n for n, _ in rows) == 20030


def float32_twins(table):
    """The rows of ``table`` rounded to float32, as a float32 table and as
    the same values held in float64."""
    feats = table.features.astype(np.float32)
    return (SampleTable(table.ids, feats, table.labels),
            SampleTable(table.ids, feats.astype(np.float64), table.labels))


class TestFloat32Table:
    """A float32 feature table (a binary file's) is embedded from its float32
    values as they are stored: each float64 block widens them exactly, so
    every report is the one of the same values held in float64."""

    @pytest.mark.parametrize("l2", [False, True])
    @pytest.mark.parametrize("n_archive", [9999, 10000])
    def test_reports_bit_identical_to_the_float64_table(self, monkeypatch, n_archive, l2):
        calls, real = [], embedder._hidden_cached

        def recording(net, features):
            calls.append((len(features), net.weights[0].dtype.name))
            return real(net, features)

        monkeypatch.setattr(embedder, "_hidden_cached", recording)
        rng = seeded_rng(180)
        net = Embedder.init([5, 7, 4], rng, l2_normalize=l2)
        queries, archive = random_split(rng, 3, 5, 4, "q"), random_split(rng, n_archive, 5, 4, "a")
        (q32, q64), (a32, a64) = float32_twins(queries), float32_twins(archive)
        assert q32.features.dtype == a32.features.dtype == np.float32
        reports, paths = [], []
        for q, a in ((q32, a32), (q64, a64), (q32, a64), (q64, a32)):
            del calls[:]
            reports.append(np.array(astuple(evaluate(net, q, a, 4))).tobytes())
            paths.append(list(calls))
        assert reports == [reports[0]] * 4
        assert paths == [paths[0]] * 4
        screens = [dtype for rows, dtype in paths[0] if rows == n_archive]
        assert screens == ["float64" if l2 else "float32"]

    def test_float32_pass_reads_the_archive_as_stored(self, monkeypatch):
        seen, real = [], embedder._hidden_cached

        def recording(net, features):
            seen.append((net.weights[0].dtype, features))
            return real(net, features)

        monkeypatch.setattr(embedder, "_hidden_cached", recording)
        rng = seeded_rng(181)
        net = Embedder.init([5, 7, 4], rng)
        queries, archive = random_split(rng, 3, 5, 4, "q"), float32_twins(random_split(rng, 10000, 5, 4, "a"))[0]
        evaluate(net, queries, archive, 4)
        # the float32 pass embeds the stored matrix itself, not a copy
        dtype, block = seen[1]
        assert dtype == block.dtype == np.float32 and np.shares_memory(block, archive.features)


class TestEvaluateTable:
    @pytest.mark.parametrize("l2", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_table_and_sample_list_reports_bit_identical(self, monkeypatch, seed, l2):
        rng = seeded_rng(40 + seed)
        net = Embedder.init([6, 8, 3], rng, l2_normalize=l2)
        feats = np.round(rng.normal(size=(150, 6)), 1)  # a coarse grid gives distance ties
        labels = rng.integers(0, 2, size=(150, 5))
        labels[np.arange(150), rng.integers(0, 5, size=150)] = 1
        table = SampleTable([f"s{i}" for i in range(150)], feats, labels)
        # queries 100-129 are archive rows too; 20-39 sit at odd row offsets
        for q_rows, a_rows in ((slice(100, 150), slice(0, 130)), (slice(21, 40), slice(0, 150)),
                               (np.arange(149, 90, -3), np.arange(120))):
            queries, archive = table[q_rows], table[a_rows]
            # fresh contiguous copies of the sub-tables' rows must score the same
            from_lists = evaluate(net, rebuilt(queries), rebuilt(archive), k=9)
            cold = evaluate(net, queries, archive, k=9)
            warm = evaluate(net, queries, archive, k=9)
            assert cold == warm == from_lists == evaluate_without_memo(net, queries, archive, k=9)

    def test_mixed_table_and_list_arguments(self):
        queries = toy_samples([[0.0], [2.0]], [[1, 0], [0, 1]], "q")
        archive = toy_samples([[0.0], [1.0], [2.0]], [[1, 0], [1, 0], [0, 1]], "a")
        net = identity_net(1)
        expected = evaluate(net, queries, archive, k=1)
        assert evaluate(net, rebuilt(queries), archive, k=1) == expected
        assert evaluate(net, queries, rebuilt(archive), k=1) == expected

    def test_empty_table_rejected(self):
        archive = toy_samples([[0.0]], [[1]], "a")
        with pytest.raises(ValueError, match="nonempty"):
            evaluate(identity_net(1), archive[:0], archive, 1)


class TestReports:
    def test_default_k_rule(self):
        assert default_k(2100) == 10
        assert default_k(10_000) == 30

    def test_csv_and_table_formatting(self, tmp_path):
        rows = [("das-rhdis", MetricReport(0.568, 0.653, 0.700, 0.675))]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "method,accuracy,precision,recall,f1"
        assert text[1].startswith("das-rhdis,0.568")
        table = format_metric_table(rows)
        assert "Method" in table and "F1" in table
        assert "56.8" in table and "67.5" in table
