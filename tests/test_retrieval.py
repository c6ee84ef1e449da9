import math
import tracemalloc
import warnings

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
    return Embedder(layer_dims=(d, d), weights=[np.eye(d)], biases=[np.zeros(d)])


class TestKnnRetrieve:
    def test_exact_duplicate_ranks_first_with_zero_distance(self):
        archive = np.array([[5.0, 5.0], [1.0, 2.0], [9.0, 0.0]])
        idx, dist = knn_retrieve([1.0, 2.0], archive, k=2)
        assert idx[0] == 1
        assert dist[0] == 0.0

    def test_one_dimensional_hand_example(self):
        archive = np.array([[0.0], [1.0], [5.0]])
        idx, dist = knn_retrieve([0.9], archive, k=2)
        assert idx.tolist() == [1, 0]
        assert np.all(np.diff(dist) >= 0)

    def test_full_k_gives_permutation(self):
        rng = seeded_rng(1)
        archive = rng.normal(size=(7, 3))
        idx, _ = knn_retrieve(rng.normal(size=3), archive, k=7)
        assert sorted(idx.tolist()) == list(range(7))

    def test_ties_break_to_lowest_index(self):
        archive = np.array([[1.0], [-1.0], [1.0]])
        idx, _ = knn_retrieve([0.0], archive, k=3)
        assert idx.tolist() == [0, 1, 2]

    def test_subnormal_ties_break_to_lowest_index(self):
        # both rows are 1e-161 away; the squares are subnormal, where the
        # screen's rounding error is absolute rather than relative
        archive = np.array([[-2e-161], [0.0]])
        idx, dist = knn_retrieve([-1e-161], archive, k=1)
        want_idx, want_dist = knn_oracle(np.array([-1e-161]), archive, 1, None)
        assert idx.tolist() == want_idx.tolist() == [0]
        assert np.array_equal(dist, want_dist)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k="):
            knn_retrieve([0.0], np.zeros((3, 1)), k=4)

    def test_exclusion_reduces_capacity(self):
        archive = np.zeros((3, 1))
        with pytest.raises(ValueError, match="k="):
            knn_retrieve([0.0], archive, k=3, exclude_index=0)
        idx, _ = knn_retrieve([0.0], archive, k=2, exclude_index=0)
        assert 0 not in idx.tolist()

    def test_exclude_indices_must_match_queries_and_archive(self):
        archive = np.zeros((3, 1))
        with pytest.raises(ValueError, match="exclude indices for 2 queries"):
            knn_retrieve(np.zeros((2, 1)), archive, k=1, exclude_index=[0])
        with pytest.raises(ValueError, match="exclude indices must lie"):
            knn_retrieve([0.0], archive, k=1, exclude_index=3)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["query", "archive"])
    def test_non_finite_embeddings_rejected(self, side, bad_value):
        query, archive = np.zeros(2), np.zeros((3, 2))
        (query if side == "query" else archive)[1] = bad_value
        with pytest.raises(ValueError, match=f"{side} embeddings"):
            knn_retrieve(query, archive, k=1)

    @pytest.mark.parametrize("side", ["query", "archive"])
    def test_finite_huge_entries_are_searched(self, side):
        # 1e200 squared overflows float64, but the rows are finite and are
        # ranked like their 2**-600 scaled copies, which do not overflow
        query, archive = np.zeros(2), np.zeros((3, 2))
        (query if side == "query" else archive)[1] = 1e200
        want_idx, want_dist = knn_oracle(np.ldexp(query, -600), np.ldexp(archive, -600), 3, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, dist = knn_retrieve(query, archive, k=3)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, np.ldexp(want_dist, 600))
        assert np.all(np.isfinite(dist)) and dist.max() >= 1e200

    def test_rows_whose_squares_overflow_rank_as_unscaled(self):
        # at 2**600 every squared norm and squared distance overflows float64,
        # while the distances themselves are representable
        rng = seeded_rng(4)
        archive = rng.normal(size=(40, 5))
        archive[30:] = archive[:10]
        queries = np.vstack([rng.normal(size=(6, 5)), archive[3:5]])
        exclude = [None] * 6 + [3, 4]
        want_idx, want_dist = knn_retrieve(queries, archive, 9, exclude_index=exclude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, dist = knn_retrieve(np.ldexp(queries, 600), np.ldexp(archive, 600), 9, exclude_index=exclude)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, np.ldexp(want_dist, 600))

    def test_small_differences_beside_huge_entries_stay_exact(self):
        # the first column's 2**600 forces a scaled screen; the pairs differ
        # only in the second, by amounts whose squares vanish at that scale
        # but not at scale 1
        small = np.ldexp(np.array([5.0, 0.0, 3.0, 1.0, 4.0]), -450)
        archive = np.column_stack([np.full(5, 2.0**600), small])
        archive = np.vstack([archive, [-(2.0**600), 0.0]])
        query = np.array([2.0**600, 0.0])
        idx, dist = knn_retrieve(query, archive, k=6)
        want_idx, want_dist = knn_oracle(query, archive, 5, None)
        assert idx[:5].tolist() == want_idx.tolist() == [1, 3, 2, 4, 0]
        assert np.array_equal(dist[:5], want_dist)
        # the last row is 2**601 away: its squared distance overflows, its distance does not
        assert idx[5] == 5 and dist[5] == 2.0**601

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
        idx, dist = knn_retrieve(query, archive, k=5)
        assert idx.tolist() == want_idx.tolist() == [8, 12, 9, 0, 5]
        assert np.array_equal(dist, want_dist)

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
        for qi, query in enumerate(queries):
            one_idx, one_dist = knn_retrieve(query, archive, k=12, exclude_index=exclude[qi])
            assert np.array_equal(idx[qi], one_idx)
            assert np.array_equal(dist[qi], one_dist)

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
    """Stable argsort of per-row difference distances, the excluded row dropped."""
    diff = archive - query
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
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
        assert forward_rows == [9, len(archive)]
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
    """Without ``l2_normalize``, ``evaluate`` searches the rows ``h F`` and
    never the (M, d) embedding."""

    def test_never_runs_the_full_forward(self, monkeypatch):
        rng = seeded_rng(5)
        net = Embedder.init([6, 10, 30], rng)
        queries, archive = random_split(rng, 20, 6, 4, "q"), random_split(rng, 80, 6, 4, "a")
        expected = evaluate_without_memo(net, queries, archive, k=7)

        def refuse(*args):
            raise AssertionError("evaluate embedded at the output width")

        monkeypatch.setattr(embedder, "forward", refuse)
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
