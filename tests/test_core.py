import numpy as np
import pytest

from tripmine.core import (
    BatchView,
    Sample,
    SampleTable,
    SamplerConfig,
    TripletSet,
    as_table,
    seeded_rng,
    validate_config,
)


class TestSeededRng:
    def test_identical_seeds_identical_streams(self):
        a = seeded_rng(42).random(100)
        b = seeded_rng(42).random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert seeded_rng(42).random() != seeded_rng(43).random()

    def test_seed_zero_is_ordinary(self):
        draws = seeded_rng(0).random(10)
        assert np.isfinite(draws).all()
        assert len(set(draws.tolist())) == 10


class TestSample:
    def test_labels_normalize_to_uint8(self):
        s = Sample(id="x", features=[0.0], labels=[1, 0, 1])
        assert s.labels.dtype == np.uint8
        assert s.labels.tolist() == [1, 0, 1]

    def test_rejects_non_binary_labels_naming_the_sample(self):
        with pytest.raises(ValueError, match="sample 'x': label entries must be 0 or 1"):
            Sample(id="x", features=[0.0], labels=[1, 2, 0])

    def test_rejects_all_zero_labels_naming_the_sample(self):
        with pytest.raises(ValueError, match="sample 'x' has no class labels"):
            Sample(id="x", features=[0.0], labels=[0, 0, 0])

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Sample(id="x", features=[1.0, np.inf], labels=[1, 0])

    def test_features_coerced_to_float64(self):
        s = Sample(id="x", features=[1, 2], labels=[0, 1])
        assert s.features.dtype == np.float64

    @pytest.mark.parametrize("features, labels", [
        ([[1.0, 2.0]], [1, 0]), ([1.0, 2.0], [[1, 0]]), (1.0, [1, 0]), ([1.0, 2.0], 1),
    ])
    def test_rejects_vectors_that_are_not_one_dimensional(self, features, labels):
        with pytest.raises(ValueError, match="sample 'x': features and labels must be one-dimensional"):
            Sample(id="x", features=features, labels=labels)


def small_table():
    feats = np.arange(12, dtype=np.float64).reshape(4, 3)
    labels = np.array([[1, 0], [0, 1], [1, 1], [0, 1]], dtype=np.uint8)
    return SampleTable(["a", "b", "c", "d"], feats, labels)


class TestSampleTable:
    def test_holds_ids_tuple_float64_features_uint8_labels(self):
        t = SampleTable(["a", "b"], [[1, 2], [3, 4]], [[1, 0], [1, 1]])
        assert t.ids == ("a", "b")
        assert t.features.dtype == np.float64 and t.features.shape == (2, 2)
        assert t.labels.dtype == np.uint8 and t.labels.tolist() == [[1, 0], [1, 1]]
        assert len(t) == 2

    def test_float64_features_are_the_callers_matrix(self):
        feats = np.zeros((2, 3))
        t = SampleTable(["a", "b"], feats, [[1], [1]])
        assert t.features is feats

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features_naming_the_sample(self, value):
        feats = np.zeros((3, 2))
        feats[1, 1] = value
        with pytest.raises(ValueError, match="sample 'b' has non-finite feature values"):
            SampleTable(["a", "b", "c"], feats, np.ones((3, 1)))

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
    def test_rejects_non_binary_labels_naming_the_sample(self, value):
        labels = np.ones((3, 2))
        labels[2, 0] = value
        with pytest.raises(ValueError, match="sample 'c': label entries must be 0 or 1"):
            SampleTable(["a", "b", "c"], np.zeros((3, 2)), labels)

    def test_rejects_all_zero_label_row_naming_the_sample(self):
        with pytest.raises(ValueError, match="sample 'b' has no class labels"):
            SampleTable(["a", "b"], np.zeros((2, 2)), [[0, 1], [0, 0]])

    @pytest.mark.parametrize("ids, n_feats, n_labels", [
        (["a", "b"], 3, 3), (["a", "b", "c"], 2, 3), (["a", "b", "c"], 3, 2),
    ])
    def test_rejects_row_count_mismatch(self, ids, n_feats, n_labels):
        with pytest.raises(ValueError, match="rows differ"):
            SampleTable(ids, np.zeros((n_feats, 2)), np.ones((n_labels, 2)))

    def test_rejects_non_matrix_columns(self):
        with pytest.raises(ValueError, match="must be matrices"):
            SampleTable(["a"], np.zeros(2), np.ones((1, 2)))
        with pytest.raises(ValueError, match="must be matrices"):
            SampleTable(["a"], np.zeros((1, 2)), np.ones(2))

    def test_int_index_gives_a_sample_viewing_the_row(self):
        t = small_table()
        s = t[2]
        assert isinstance(s, Sample)
        assert s.id == "c" and s.features.tolist() == [6.0, 7.0, 8.0] and s.labels.tolist() == [1, 1]
        assert t[-1].id == "d" and t[np.int64(1)].id == "b"
        s.features[0] = -1.0
        assert t.features[2, 0] == -1.0

    def test_slice_gives_a_sub_table_view(self):
        t = small_table()
        sub = t[1:3]
        assert isinstance(sub, SampleTable)
        assert sub.ids == ("b", "c")
        assert np.shares_memory(sub.features, t.features)
        assert sub.labels.tolist() == [[0, 1], [1, 1]]

    @pytest.mark.parametrize("rows", [[3, 0, 2], np.array([3, 0, 2]), np.array([3, 0, 2], dtype=np.uint8)])
    def test_index_array_gives_a_sub_table(self, rows):
        t = small_table()
        sub = t[rows]
        assert sub.ids == ("d", "a", "c")
        assert sub.features.tolist() == [[9, 10, 11], [0, 1, 2], [6, 7, 8]]
        assert sub.labels.tolist() == [[0, 1], [1, 0], [1, 1]]

    def test_empty_index_gives_an_empty_table(self):
        sub = small_table()[[]]
        assert len(sub) == 0 and sub.features.shape == (0, 3) and sub.labels.shape == (0, 2)

    @pytest.mark.parametrize("key", [np.array([True, False, True, False]), np.array([[0, 1]]), [0.0, 1.0]])
    def test_rejects_boolean_float_and_2d_indices(self, key):
        with pytest.raises(TypeError, match="index a sample table"):
            small_table()[key]

    def test_iteration_and_from_samples_round_trip(self):
        t = small_table()
        samples = list(t)
        assert [s.id for s in samples] == list(t.ids)
        back = SampleTable.from_samples(samples)
        assert back.ids == t.ids
        assert np.array_equal(back.features, t.features) and np.array_equal(back.labels, t.labels)
        assert as_table(t) is t
        assert as_table(samples).ids == t.ids
        with pytest.raises(ValueError, match="at least one sample"):
            SampleTable.from_samples([])

    def test_repeated_ids_rejected_naming_the_first(self):
        assert SampleTable(["a", "b", "c"], np.zeros((3, 1)), np.ones((3, 1))).row_of == {"a": 0, "b": 1, "c": 2}
        with pytest.raises(ValueError, match="sample id 'a' is repeated"):
            SampleTable(["a", "b", "b", "a"], np.zeros((4, 1)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="'b' is repeated"):
            small_table()[[0, 1, 1]]


class TestValidateConfig:
    def test_ten_percent_fraction_gives_ten_anchors(self):
        cfg = SamplerConfig(anchor_fraction=0.1, positives_per_anchor=3, negatives_per_anchor=3)
        assert validate_config(cfg, batch_size=100) is cfg
        assert cfg.num_anchors(100) == 10

    def test_anchor_count_rounds_up(self):
        assert SamplerConfig(anchor_fraction=0.1).num_anchors(25) == 3
        assert SamplerConfig(anchor_fraction=1.0).num_anchors(7) == 7
        assert SamplerConfig(anchor_fraction=0.05).num_anchors(10) == 1

    def test_rejects_count_exceeding_batch(self):
        cfg = SamplerConfig(positives_per_anchor=4, negatives_per_anchor=4)
        with pytest.raises(ValueError, match="batch size"):
            validate_config(cfg, batch_size=4)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError, match="beta"):
            validate_config(SamplerConfig(beta=1.2), batch_size=100)

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            validate_config(SamplerConfig(gamma=-0.1), batch_size=100)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            validate_config(SamplerConfig(positives_per_anchor=0), batch_size=100)

    def test_rejects_joint_overflow_for_disjoint_strategies(self):
        cfg = SamplerConfig(positives_per_anchor=3, negatives_per_anchor=3)
        with pytest.raises(ValueError, match="positives \\+ negatives"):
            validate_config(cfg, batch_size=6)

    def test_rejects_bis_with_paired_combination(self):
        cfg = SamplerConfig(anchor_strategy="bas", image_strategy="bis", combination="paired")
        with pytest.raises(ValueError, match="paired"):
            validate_config(cfg, batch_size=16)

    def test_rejects_triplet_count_over_limit(self):
        cfg = SamplerConfig(anchor_strategy="bas", image_strategy="bis")
        assert validate_config(cfg, batch_size=256) is cfg  # 256 * 255 * 255 triplets
        with pytest.raises(ValueError, match="triplets per batch"):
            validate_config(cfg, batch_size=257)  # 257 * 256 * 256 > 2**24

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="anchor strategy"):
            validate_config(SamplerConfig(anchor_strategy="magic"), batch_size=10)


class TestBatchView:
    def test_from_embeddings_builds_both_distance_matrices(self):
        rng = seeded_rng(3)
        emb = rng.normal(size=(5, 2))
        labels = np.eye(5, 4, dtype=np.uint8)
        labels[:, 0] = 1
        bv = BatchView.from_embeddings(np.arange(5), emb, labels)
        assert bv.size == 5
        assert bv.dist_raw.shape == (5, 5)
        assert np.all(np.diagonal(bv.dist_norm) == 0)
        off = ~np.eye(5, dtype=bool)
        assert bv.dist_norm[off].min() == 0.0
        assert bv.dist_norm[off].max() == 1.0


class TestTripletSet:
    def test_len_counts_triples(self):
        ts = TripletSet.from_triplets(np.array([[0, 1, 2], [0, 2, 1]]))
        assert len(ts) == 2
        assert ts.anchors.tolist() == [0, 0]
        assert ts.triplets.tolist() == [[0, 1, 2], [0, 2, 1]]

    def test_from_triplets_is_the_paired_block_of_one(self):
        t = np.array([[4, 1, 1], [0, 2, 3], [4, 1, 1]])
        ts = TripletSet.from_triplets(t)
        assert ts.keep.shape == (3, 1) and ts.keep.all()
        assert len(ts) == 3
        assert ts.triplets.tolist() == t.tolist()

    @pytest.mark.parametrize("empty", [[], np.empty((0, 3)), np.empty((0,))])
    def test_from_triplets_empty(self, empty):
        ts = TripletSet.from_triplets(empty)
        assert len(ts) == 0
        assert ts.triplets.shape == (0, 3) and ts.triplets.dtype == np.int64

    @pytest.mark.parametrize("bad", [[0, 1, 2], [[0, 1]], [[[0, 1, 2]]]])
    def test_from_triplets_rejects_other_shapes(self, bad):
        with pytest.raises(ValueError, match=r"\(T, 3\)"):
            TripletSet.from_triplets(np.array(bad))

    def test_cartesian_block_counts_its_mask(self):
        keep = np.array([[[True, False], [True, True]]])
        ts = TripletSet(anchors=np.array([7]), positives=np.array([[1, 2]]),
                        negatives=np.array([[1, 3]]), keep=keep)
        assert len(ts) == 3
        assert ts.triplets.tolist() == [[7, 1, 1], [7, 2, 1], [7, 2, 3]]

    def test_paired_block_reads_the_first_t_of_each(self):
        # three positives and two negatives pair by rank over the first two
        ts = TripletSet(anchors=np.array([0, 5]), positives=np.array([[1, 2, 3], [6, 7, 8]]),
                        negatives=np.array([[4, 2], [9, 1]]), keep=np.array([[True, False], [True, True]]))
        assert len(ts) == 3
        assert ts.triplets.tolist() == [[0, 1, 4], [5, 6, 9], [5, 7, 1]]
