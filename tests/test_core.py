import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripmine import core
from tripmine.core import (
    ANCHOR_STRATEGIES,
    IMAGE_STRATEGIES,
    BatchView,
    SampleTable,
    SamplerConfig,
    TripletSet,
    seeded_rng,
    validate_config,
)
from tripmine.sampler import mine_batch
from tripmine.similarity import minmax_normalize, pairwise_euclidean


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

    def test_float32_features_are_kept_by_the_table_and_its_sub_tables(self):
        feats = np.arange(12, dtype=np.float32).reshape(4, 3)
        t = SampleTable(["a", "b", "c", "d"], feats, [[1]] * 4)
        assert t.features is feats
        for sub in (t[1:3], t[np.array([3, 0])], t[[]]):
            assert sub.features.dtype == np.float32
        assert np.shares_memory(t[1:3].features, feats)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float16, ">f4"])
    def test_other_feature_types_become_float64(self, dtype):
        feats = np.arange(6).astype(dtype).reshape(2, 3)
        t = SampleTable(["a", "b"], feats, [[1], [1]])
        assert t.features.dtype == np.float64 and t.features.tolist() == feats.tolist()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features_naming_the_sample(self, value):
        feats = np.zeros((3, 2))
        feats[1, 1] = value
        with pytest.raises(ValueError, match="sample 'b' has non-finite feature values"):
            SampleTable(["a", "b", "c"], feats, np.ones((3, 1)))

    @pytest.mark.parametrize("block", [1, 24, 1 << 20])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [0, 2, 3, 6])
    def test_the_block_by_block_finite_test_names_the_first_bad_row(self, monkeypatch, block, dtype, row):
        # 24 bytes hold one float64 row of 3 values or two float32 rows
        monkeypatch.setattr(core, "_READ_BLOCK_BYTES", block)
        feats = np.zeros((7, 3), dtype=dtype)
        feats[row, 2] = np.nan
        feats[6, 0] = np.inf
        with pytest.raises(ValueError, match=f"sample '{'abcdefg'[row]}' has non-finite feature values"):
            SampleTable(list("abcdefg"), feats, np.ones((7, 1)))

    def test_the_finite_test_holds_one_block_of_flags(self):
        feats = np.zeros((20_000, 128))
        tracemalloc.start()
        try:
            assert core._first_non_finite_row(feats) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < core._READ_BLOCK_BYTES  # a mask of the matrix is 2.5 MB

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

    def test_int_index_and_iteration_raise_type_error(self):
        # a table has columns, not per-sample items; iteration falls back to t[0]
        t = small_table()
        for key in (2, -1, np.int64(1)):
            with pytest.raises(TypeError, match="index a sample table"):
                t[key]
        with pytest.raises(TypeError, match="index a sample table"):
            list(t)

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

    def test_rejects_triplet_count_over_limit(self):
        cfg = SamplerConfig(anchor_strategy="bas", image_strategy="bis")
        assert validate_config(cfg, batch_size=256) is cfg  # 256 * 255 * 255 triplets
        with pytest.raises(ValueError, match="triplets per batch"):
            validate_config(cfg, batch_size=257)  # 257 * 256 * 256 > 2**24

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="anchor strategy"):
            validate_config(SamplerConfig(anchor_strategy="magic"), batch_size=10)

    @pytest.mark.parametrize("field, value, message", [
        ("image_strategy", "all", "unknown image strategy 'all'"),
        ("anchor_fraction", 0.0, "anchor_fraction must be in (0, 1], got 0.0"),
        ("anchor_fraction", 1.5, "anchor_fraction must be in (0, 1], got 1.5"),
        ("anchor_fraction", float("nan"), "anchor_fraction must be in (0, 1], got nan"),
    ])
    def test_rejects_unknown_names_and_fractions_outside_the_unit_interval(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_config(SamplerConfig(**{field: value}), batch_size=100)

    @pytest.mark.parametrize("anchor, image", [("das", "rhdis"), ("ras", "rhdis"), ("ras", "ris"),
                                               ("ras", "bis"), ("das", "bis")])
    def test_rejects_an_anchor_fraction_that_selects_no_anchor(self, anchor, image):
        cfg = SamplerConfig(anchor_strategy=anchor, image_strategy=image, anchor_fraction=1e-12)
        with pytest.raises(ValueError, match="anchor_fraction 1e-12 selects no anchor from a batch of 100"):
            validate_config(cfg, batch_size=100)
        assert cfg.num_anchors(100) == 0

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_rejects_bis_below_batch_three(self, batch_size):
        cfg = SamplerConfig(anchor_strategy="bas", image_strategy="bis", positives_per_anchor=1,
                            negatives_per_anchor=1)
        with pytest.raises(ValueError, match=f"bis needs a batch size of at least 3 to mine a triplet, got {batch_size}"):
            validate_config(cfg, batch_size)

    @pytest.mark.parametrize("counts", [(3, 3), (0, 0), (-1, 7)])
    def test_bis_reads_no_per_anchor_counts(self, counts):
        cfg = SamplerConfig(anchor_strategy="bas", image_strategy="bis", positives_per_anchor=counts[0],
                            negatives_per_anchor=counts[1])
        assert validate_config(cfg, batch_size=3) is cfg


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_accepted_configuration_mines_a_triplet(data):
    b = data.draw(st.integers(2, 30), label="batch size")
    cfg = SamplerConfig(
        anchor_strategy=data.draw(st.sampled_from(ANCHOR_STRATEGIES), label="anchors"),
        image_strategy=data.draw(st.sampled_from(IMAGE_STRATEGIES), label="images"),
        anchor_fraction=data.draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                                            st.sampled_from([1e-12, 0.5 / b, 1.0 / b])), label="fraction"),
        positives_per_anchor=data.draw(st.integers(0, b), label="positives"),
        negatives_per_anchor=data.draw(st.integers(0, b), label="negatives"),
    )
    try:
        validate_config(cfg, b)
    except ValueError:
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    labels = rng.integers(0, 2, size=(b, 5), dtype=np.uint8)
    labels[:, 0] |= ~labels.any(axis=1)
    batch = BatchView.from_embeddings(np.arange(b), rng.normal(size=(b, 4)), labels)
    assert len(mine_batch(batch, cfg, rng)) >= 1


class TestBatchView:
    def test_from_embeddings_builds_the_raw_distance_matrix(self):
        rng = seeded_rng(3)
        emb = rng.normal(size=(5, 2))
        labels = np.eye(5, 4, dtype=np.uint8)
        labels[:, 0] = 1
        bv = BatchView.from_embeddings(np.arange(5), emb, labels)
        # the normalized matrix is the sampler's to build, where it scores with it
        assert [f.name for f in fields(BatchView)] == ["sample_indices", "labels", "dist_raw"]
        assert bv.size == 5
        assert bv.dist_raw.tobytes() == pairwise_euclidean(emb).tobytes()
        dist_norm = minmax_normalize(bv.dist_raw)
        assert np.all(np.diagonal(dist_norm) == 0)
        off = ~np.eye(5, dtype=bool)
        assert dist_norm[off].min() == 0.0
        assert dist_norm[off].max() == 1.0


class TestTripletSet:
    def test_len_counts_triples(self):
        ts = TripletSet.from_triplets(np.array([[0, 1, 2], [0, 2, 1]]))
        assert len(ts) == 2
        assert ts.anchors.tolist() == [0, 0]
        assert ts.triplets.tolist() == [[0, 1, 2], [0, 2, 1]]

    def test_from_triplets_is_the_paired_block_of_one(self):
        t = np.array([[4, 1, 1], [0, 2, 3], [4, 1, 1]])
        ts = TripletSet.from_triplets(t)
        assert ts.keep.shape == (3, 1, 1) and ts.keep.all()
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
