import struct

import numpy as np
import pytest

from tripmine.core import seeded_rng
from tripmine.data import (
    FEATURES_MAGIC,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    read_features_binary,
    split_dataset,
    synthetic_prototypes,
    write_dataset,
    write_features_binary,
)


def write_toy_files(tmp_path, features_rows, labels_rows, labels_header="id,water,forest"):
    fpath = tmp_path / "features.csv"
    lpath = tmp_path / "labels.csv"
    fpath.write_text("\n".join(features_rows) + "\n")
    lpath.write_text("\n".join([labels_header] + labels_rows) + "\n")
    return fpath, lpath


class TestLoadDataset:
    def test_three_row_toy_pair(self, tmp_path):
        fpath, lpath = write_toy_files(
            tmp_path,
            ["a,0.5,1.5", "b,2.0,3.0", "c,-1.0,0.0"],
            ["a,1,0", "b,0,1", "c,1,1"],
        )
        ds = load_dataset(fpath, lpath)
        assert len(ds.samples) == 3
        assert ds.n_features == 2
        assert ds.n_classes == 2
        assert ds.class_names == ["water", "forest"]
        assert ds.samples[1].id == "b"
        assert ds.samples[2].labels.tolist() == [1, 1]

    def test_features_header_row_is_skipped(self, tmp_path):
        fpath, lpath = write_toy_files(
            tmp_path,
            ["id,f0,f1", "a,0.5,1.5", "b,2.0,3.0"],
            ["a,1,0", "b,0,1"],
        )
        ds = load_dataset(fpath, lpath)
        assert len(ds.samples) == 2

    def test_all_zero_label_row_rejected(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0"], ["a,0,0"])
        with pytest.raises(ValueError, match="'a' has no class labels"):
            load_dataset(fpath, lpath)

    def test_feature_id_missing_in_labels_names_id(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0", "zz,3.0,4.0"], ["a,1,0"])
        with pytest.raises(ValueError, match="'zz' present in features but not labels"):
            load_dataset(fpath, lpath)

    def test_label_id_missing_in_features_rejected(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0"], ["a,1,0", "b,0,1"])
        with pytest.raises(ValueError, match="'b' present in labels but not features"):
            load_dataset(fpath, lpath)

    def test_ragged_feature_row_rejected(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0", "b,3.0"], ["a,1,0", "b,0,1"])
        with pytest.raises(ValueError, match="ragged"):
            load_dataset(fpath, lpath)

    def test_non_binary_label_rejected(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0"], ["a,2,0"])
        with pytest.raises(ValueError, match="non-binary"):
            load_dataset(fpath, lpath)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_csv_feature_names_file_row_and_id(self, tmp_path, cell):
        fpath, lpath = write_toy_files(tmp_path, ["id,f0,f1", "a,1.0,2.0", f"b,3.0,{cell}"],
                                       ["a,1,0", "b,0,1"])
        with pytest.raises(ValueError, match=r"features\.csv: non-finite feature value in row 3 \(id 'b'\)"):
            load_dataset(fpath, lpath)


class TestRoundTrip:
    def test_csv_round_trip_is_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_samples=20, seed=5))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        write_dataset(ds, fpath, lpath)
        back = load_dataset(fpath, lpath)
        assert back.class_names == ds.class_names
        for s1, s2 in zip(ds.samples, back.samples):
            assert s1.id == s2.id
            assert np.max(np.abs(s1.features - s2.features)) < 1e-12
            assert np.array_equal(s1.labels, s2.labels)

    def test_binary_features_round_trip(self, tmp_path):
        rng = seeded_rng(6)
        feats = rng.normal(size=(5, 3))
        path = tmp_path / "features.bin"
        write_features_binary(path, feats)
        back = read_features_binary(path)
        assert back.shape == (5, 3)
        assert np.max(np.abs(back - feats)) < 1e-6  # float32 payload

    def test_binary_features_join_positionally(self, tmp_path):
        rng = seeded_rng(7)
        feats = rng.normal(size=(2, 3))
        fpath = tmp_path / "features.bin"
        write_features_binary(fpath, feats)
        lpath = tmp_path / "labels.csv"
        lpath.write_text("id,c0,c1\nx,1,0\ny,0,1\n")
        ds = load_dataset(fpath, lpath)
        assert [s.id for s in ds.samples] == ["x", "y"]

    def test_binary_row_count_mismatch_rejected(self, tmp_path):
        fpath = tmp_path / "features.bin"
        write_features_binary(fpath, np.zeros((3, 2)))
        lpath = tmp_path / "labels.csv"
        lpath.write_text("id,c0\nx,1\n")
        with pytest.raises(ValueError, match="pair by position"):
            load_dataset(fpath, lpath)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_binary_feature_names_file_and_row(self, tmp_path, value):
        feats = np.zeros((3, 2))
        feats[1, 0] = value
        fpath = tmp_path / "features.bin"
        write_features_binary(fpath, feats)
        lpath = tmp_path / "labels.csv"
        lpath.write_text("id,c0\nx,1\ny,1\nz,1\n")
        with pytest.raises(ValueError, match=r"features\.bin: non-finite feature value in row 2 of 3"):
            load_dataset(fpath, lpath)

    @pytest.mark.parametrize("header, message", [
        (b"", "header is cut off"),
        (b"\x02\x00", "header is cut off"),
        (b"\x02\x00\x00\x00\x01\x00\x00", "header is cut off"),
        (struct.pack("<2I", 0, 2), "header declares 0 rows of 2 features"),
        (struct.pack("<2I", 2, 0), "header declares 2 rows of 0 features"),
    ])
    def test_incomplete_or_empty_binary_header_rejected(self, tmp_path, header, message):
        fpath = tmp_path / "features.bin"
        fpath.write_bytes(FEATURES_MAGIC + header)
        lpath = tmp_path / "labels.csv"
        lpath.write_text("id,c0\nx,1\ny,1\n")
        with pytest.raises(ValueError, match=rf"features\.bin: {message}"):
            load_dataset(fpath, lpath)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"WRONG!!!" + b"\x00" * 8)
        with pytest.raises(ValueError, match="bad magic"):
            read_features_binary(path)


class TestSplitDataset:
    def test_sixty_twenty_twenty_fractions(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=10, seed=8))
        out = split_dataset(ds, (0.6, 0.2, 0.2), seeded_rng(0))
        assert len(out.train_idx) == 6
        assert len(out.val_idx) == 2
        assert len(out.test_idx) == 2

    def test_seeded_split_reproducible(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=30, seed=9))
        a = split_dataset(ds, (0.6, 0.2, 0.2), seeded_rng(1))
        b = split_dataset(ds, (0.6, 0.2, 0.2), seeded_rng(1))
        assert a.train_idx == b.train_idx
        assert a.val_idx == b.val_idx
        assert a.test_idx == b.test_idx

    def test_splits_disjoint_and_in_range(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=31, seed=10))
        out = split_dataset(ds, (0.5, 0.25, 0.25), seeded_rng(2))
        all_idx = out.train_idx + out.val_idx + out.test_idx
        assert len(all_idx) == len(set(all_idx)) == 31
        assert min(all_idx) >= 0 and max(all_idx) < 31

    def test_invalid_fractions_rejected(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=10, seed=11))
        with pytest.raises(ValueError, match="fractions"):
            split_dataset(ds, (0.8, 0.3, 0.2), seeded_rng(0))
        with pytest.raises(ValueError, match="fractions"):
            split_dataset(ds, (0.6, 0.0, 0.4), seeded_rng(0))


class TestGenerateSynthetic:
    def test_deterministic_under_seed(self):
        a = generate_synthetic(SyntheticSpec(seed=12))
        b = generate_synthetic(SyntheticSpec(seed=12))
        for s1, s2 in zip(a.samples, b.samples):
            assert s1.id == s2.id
            assert np.array_equal(s1.features, s2.features)
            assert np.array_equal(s1.labels, s2.labels)

    def test_zero_label_noise_gives_prototype_unions(self):
        spec = SyntheticSpec(n_samples=50, label_noise_rate=0.0, seed=13)
        ds = generate_synthetic(spec)
        _, proto_labels = synthetic_prototypes(spec)
        p = spec.n_prototypes
        unions = {tuple(proto_labels[i]) for i in range(p)}
        unions |= {tuple(np.maximum(proto_labels[i], proto_labels[j]))
                   for i in range(p) for j in range(i + 1, p)}
        for s in ds.samples:
            assert tuple(s.labels) in unions

    def test_every_sample_has_a_label(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=100, label_noise_rate=0.5, seed=14))
        assert all(s.labels.sum() >= 1 for s in ds.samples)

    def test_degenerate_full_flip_single_class(self):
        # flipping is deterministic at rate 1 with one class: every redraw is
        # all-zero, so the forced-bit fallback sets the single class back on
        ds = generate_synthetic(SyntheticSpec(n_samples=10, n_classes=1, label_noise_rate=1.0, seed=15))
        for s in ds.samples:
            assert s.labels.tolist() == [1]

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="n_prototypes"):
            generate_synthetic(SyntheticSpec(n_prototypes=1))
        with pytest.raises(ValueError, match="label_noise_rate"):
            generate_synthetic(SyntheticSpec(label_noise_rate=1.5))

    def test_prototype_replay_matches_generation(self):
        spec = SyntheticSpec(seed=16)
        c1, l1 = synthetic_prototypes(spec)
        c2, l2 = synthetic_prototypes(spec)
        assert np.array_equal(c1, c2) and np.array_equal(l1, l2)
        assert l1.shape == (spec.n_prototypes, spec.n_classes)
        assert (l1.sum(axis=1) >= 1).all()
