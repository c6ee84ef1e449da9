import csv
import io
import os
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripmine import core, data
from tripmine.core import SampleTable, seeded_rng
from tripmine.data import (
    FEATURES_MAGIC,
    _csv_rows,
    _looks_like_header,
    _parse_features_loadtxt,
    _parse_labels_plain,
    _read_features_csv,
    _read_labels_csv,
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
        assert ds.samples.ids[1] == "b"
        assert ds.samples.labels[2].tolist() == [1, 1]

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


    def test_duplicate_label_ids_with_binary_features_rejected(self, tmp_path):
        fpath = tmp_path / "features.bin"
        write_features_binary(fpath, np.zeros((3, 2)))
        lpath = tmp_path / "labels.csv"
        lpath.write_text("id,c0\na,1\na,1\nb,1\n")
        with pytest.raises(ValueError, match=r"labels\.csv: sample id 'a' is repeated"):
            load_dataset(fpath, lpath)

    def test_duplicate_label_ids_with_csv_features_rejected(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0", "b,2.0"], ["a,1,0", "b,0,1", "a,1,1"])
        with pytest.raises(ValueError, match=r"labels\.csv: sample id 'a' is repeated"):
            load_dataset(fpath, lpath)

    @pytest.mark.parametrize("which", ["features", "labels"])
    def test_undecodable_csv_bytes_name_the_file(self, tmp_path, which):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0", "b,3.0,4.0"], ["a,1,0", "b,0,1"])
        bad = fpath if which == "features" else lpath
        bad.write_bytes(bad.read_bytes().replace(b"b,", b"\xff,"))
        with pytest.raises(ValueError, match=rf"{bad.name}: not UTF-8 text \(byte 0xff"):
            load_dataset(fpath, lpath)

    def test_malformed_csv_names_the_file(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0"], ["a,1,0"])
        fpath.write_text("a,1.0,2.0\nb,3.0," + "1" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(ValueError, match=r"features\.csv: line 2: field larger than field limit"):
            load_dataset(fpath, lpath)

    def test_a_line_over_the_field_limit_across_read_blocks_names_the_file(self, tmp_path, monkeypatch):
        # the scan stops the line once the blocks read of it pass the limit,
        # before holding it whole; the row reader names it
        monkeypatch.setattr(core, "_READ_BLOCK_BYTES", 4096)
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0"], ["a,1,0"])
        fpath.write_text("a,1.0,2.0\nb,3.0," + "1" * (2 * csv.field_size_limit()) + "\n")
        with pytest.raises(ValueError, match=r"features\.csv: line 2: field larger than field limit"):
            load_dataset(fpath, lpath)

    def test_join_errors_name_both_files(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0", "zz,3.0,4.0"], ["a,1,0"])
        with pytest.raises(ValueError, match=r"features\.csv: id 'zz' .*labels\.csv"):
            load_dataset(fpath, lpath)
        fpath, lpath = write_toy_files(tmp_path, ["a,1.0,2.0"], ["a,1,0", "b,0,1"])
        with pytest.raises(ValueError, match=r"labels\.csv: id 'b' .*features\.csv"):
            load_dataset(fpath, lpath)


def per_sample_build(features_path, labels_path):
    """The dataset's table, read row by row the way the loader read it
    before it built one table from whole columns."""
    with open(labels_path, newline="") as fh:
        label_rows = [row for row in csv.reader(fh) if row][1:]
    labels = {row[0]: [int(v.strip()) for v in row[1:]] for row in label_rows}
    with open(features_path, "rb") as fh:
        binary = fh.read(8) == FEATURES_MAGIC
    if binary:
        raw = open(features_path, "rb").read()
        m, f = struct.unpack("<2I", raw[8:16])
        feats = np.frombuffer(raw[16:], dtype="<f4").reshape(m, f).astype(np.float64)
        rows = [(row[0], feats[k]) for k, row in enumerate(label_rows)]
    else:
        with open(features_path, newline="") as fh:
            feature_rows = [row for row in csv.reader(fh) if row]
        if not feature_rows[0][1].replace(".", "").replace("-", "").isdigit():
            feature_rows = feature_rows[1:]
        rows = [(row[0], [float(v) for v in row[1:]]) for row in feature_rows]
    return SampleTable([i for i, _ in rows], [x for _, x in rows], [labels[i] for i, _ in rows])


class TestSampleTableLoad:
    @pytest.mark.parametrize("binary", [False, True])
    def test_table_matches_the_per_sample_build(self, tmp_path, binary):
        ds = generate_synthetic(SyntheticSpec(n_samples=150, n_classes=6, feature_dim=9, seed=3))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        write_dataset(ds, fpath, lpath)
        if binary:
            fpath = tmp_path / "f.bin"
            write_features_binary(fpath, ds.samples.features)
        table = load_dataset(fpath, lpath).samples
        expected = per_sample_build(fpath, lpath)
        assert isinstance(table, SampleTable)
        assert table.ids == expected.ids
        # a binary file's float32 features are kept; the per-sample build widens them
        assert table.features.dtype == (np.float32 if binary else np.float64) and table.labels.dtype == np.uint8
        assert table.features.astype(np.float64).tobytes() == expected.features.tobytes()
        assert table.labels.tobytes() == expected.labels.tobytes()

    def test_csv_join_reorders_labels_to_the_feature_order(self, tmp_path):
        fpath, lpath = write_toy_files(tmp_path, ["b,1.0", "a,2.0", "c,3.0"], ["a,1,0", "c,1,1", "b,0,1"])
        table = load_dataset(fpath, lpath).samples
        assert table.ids == ("b", "a", "c")
        assert table.labels.tolist() == [[0, 1], [1, 0], [1, 1]]
        assert table.labels.tobytes() == per_sample_build(fpath, lpath).labels.tobytes()

    def test_subset_is_a_sub_table_and_a_sample_list_becomes_a_table(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=12, seed=4))
        sub = ds.subset([5, 1, 7])
        assert isinstance(sub, SampleTable)
        assert sub.ids == ("s05", "s01", "s07")
        assert np.array_equal(sub.features, ds.samples.features[[5, 1, 7]])


def read_labels_row_by_row(path):
    """The labels reader as it was, cell by cell: the reference for the
    vectorized one (duplicate ids aside, which it did not check). Rows are
    numbered by the file line they start on, blank lines included."""
    numbered = list(_csv_rows(path))
    if len(numbered) < 2:
        raise ValueError(f"{path}: expected a header row and at least one label row")
    header = numbered[0][1]
    class_names = header[1:]
    if not class_names:
        raise ValueError(f"{path}: header names no classes")
    ids, labels = [], []
    for line_no, row in numbered[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: ragged row {line_no} (id {row[0]!r})")
        bits = []
        for v in row[1:]:
            v = v.strip()
            if v not in ("0", "1"):
                raise ValueError(f"{path}: non-binary label entry {v!r} in row {line_no}")
            bits.append(int(v))
        if sum(bits) == 0:
            raise ValueError(f"{path}: sample {row[0]!r} has no class labels in row {line_no}")
        ids.append(row[0])
        labels.append(bits)
    return class_names, ids, np.asarray(labels, dtype=np.uint8)


def outcome(reader, path):
    try:
        names, ids, labels = reader(path)
    except ValueError as exc:
        return str(exc)
    return names, ids, labels.dtype, labels.shape, labels.tobytes()


def check_labels_reader(tmp_path_factory, data):
    """Draw a labels file and check that the readers agree with the
    row-by-row reference on it."""
    n = data.draw(st.integers(1, 4), label="classes")
    cell = st.sampled_from(["0", "1", "1", "0", " 1", "0 ", "\t1", "2", "", "x", "1.0"])
    mostly_valid = data.draw(st.booleans(), label="mostly valid")
    rows = []
    for r in range(data.draw(st.integers(1, 8), label="rows")):
        width = n if mostly_valid or data.draw(st.integers(0, 5)) else data.draw(st.integers(0, n + 2))
        values = [data.draw(st.sampled_from(["0", "1"]) if mostly_valid else cell) for _ in range(width)]
        row_id = data.draw(st.sampled_from(["r", "r", "\u00e9t\u00e9", "\ufeffr", " r"])) + str(r)
        rows.append(",".join([row_id] + values))
    if mostly_valid and data.draw(st.booleans(), label="one bad cell"):
        r = data.draw(st.integers(0, len(rows) - 1))
        extra_cell = data.draw(st.booleans())
        rows[r] = rows[r] + "," + data.draw(cell) if extra_cell else rows[r].replace(",1", ",2", 1)
    lines = [",".join(["id"] + [f"c{j}" for j in range(n)])] + rows
    if data.draw(st.booleans(), label="one odd line"):
        r = data.draw(st.integers(0, len(lines) - 1))
        head, sep, tail = lines[r].partition(",")
        odd = data.draw(st.sampled_from(["blank", "bom", "quoted comma", "nul", "trailing comma"]))
        if odd == "blank":
            lines.insert(r, "")
        else:
            lines[r] = {"bom": "\ufeff" + lines[r], "quoted comma": f'"{head},q"{sep}{tail}',
                        "nul": f"{head}\x00{sep}{tail}", "trailing comma": lines[r] + ","}[odd]
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    text = end.join(lines) + (end if data.draw(st.booleans(), label="final newline") else "")
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(_read_labels_csv, path) == outcome(read_labels_row_by_row, path)
    parsed = _parse_labels_plain(path)
    if parsed is not None:
        # the bulk parse accepts only files the row-by-row reader reads to the same triple
        assert outcome(lambda _: parsed, path) == outcome(read_labels_row_by_row, path)


class TestLabelsReader:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_row_by_row_reader(self, tmp_path_factory, data):
        check_labels_reader(tmp_path_factory, data)

    # CRLF pairs, BOMs, non-ASCII ids, headers and odd lines straddle the reads
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_row_by_row_reader_across_read_chunks(self, tmp_path_factory, chunk, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("tripmine.core._READ_BLOCK_BYTES", chunk)
            check_labels_reader(tmp_path_factory, data)

    def test_written_dataset_takes_the_bulk_parse(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_samples=40, n_classes=5, seed=8))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        write_dataset(ds, fpath, lpath)
        assert b"\r\n" in lpath.read_bytes()
        class_names, ids, labels = _parse_labels_plain(lpath)
        assert class_names == ds.class_names
        assert ids == list(ds.samples.ids)
        assert labels.dtype == np.uint8 and labels.shape == (40, 5)
        assert labels.tobytes() == ds.samples.labels.tobytes()
        assert outcome(_read_labels_csv, lpath) == outcome(read_labels_row_by_row, lpath)

    @pytest.mark.parametrize("body, message", [
        (["a,0,0", "b,2,1"], "sample 'a' has no class labels"),
        (["a,1,2", "b,0,0"], "non-binary label entry '2' in row 2"),
        (["a,1,0", "b,0,0", "c,1"], "sample 'b' has no class labels"),
        (["a,1,0", "b,1", "c,0,0"], "ragged row 3"),
        (["a,1,0", "b, 1 ,x", "c,1"], "non-binary label entry 'x' in row 3"),
    ])
    def test_the_first_bad_row_is_reported(self, tmp_path, body, message):
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(["id,p,q"] + body) + "\n")
        with pytest.raises(ValueError, match=message):
            _read_labels_csv(path)
        with pytest.raises(ValueError, match=message):
            read_labels_row_by_row(path)

    @pytest.mark.parametrize("row, message", [
        ("x,1", "ragged row 4 (id 'x')"),
        ("x,1,2", "non-binary label entry '2' in row 4"),
    ])
    def test_rows_are_numbered_by_file_line(self, tmp_path, row, message):
        path = tmp_path / "labels.csv"
        path.write_text(f"id,a,b\n\n\n{row}\n")
        for reader in (_read_labels_csv, read_labels_row_by_row):
            with pytest.raises(ValueError, match=re.escape(f"labels.csv: {message}")):
                reader(path)


def parse_features_with_float(path):
    """The features reader as it was, ``float()`` per value, up to its
    non-finite check: the reference for the ``np.loadtxt`` parse."""
    ids, rows, line_nos = [], [], []
    for line_no, row in _csv_rows(path):
        if line_no == 1 and _looks_like_header(row):
            continue
        if len(row) < 2:
            raise ValueError(f"{path}: row {line_no} has no feature columns")
        if rows and len(row) != len(rows[-1]) + 1:
            raise ValueError(f"{path}: ragged row {line_no} (id {row[0]!r})")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric feature in row {line_no}: {exc}") from None
        ids.append(row[0])
        rows.append(values)
        line_nos.append(line_no)
    if not ids:
        raise ValueError(f"{path}: no feature rows")
    return ids, np.asarray(rows, dtype=np.float64), line_nos


def read_features_row_by_row(path):
    ids, feats, line_nos = parse_features_with_float(path)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite feature value in row {line_nos[bad[0]]} (id {ids[bad[0]]!r})")
    return ids, feats


def features_outcome(reader, path):
    try:
        ids, feats = reader(path)
    except ValueError as exc:
        return str(exc)
    return ids, feats.dtype, feats.shape, feats.tobytes()


# spellings float() and np.loadtxt may disagree on, and ones both reject
ODD_FEATURE_CELLS = [
    "1_0", "\u0661\u0662", "\uff11.5", "0x10", " 2.5", "3.0 ", "\t4", "\u00a01", "1\u2003", "+1", "-0.0",
    ".5", "5.", "1e-320", "4.9e-324", "1e309", "-1e309", "nan", "-nan", "NaN", "inf", "-Infinity", "",
    " ", "x", "1e", "1.5E+3", "1,5", "\"2\"", "#3", "1e5#",
]


def check_features_reader(tmp_path_factory, data):
    """Draw a features file and check that the readers agree with the
    ``float()`` reference on it."""
    width = data.draw(st.integers(1, 4), label="features")
    mostly_valid = data.draw(st.booleans(), label="mostly valid")
    finite = st.floats(allow_nan=False, allow_infinity=False, width=data.draw(st.sampled_from([16, 32, 64])))
    value = finite.map(repr) | st.integers(-10**20, 10**20).map(str)
    odd = st.sampled_from(ODD_FEATURE_CELLS)
    lines = []
    if data.draw(st.booleans(), label="header"):
        lines.append(",".join(["id"] + [f"f{j}" for j in range(width)]))
    for r in range(data.draw(st.integers(0, 6), label="rows")):
        n = width if mostly_valid or data.draw(st.integers(0, 3)) else data.draw(st.integers(0, width + 2))
        cells = [data.draw(value if mostly_valid or data.draw(st.booleans()) else odd) for _ in range(n)]
        row_id = data.draw(st.sampled_from(["s", "\u00e9t\u00e9", "\ufeffs", " s"])) + str(r)
        lines.append(",".join([row_id] + cells))
    if lines and mostly_valid and data.draw(st.booleans(), label="one odd line"):
        r = data.draw(st.integers(0, len(lines) - 1))
        lines[r] = data.draw(st.sampled_from(["", lines[r] + ",", lines[r].replace(",", ",1_0", 1),
                                              lines[r].replace(",", ',"', 1) + '"', "s\x00,1"]))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    text = end.join(lines) + (end if data.draw(st.booleans(), label="final newline") else "")
    path = tmp_path_factory.mktemp("features") / "features.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = features_outcome(read_features_row_by_row, path)
    assert features_outcome(_read_features_csv, path) == expected
    parsed = _parse_features_loadtxt(path)
    if parsed is not None:
        # the loadtxt parse accepts only files the float() parse reads to the same bits
        ids, feats, line_nos = parse_features_with_float(path)
        assert parsed[0] == ids
        assert parsed[1].shape == feats.shape and parsed[1].tobytes() == feats.tobytes()
        assert list(parsed[2]) == line_nos


class TestFeaturesReader:
    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_matches_the_float_reader(self, tmp_path_factory, data):
        check_features_reader(tmp_path_factory, data)

    # CRLF pairs, BOMs, non-ASCII ids, headers and odd lines straddle the reads
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_float_reader_across_read_chunks(self, tmp_path_factory, chunk, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("tripmine.core._READ_BLOCK_BYTES", chunk)
            check_features_reader(tmp_path_factory, data)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
    def test_a_row_with_an_extra_column_takes_the_row_reader(self, tmp_path, monkeypatch, chunk):
        # np.loadtxt reading n columns after the id would skip the extra one
        monkeypatch.setattr(core, "_READ_BLOCK_BYTES", chunk)
        path = tmp_path / "features.csv"
        path.write_text("id,f0,f1\ns0,1.0,2.0\ns1,1.0,2.0,3.0\ns2,1.0,2.0\n")
        assert _parse_features_loadtxt(path) is None
        with pytest.raises(ValueError, match=re.escape("features.csv: ragged row 3 (id 's1')")):
            _read_features_csv(path)

    @pytest.mark.parametrize("pad", [0, 300])
    def test_short_and_long_lines_give_the_same_ids(self, pad):
        # lines under 256 bytes are cut by one regex pass, longer ones by a search per line
        ids = ["s0", "\ufeffs1", "\u00e9t\u00e92", " s3", ""]
        raw = "".join(f"{i},{'1' * pad}0,2\r\n" for i in ids).encode()
        assert [i for block in data._plain_csv_blocks(io.BytesIO(raw)) for i in block[1]] == ids

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    def test_a_bare_carriage_return_at_the_end_takes_the_row_reader(self, tmp_path, monkeypatch, chunk):
        # the LF added to a last line without one must not make its CR a CRLF line end
        monkeypatch.setattr(core, "_READ_BLOCK_BYTES", chunk)
        path = tmp_path / "features.csv"
        path.write_bytes(b"s0,1.0,2.0\r\ns1,3.0,4.0\r")
        assert _parse_features_loadtxt(path) is None
        assert features_outcome(_read_features_csv, path) == features_outcome(read_features_row_by_row, path)

    def test_a_file_rewritten_between_the_two_reads_takes_the_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        path.write_text("s0,1.0\ns1,2.0\n")
        scan = data._plain_csv_blocks

        def scan_then_rewrite(fh):
            yield from scan(fh)
            path.write_text("t0,3.0\nt1,4.0\n")  # same size and row count
            st = os.stat(path)
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))

        monkeypatch.setattr(data, "_plain_csv_blocks", scan_then_rewrite)
        assert _parse_features_loadtxt(path) is None
        ids, feats = _read_features_csv(path)
        assert ids == ["t0", "t1"] and feats.tolist() == [[3.0], [4.0]]

    def test_a_rewrite_the_size_and_mtime_miss_takes_the_row_reader(self, tmp_path, monkeypatch):
        # a rewrite within the clock's resolution to the same size: the
        # second read finds fewer rows than the scan's ids
        path = tmp_path / "features.csv"
        path.write_text("s0,1.0\ns1,2.0\ns2,3.0\n")
        scan = data._plain_csv_blocks

        def scan_then_rewrite(fh):
            yield from scan(fh)
            path.write_text("t0,4.0\n")

        monkeypatch.setattr(data, "_plain_csv_blocks", scan_then_rewrite)
        monkeypatch.setattr(data, "_size_and_mtime", lambda fh: (0, 0))
        assert _parse_features_loadtxt(path) is None
        ids, feats = _read_features_csv(path)
        assert ids == ["t0"] and feats.tolist() == [[4.0]]

    def test_reading_holds_the_array_the_ids_and_one_block(self, tmp_path):
        m, f = 20_000, 128
        # short values keep the file small (about 16 MB) and the test quick
        table = SampleTable([f"s{i:05d}" for i in range(m)], seeded_rng(4).normal(size=(m, f)).round(3),
                            np.ones((m, 1), dtype=np.uint8))
        fpath = tmp_path / "features.csv"
        write_dataset(data.Dataset(samples=table, class_names=["c0"]), fpath, tmp_path / "labels.csv")
        tracemalloc.start()
        try:
            ids, feats = _read_features_csv(fpath)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert feats.tobytes() == table.features.tobytes() and ids == list(table.ids)
        assert peak < feats.nbytes + 8 * 2**20

    def test_written_dataset_takes_the_loadtxt_parse(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_samples=40, feature_dim=5, seed=8))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        write_dataset(ds, fpath, lpath)
        ids, feats, line_nos = _parse_features_loadtxt(fpath)
        assert ids == list(ds.samples.ids)
        assert feats.tobytes() == ds.samples.features.tobytes()
        assert list(line_nos) == list(range(2, 42))
        assert features_outcome(_read_features_csv, fpath) == features_outcome(read_features_row_by_row, fpath)


# a header, then a quoted id that spans lines 2 and 3
TWO_LINE_ID = {"labels": 'id,a,b\n"x\ny",1,1\n', "features": 'id,f0,f1\n"x\ny",1.0,1.0\n'}


@pytest.mark.parametrize("kind, row, message", [
    ("labels", "z,1", "ragged row 4 (id 'z')"),
    ("labels", "z,1,2", "non-binary label entry '2' in row 4"),
    ("labels", "z,0,0", "sample 'z' has no class labels in row 4"),
    ("features", "z,1.0", "ragged row 4 (id 'z')"),
    ("features", "z,1.0,q", "non-numeric feature in row 4: could not convert string to float: 'q'"),
    ("features", "z,1.0,inf", "non-finite feature value in row 4 (id 'z')"),
])
def test_a_row_after_a_quoted_line_break_is_named_by_its_file_line(tmp_path, kind, row, message):
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{TWO_LINE_ID[kind]}{row}\n")
    readers = {"labels": (_read_labels_csv, read_labels_row_by_row),
               "features": (_read_features_csv, read_features_row_by_row)}[kind]
    for reader in readers:
        with pytest.raises(ValueError, match=re.escape(f"{kind}.csv: {message}")):
            reader(path)


class TestRoundTrip:
    def test_csv_round_trip_is_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_samples=20, seed=5))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        write_dataset(ds, fpath, lpath)
        back = load_dataset(fpath, lpath)
        assert back.class_names == ds.class_names
        assert back.samples.ids == ds.samples.ids
        assert np.max(np.abs(ds.samples.features - back.samples.features)) < 1e-12
        assert np.array_equal(ds.samples.labels, back.samples.labels)

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
        assert list(ds.samples.ids) == ["x", "y"]

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


def write_binary_payload(path, values):
    """A binary feature file holding the float32 matrix ``values`` as is."""
    values = np.ascontiguousarray(values, dtype="<f4")
    path.write_bytes(FEATURES_MAGIC + struct.pack("<2I", *values.shape) + values.tobytes())
    return path


def block_rows(f):
    """Rows per read block of a binary file with ``f`` features."""
    return max(1, core._READ_BLOCK_BYTES // (4 * f))


class TestBinaryReader:
    @pytest.mark.parametrize("m, f", [(1000, 1000), (5000, 3), (2, 300_000), (1, 1)])
    def test_matches_frombuffer_bit_for_bit(self, tmp_path, m, f):
        bits = seeded_rng(m).integers(0, 2**32, size=(m, f), dtype=np.uint64).astype(np.uint32)
        values = bits.view(np.float32)
        values[~np.isfinite(values)] = -0.0  # every finite float32, subnormals and both zeros included
        path = write_binary_payload(tmp_path / "f.bin", values)
        payload = path.read_bytes()[16:]
        expected = np.frombuffer(payload, dtype="<f4").reshape(m, f).astype(np.float64)
        got = read_features_binary(path)
        assert got.dtype == np.float32 and got.shape == (m, f) and got.flags.c_contiguous
        assert got.astype(np.float64).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("where", ["first row of the second block", "last row of the last block"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_at_a_block_edge_names_its_row(self, tmp_path, where, value):
        f = 128
        m = 2 * block_rows(f) + 100
        row = block_rows(f) if where.startswith("first") else m - 1
        values = np.ones((m, f), dtype=np.float32)
        values[row, f - 1] = value
        path = write_binary_payload(tmp_path / "features.bin", values)
        with pytest.raises(ValueError, match=re.escape(f"features.bin: non-finite feature value in row {row + 1} of {m}")):
            read_features_binary(path)

    @pytest.mark.parametrize("extra, size", [(-1, 4 * 6 - 1), (4, 4 * 6 + 4)])
    def test_payload_of_the_wrong_length_keeps_its_message(self, tmp_path, extra, size):
        path = tmp_path / "features.bin"
        raw = write_binary_payload(path, np.zeros((3, 2))).read_bytes()
        path.write_bytes(raw[:extra] if extra < 0 else raw + b"\0" * extra)
        with pytest.raises(ValueError, match=re.escape(f"features.bin: payload is {size} bytes, expected 24")):
            read_features_binary(path)

    def test_huge_declared_size_is_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(FEATURES_MAGIC + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + b"\0" * 8)
        with pytest.raises(ValueError, match=r"features\.bin: payload is 8 bytes, expected 73786976260478468100"):
            read_features_binary(path)

    def test_a_file_that_shrinks_after_the_size_check_names_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "features.bin"
        raw = write_binary_payload(path, np.zeros((3, 2))).read_bytes()
        path.write_bytes(raw[:-8])
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            [*real_fstat(fd)[:6], real_fstat(fd).st_size + 8, *real_fstat(fd)[7:10]]))
        with pytest.raises(ValueError, match=re.escape("features.bin: payload is 16 bytes, expected 24")):
            read_features_binary(path)

    def test_reading_holds_the_matrix_and_one_block(self, tmp_path):
        m, f = 20_000, 128
        path = write_binary_payload(tmp_path / "f.bin", np.ones((m, f)))
        tracemalloc.start()
        try:
            feats = read_features_binary(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert feats.nbytes == 4 * m * f
        assert peak < feats.nbytes + 4 * 2**20


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

    def test_fractions_whose_floors_overfill_the_dataset_rejected(self):
        # the sum's 1e-9 slack lets two floors pass the sample count only
        # past about 10**9 samples; the check reads the count alone, before
        # anything is drawn, so a range stands in for that table
        ds = SimpleNamespace(samples=range(1_100_000_001))
        with pytest.raises(ValueError, match="leave no room"):
            split_dataset(ds, (0.5 + 4.9e-10, 0.5 + 4.9e-10, 1e-12), seeded_rng(0))

    def test_invalid_fractions_rejected(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=10, seed=11))
        with pytest.raises(ValueError, match="fractions"):
            split_dataset(ds, (0.8, 0.3, 0.2), seeded_rng(0))
        with pytest.raises(ValueError, match="fractions"):
            split_dataset(ds, (0.6, 0.0, 0.4), seeded_rng(0))

    @pytest.mark.parametrize("fractions", [
        (np.nan, 0.2, 0.2), (0.6, np.nan, 0.2), (0.6, 0.2, np.nan), (np.inf, 0.2, 0.2), (0.6, -np.inf, 0.2),
    ])
    def test_non_finite_fractions_rejected(self, fractions):
        ds = generate_synthetic(SyntheticSpec(n_samples=10, seed=11))
        with pytest.raises(ValueError, match="fractions must be positive and sum to at most 1"):
            split_dataset(ds, fractions, seeded_rng(0))


class TestGenerateSynthetic:
    def test_deterministic_under_seed(self):
        a = generate_synthetic(SyntheticSpec(seed=12))
        b = generate_synthetic(SyntheticSpec(seed=12))
        assert a.samples.ids == b.samples.ids
        assert np.array_equal(a.samples.features, b.samples.features)
        assert np.array_equal(a.samples.labels, b.samples.labels)

    def test_zero_label_noise_gives_prototype_unions(self):
        spec = SyntheticSpec(n_samples=50, label_noise_rate=0.0, seed=13)
        ds = generate_synthetic(spec)
        _, proto_labels = synthetic_prototypes(spec)
        p = spec.n_prototypes
        unions = {tuple(proto_labels[i]) for i in range(p)}
        unions |= {tuple(np.maximum(proto_labels[i], proto_labels[j]))
                   for i in range(p) for j in range(i + 1, p)}
        for row in ds.samples.labels:
            assert tuple(row) in unions

    def test_every_sample_has_a_label(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=100, label_noise_rate=0.5, seed=14))
        assert all(row.sum() >= 1 for row in ds.samples.labels)

    def test_degenerate_full_flip_single_class(self):
        # flipping is deterministic at rate 1 with one class: every redraw is
        # all-zero, so the forced-bit fallback sets the single class back on
        ds = generate_synthetic(SyntheticSpec(n_samples=10, n_classes=1, label_noise_rate=1.0, seed=15))
        for row in ds.samples.labels:
            assert row.tolist() == [1]

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="n_samples, n_classes, and feature_dim must be >= 1"):
            generate_synthetic(SyntheticSpec(n_samples=0))
        with pytest.raises(ValueError, match="n_prototypes"):
            generate_synthetic(SyntheticSpec(n_prototypes=1))
        with pytest.raises(ValueError, match="label_noise_rate"):
            generate_synthetic(SyntheticSpec(label_noise_rate=1.5))

    @pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
    def test_negative_or_non_finite_feature_noise_rejected(self, sigma):
        with pytest.raises(ValueError, match="feature_noise_sigma must be >= 0 and finite"):
            generate_synthetic(SyntheticSpec(feature_noise_sigma=sigma))

    def test_prototype_replay_matches_generation(self):
        spec = SyntheticSpec(seed=16)
        c1, l1 = synthetic_prototypes(spec)
        c2, l2 = synthetic_prototypes(spec)
        assert np.array_equal(c1, c2) and np.array_equal(l1, l2)
        assert l1.shape == (spec.n_prototypes, spec.n_classes)
        assert (l1.sum(axis=1) >= 1).all()
