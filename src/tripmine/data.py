"""Feature/label file ingestion, splitting, and synthetic dataset generation.

CSV is the normative interchange format. Features: one row per sample,
first column the id, then F real-valued columns (a header row is accepted
and skipped when its second field is not numeric). Labels: a header row
("id" followed by the class names), then one row per sample with N strictly
binary columns. Rows are joined on id; the features file fixes the sample
order.

A binary feature format exists for bulk data: 8 magic bytes "TMFEAT01",
uint32-LE row count M >= 1, uint32-LE feature count F >= 1, then M*F
row-major float32-LE values. It carries no ids, so its rows pair
positionally with the labels CSV. Feature values must be finite in both
formats. CSV files are UTF-8 text.

A loaded dataset holds its samples as one ``SampleTable``: the ids, an
(M, F) feature matrix and an (M, N) uint8 label matrix. The features are
float32 as a binary file stores them, float64 as a CSV file's parse.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import core
from .core import SampleTable, _first_non_finite_row, _row_of_ids, seeded_rng

FEATURES_MAGIC = b"TMFEAT01"
_REDRAW_ATTEMPTS = 16


@dataclass
class Dataset:
    """Samples (a ``SampleTable``), class names, and the row indices of the
    train/val/test splits."""

    samples: SampleTable
    class_names: list
    train_idx: list = field(default_factory=list)
    val_idx: list = field(default_factory=list)
    test_idx: list = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return int(self.samples.features.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices) -> SampleTable:
        return self.samples[list(indices)]


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale generator: samples are noisy mixtures of shared prototypes,
    so label similarity and feature distance are genuinely correlated."""

    n_samples: int = 200
    n_classes: int = 8
    feature_dim: int = 16
    n_prototypes: int = 4
    label_noise_rate: float = 0.05
    feature_noise_sigma: float = 0.1
    seed: int = 0

    def validate(self) -> "SyntheticSpec":
        if self.n_prototypes < 2:
            raise ValueError("n_prototypes must be >= 2")
        if self.n_samples < 1 or self.n_classes < 1 or self.feature_dim < 1:
            raise ValueError("n_samples, n_classes, and feature_dim must be >= 1")
        if not 0.0 <= self.label_noise_rate <= 1.0:
            raise ValueError("label_noise_rate must be in [0, 1]")
        # written so that NaN fails it
        if not 0.0 <= self.feature_noise_sigma < np.inf:
            raise ValueError(f"feature_noise_sigma must be >= 0 and finite, got {self.feature_noise_sigma}")
        return self


def _looks_like_header(row) -> bool:
    if len(row) < 2:
        return False
    try:
        float(row[1])
        return False
    except ValueError:
        return True


def _csv_rows(path):
    """``(line, row)`` for each non-blank row of a UTF-8 CSV file, read
    lazily; ``line`` is the file line the row starts on. Bytes that are not
    UTF-8 and malformed CSV raise ``ValueError`` naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader, line = csv.reader(fh), 1
        try:
            for row in reader:
                if row:
                    yield line, row
                line = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_features_csv(path):
    parsed = _parse_features_loadtxt(path)
    ids, feats, line_nos = parsed if parsed is not None else _parse_features_rows(path)
    bad = _first_non_finite_row(feats)
    if bad is not None:
        raise ValueError(f"{path}: non-finite feature value in row {line_nos[bad]} (id {ids[bad]!r})")
    return ids, feats


def _line_blocks(fh):
    """The binary file ``fh``, read ``core._READ_BLOCK_BYTES`` at a time, as
    blocks of whole lines, each ending in a LF (a last line without one
    gets it), so no CRLF pair or UTF-8 character straddles two blocks. A
    line that outgrows ``csv``'s field limit (plus one byte for a CR)
    raises ``ValueError`` before it is held whole, and so does a last line
    ending in a bare CR, which the added LF would make a CRLF line end."""
    limit, rest = csv.field_size_limit() + 1, b""
    while chunk := fh.read(core._READ_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            block = b"".join((rest, memoryview(chunk)[:cut])) if rest else chunk[:cut]
            rest, chunk = chunk[cut:], None  # the block is the one copy held while it is read
            yield block
        else:
            rest += chunk
        if len(rest) > limit:
            raise ValueError("line over the field limit")
    if rest.endswith(b"\r"):
        raise ValueError("bare carriage return")
    if rest:
        yield rest + b"\n"


def _plain_csv_blocks(fh):
    """The lines of the plain CSV file ``fh`` (open in binary mode) in
    ``_line_blocks``. Each block is ``(n, ids, buf, stops, text)``: the
    commas per line, its lines' ids (the text before each first comma), its
    bytes as a uint8 array, the offset each line's text stops at (its CR or
    LF) in them, and its text. It raises ``ValueError`` at the first block
    that shows the file is not plain: then only ``csv`` can split it into
    rows. An empty file has no block.

    A plain file is UTF-8 text with no quote, no NUL, no carriage return
    outside a CRLF line end, no blank line, no line longer than ``csv``'s
    field limit, and n commas per line in all, n >= 1 being its first
    line's count: ``csv`` splits it into rows at its newlines and into
    fields at its commas. A reader that rejects a line with fewer than n
    commas thus has every line hold exactly n.
    """
    limit, n = csv.field_size_limit(), None
    for raw in _line_blocks(fh):
        text = raw.decode("utf-8")
        buf = np.frombuffer(raw, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        crlf = buf[ends - 1] == ord("\r")  # buf[-1], before a first line end at 0, is a LF
        lengths = np.diff(ends, prepend=-1) - 1 - crlf
        if n is None:
            n = raw.count(b",", 0, ends[0])
        if (b'"' in raw or b"\0" in raw or n == 0 or lengths.min() == 0 or lengths.max() > limit
                or b"\r" in raw and np.count_nonzero(buf == ord("\r")) != np.count_nonzero(crlf)
                or np.count_nonzero(buf == ord(",")) != n * len(ends)):
            raise ValueError("not a plain CSV file")
        yield n, _line_ids(raw, text, ends), buf, ends - crlf, text


def _line_ids(raw, text, ends):
    """The text before each first comma in the block ``raw`` (its ``text``
    and line ends). One regex pass costs a little per byte, a search from
    each line start a little more per line; measured on 1 MB blocks, they
    break even at about 300 bytes a line, and each costs about twice the
    other at 2.6 KB (features) and 40 bytes (labels) a line. A line with no
    comma gets a wrong id or raises ``ValueError``; both readers reject a
    file that holds one."""
    if len(raw) < 256 * len(ends):
        return _LINE_IDS.findall("\n" + text)[:-1]
    return [raw[s : raw.index(b",", s)].decode("utf-8") for s in [0, *(ends[:-1] + 1).tolist()]]


_LINE_IDS = re.compile("\n([^,\n]*)")  # after each newline, the text up to a comma or the next newline


def _first_line(text):
    """The first line of a block's text, without its line end."""
    return text.partition("\n")[0].removesuffix("\r")


def _parse_features_loadtxt(path):
    """Ids, values and file line numbers of a plain features CSV, the values
    parsed by ``np.loadtxt``; None where the row-by-row parser must decide.

    That is a file ``_plain_csv_blocks`` does not split, one with no data
    row, and any value ``np.loadtxt`` rejects (``float()`` also accepts
    spellings such as ``1_0`` and non-ASCII digits). The scan keeps the ids
    and one block; ``np.loadtxt`` then reads the open file again, each data
    line's n columns after its id, into the one array it returns, and
    rejects a line with fewer. A file whose size or modification time
    changed between the two reads is also left to the row-by-row parser,
    so ids are not paired with another file's values. Both parsers round
    values with Python's string-to-double conversion: their bits match.
    """
    ids, header = [], 0
    try:
        # np.loadtxt reads the file again line by line, refilling this buffer a block at a time
        with open(path, "rb", buffering=max(core._READ_BLOCK_BYTES, io.DEFAULT_BUFFER_SIZE)) as fh:
            scanned = _size_and_mtime(fh)
            for n, block_ids, _, _, text in _plain_csv_blocks(fh):
                if not ids:
                    header = int(_looks_like_header(_first_line(text).split(",")))
                ids += block_ids
            del ids[:header]
            if not ids:
                return None
            fh.seek(0)
            feats = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None, skiprows=header,
                               usecols=range(1, n + 1), max_rows=len(ids), ndmin=2, encoding="utf-8")
            if _size_and_mtime(fh) != scanned:
                return None
    except ValueError:
        return None
    if len(feats) != len(ids):
        return None
    return ids, feats, range(header + 1, header + 1 + len(ids))


def _size_and_mtime(fh):
    st = os.fstat(fh.fileno())
    return st.st_size, st.st_mtime_ns


def _parse_features_rows(path):
    ids, rows, line_nos = [], [], []
    for line, row in _csv_rows(path):
        if line == 1 and _looks_like_header(row):
            continue
        if len(row) < 2:
            raise ValueError(f"{path}: row {line} has no feature columns")
        if rows and len(row) != len(rows[-1]) + 1:
            raise ValueError(f"{path}: ragged row {line} (id {row[0]!r})")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric feature in row {line}: {exc}") from None
        ids.append(row[0])
        rows.append(values)
        line_nos.append(line)
    if not ids:
        raise ValueError(f"{path}: no feature rows")
    return ids, np.asarray(rows, dtype=np.float64), line_nos


def read_features_binary(path):
    """The (M, F) float32 features of a binary feature file, as it stores
    them. The payload's size is checked before the matrix is allocated; the
    payload is read into it at once, then checked for finite values block
    by block, so the check holds one block's flags."""
    with open(path, "rb") as fh:
        if fh.read(len(FEATURES_MAGIC)) != FEATURES_MAGIC:
            raise ValueError(f"{path}: not a binary feature file (bad magic)")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: header is cut off ({len(header)} of 8 size bytes after the magic)")
        m, f = int.from_bytes(header[:4], "little"), int.from_bytes(header[4:], "little")
        if m == 0 or f == 0:
            raise ValueError(f"{path}: header declares {m} rows of {f} features; both must be positive")
        expected = 4 * m * f
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ValueError(f"{path}: payload is {size} bytes, expected {expected}")
        feats = np.empty((m, f), dtype="<f4")
        if (got := fh.readinto(feats)) != expected:  # the file shrank since its size was checked
            raise ValueError(f"{path}: payload is {got} bytes, expected {expected}")
    bad = _first_non_finite_row(feats)
    if bad is not None:
        raise ValueError(f"{path}: non-finite feature value in row {bad + 1} of {m}")
    return feats


def write_features_binary(path, features) -> None:
    x = np.asarray(features, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(int(x.shape[0]).to_bytes(4, "little"))
        fh.write(int(x.shape[1]).to_bytes(4, "little"))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def _read_labels_csv(path):
    """Class names, ids and bits of a labels CSV, repeated ids included."""
    parsed = _parse_labels_plain(path)
    return parsed if parsed is not None else _parse_labels_rows(path)


def _parse_labels_plain(path):
    """Class names, ids and bits of a plain labels CSV, the bits read block
    by block from its bytes; None where the row-by-row parser must decide.

    That is a file ``_plain_csv_blocks`` does not split, one with no label
    row, and one whose label rows do not end in n ``,0``/``,1`` cells, or
    that has a row with no label set.
    """
    names, ids, labels = None, [], []
    try:
        with open(path, "rb") as fh:
            for n, block_ids, buf, stops, text in _plain_csv_blocks(fh):
                if names is None:
                    names = _first_line(text).split(",")[1:]
                    stops = stops[1:]
                # each label row ends in n ",0"/",1" cells: the 2n bytes
                # before its line end. Those bytes of a row too short for them
                # hold a line end: the one before the row or, where they are
                # taken from the block's start, its own. So every row holds n
                # commas or more, with n per line in all exactly n, and no id
                # holds one
                cells = sliding_window_view(buf, 2 * n)[np.maximum(stops - 2 * n, 0)]
                bits = cells[:, 1::2] - ord("0")
                if (bits > 1).any() or (cells[:, ::2] != ord(",")).any() or not bits.any(axis=1).all():
                    return None
                ids += block_ids
                labels.append(bits)
    except ValueError:
        return None
    del ids[:1]  # the header's
    if not ids:
        return None
    return names, ids, np.concatenate(labels)


def _parse_labels_rows(path):
    rows = list(_csv_rows(path))
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header row and at least one label row")
    header = rows[0][1]
    class_names = header[1:]
    if not class_names:
        raise ValueError(f"{path}: header names no classes")
    ids, bits = [], []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: ragged row {line} (id {row[0]!r})")
        cells = [v.strip() for v in row[1:]]
        for v in cells:
            if v not in ("0", "1"):
                raise ValueError(f"{path}: non-binary label entry {v!r} in row {line}")
        if "1" not in cells:
            raise ValueError(f"{path}: sample {row[0]!r} has no class labels in row {line}")
        ids.append(row[0])
        bits.extend(cells)
    labels = np.frombuffer("".join(bits).encode("ascii"), dtype=np.uint8).reshape(len(ids), -1)
    return class_names, ids, labels - ord("0")


def _is_binary_features(path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(len(FEATURES_MAGIC)) == FEATURES_MAGIC


def load_dataset(features_path, labels_path) -> Dataset:
    """Load and join a feature file (CSV or binary) with a labels CSV. The
    readers check every value, and each file's ids get one map: the labels'
    joins CSV features, the table's checks the file that fixes the order."""
    class_names, label_ids, labels = _read_labels_csv(labels_path)
    try:
        if _is_binary_features(features_path):
            ids, feats, order_path = label_ids, read_features_binary(features_path), labels_path
            if len(feats) != len(ids):
                raise ValueError(
                    f"{features_path}: {len(feats)} binary feature rows vs "
                    f"{len(ids)} label rows in {labels_path} (binary features pair by position)"
                )
        else:
            by_id = _row_of_ids(label_ids, f"{labels_path}: ")
            ids, feats = _read_features_csv(features_path)
            rows = [by_id.get(i) for i in ids]
            if None in rows:
                _row_of_ids(ids, f"{features_path}: ")  # a repeated id is named before a missing one
                raise ValueError(
                    f"{features_path}: id {ids[rows.index(None)]!r} present in features but not labels ({labels_path})"
                )
            labels, order_path = labels[rows], features_path
    except (OSError, ValueError):
        _row_of_ids(label_ids, f"{labels_path}: ")  # the labels file is read, and named, first
        raise
    try:
        table = SampleTable(ids, feats, labels)
    except ValueError as exc:  # the readers checked every value: only a repeated id is left
        raise ValueError(f"{order_path}: {exc}") from None
    if len(table) < len(label_ids):
        extra = sorted(set(label_ids) - set(ids))[0]
        raise ValueError(f"{labels_path}: id {extra!r} present in labels but not features ({features_path})")
    return Dataset(samples=table, class_names=list(class_names))


def write_dataset(ds: Dataset, features_path, labels_path) -> None:
    """Write the two CSVs; float formatting round-trips float64 exactly."""
    table = ds.samples
    with open(features_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(ds.n_features)])
        for sample_id, row in zip(table.ids, table.features.tolist()):
            writer.writerow([sample_id] + [repr(v) for v in row])
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(ds.class_names))
        for sample_id, row in zip(table.ids, table.labels.tolist()):
            writer.writerow([sample_id] + [str(b) for b in row])


def split_dataset(ds: Dataset, fractions, rng: np.random.Generator) -> Dataset:
    """Random disjoint train/val/test splits.

    Train and val sizes are floor(fraction * M); everything left over goes
    to test.
    """
    f_train, f_val, f_test = fractions
    # written so that NaN fails it
    if not (min(f_train, f_val, f_test) > 0 and f_train + f_val + f_test <= 1.0 + 1e-9):
        raise ValueError(f"fractions must be positive and sum to at most 1, got {fractions}")
    m = len(ds.samples)
    n_train = int(round(f_train * m, 9) // 1)
    n_val = int(round(f_val * m, 9) // 1)
    if n_train + n_val > m:
        raise ValueError("train and val fractions leave no room in the dataset")
    perm = rng.permutation(m)
    return replace(
        ds,
        train_idx=sorted(int(i) for i in perm[:n_train]),
        val_idx=sorted(int(i) for i in perm[n_train : n_train + n_val]),
        test_idx=sorted(int(i) for i in perm[n_train + n_val :]),
    )


def synthetic_prototypes(spec: SyntheticSpec):
    """The prototype centroids and label sets a spec would generate.

    Prototypes are drawn first from the seed stream, so this replays exactly
    what ``generate_synthetic`` uses internally.
    """
    return _draw_prototypes(spec.validate(), seeded_rng(spec.seed))


def _draw_prototypes(spec: SyntheticSpec, rng: np.random.Generator):
    # radius 0.5 keeps centroid separation comparable to the default feature noise
    centroids = rng.normal(size=(spec.n_prototypes, spec.feature_dim))
    centroids *= 0.5 / np.linalg.norm(centroids, axis=1, keepdims=True)
    proto_labels = np.zeros((spec.n_prototypes, spec.n_classes), dtype=np.uint8)
    max_labels = min(3, spec.n_classes)
    for p in range(spec.n_prototypes):
        count = int(rng.integers(1, max_labels + 1))
        chosen = rng.choice(spec.n_classes, size=count, replace=False)
        proto_labels[p, chosen] = 1
    return centroids, proto_labels


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Build a dataset of noisy prototype mixtures.

    Each sample mixes one or two prototype centroids (plus Gaussian feature
    noise); its label vector is the union of the source prototypes' labels
    with each bit independently flipped at ``label_noise_rate``. An all-zero
    result is re-drawn; if the re-draws keep producing all-zero vectors
    (e.g. noise rate 1 with a single class, where flipping is deterministic),
    one uniformly random bit is forced on instead.
    """
    spec.validate()
    rng = seeded_rng(spec.seed)
    centroids, proto_labels = _draw_prototypes(spec, rng)
    width = len(str(max(spec.n_samples - 1, 1)))
    features = np.empty((spec.n_samples, spec.feature_dim), dtype=np.float64)
    labels = np.empty((spec.n_samples, spec.n_classes), dtype=np.uint8)
    for i in range(spec.n_samples):
        n_src = 1 if rng.random() < 0.7 else 2
        srcs = rng.choice(spec.n_prototypes, size=n_src, replace=False)
        w = rng.random(n_src)
        w /= w.sum()
        features[i] = w @ centroids[srcs] + spec.feature_noise_sigma * rng.normal(size=spec.feature_dim)
        clean = proto_labels[srcs].max(axis=0)
        bits = clean.copy()
        for _ in range(_REDRAW_ATTEMPTS):
            flips = rng.random(spec.n_classes) < spec.label_noise_rate
            bits = np.where(flips, 1 - clean, clean).astype(np.uint8)
            if bits.sum() > 0:
                break
        if bits.sum() == 0:
            bits[int(rng.integers(spec.n_classes))] = 1
        labels[i] = bits
    ids = [f"s{i:0{width}d}" for i in range(spec.n_samples)]
    class_names = [f"c{j}" for j in range(spec.n_classes)]
    return Dataset(samples=SampleTable(ids, features, labels), class_names=class_names)
