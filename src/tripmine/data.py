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
(M, F) float64 feature matrix and an (M, N) uint8 label matrix.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SampleTable, _first_failing_row, _row_of_ids, seeded_rng

FEATURES_MAGIC = b"TMFEAT01"
_READ_BLOCK_BYTES = 1 << 20  # a binary payload is read in blocks of about this size
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
    bad = _first_failing_row(np.isfinite(feats))
    if bad is not None:
        raise ValueError(f"{path}: non-finite feature value in row {line_nos[bad]} (id {ids[bad]!r})")
    return ids, feats


def _plain_csv_lines(path):
    """The lines of a plain CSV file, its bytes and the offset of each
    line's newline; None where only ``csv`` can split the file into rows.

    A plain file is UTF-8 text with no quote, no NUL, no carriage return
    outside a CRLF line end, no blank line and no line longer than ``csv``'s
    field limit: ``csv`` splits it into rows at its newlines and into fields
    at its commas. Line ends read as LF, and a missing final newline as
    present.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if b'"' in raw or b"\0" in raw:
        return None
    if b"\r" in raw:
        if raw.count(b"\r") != raw.count(b"\r\n"):
            return None
        raw = raw.replace(b"\r\n", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    try:
        lines = raw.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() == 0 or lengths.max() > csv.field_size_limit():
        return None
    return lines, buf, ends


def _parse_features_loadtxt(path):
    """Ids, values and file line numbers of a plain features CSV, the values
    parsed by ``np.loadtxt``; None where the row-by-row parser must decide.

    That is a file ``_plain_csv_lines`` does not split; a ragged or
    featureless row; and any value ``np.loadtxt`` rejects (``float()`` also
    accepts spellings such as ``1_0`` and non-ASCII digits). ``np.loadtxt``
    reads each line after its id, so it rejects ragged rows; it skips a row
    with nothing there, which the row count catches. Both parsers round
    values with Python's string-to-double conversion: their bits match.
    """
    plain = _plain_csv_lines(path)
    if plain is None:
        return None
    lines = plain[0]
    header = int(_looks_like_header(lines[0].split(",")))
    cut = [line.partition(",") for line in lines[header:]]
    if not cut or not cut[0][2]:  # np.loadtxt warns on lines that are all empty
        return None
    try:
        feats = np.loadtxt([c[2] for c in cut], dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if len(feats) != len(cut):
        return None
    return [c[0] for c in cut], feats, range(header + 1, header + 1 + len(cut))


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
    """The (M, F) float64 features of a binary feature file. The payload's
    size is checked before the matrix is allocated; then each float32 block
    is read, checked and written into the matrix, the only other buffer."""
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
        feats = np.empty((m, f), dtype=np.float64)
        block = np.empty((max(1, _READ_BLOCK_BYTES // (4 * f)), f), dtype="<f4")
        for start in range(0, m, len(block)):
            part = block[: m - start]
            if (got := fh.readinto(part)) != part.nbytes:  # the file shrank since its size was checked
                raise ValueError(f"{path}: payload is {4 * start * f + got} bytes, expected {expected}")
            bad = _first_failing_row(np.isfinite(part))
            if bad is not None:
                raise ValueError(f"{path}: non-finite feature value in row {start + bad + 1} of {m}")
            feats[start : start + len(part)] = part
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
    """Class names, ids and bits of a plain labels CSV, the bits read from
    its bytes as one grid; None where the row-by-row parser must decide.

    That is a file ``_plain_csv_lines`` does not split, one with no label
    row, and one whose header or label rows are not an id followed by n
    ``,0``/``,1`` cells, or that has a row with no label set.
    """
    plain = _plain_csv_lines(path)
    if plain is None:
        return None
    lines, buf, ends = plain
    n = lines[0].count(",")
    if len(lines) < 2 or n == 0 or np.count_nonzero(buf == ord(",")) != n * len(lines):
        return None
    # each label row ends in n ",0"/",1" cells (the offsets of their digits,
    # then of their commas), so with n commas per line no id holds one
    digits = ends[1:, None] + np.arange(1 - 2 * n, 0, 2)
    labels = buf[digits] - ord("0")
    digits -= 1
    if (labels > 1).any() or (buf[digits] != ord(",")).any() or not labels.any(axis=1).all():
        return None
    cut = -2 * n
    return lines[0].split(",")[1:], [line[:cut] for line in lines[1:]], labels


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
