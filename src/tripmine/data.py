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
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SampleTable, _first_true, _row_of_ids, seeded_rng

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
    """The rows of a UTF-8 CSV file, read lazily. Bytes that are not UTF-8
    and malformed CSV raise ``ValueError`` naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_features_csv(path):
    parsed = _parse_features_loadtxt(path)
    ids, feats, line_nos = parsed if parsed is not None else _parse_features_rows(path)
    bad = _first_true(~np.isfinite(feats).all(axis=1))
    if bad is not None:
        raise ValueError(f"{path}: non-finite feature value in row {line_nos[bad]} (id {ids[bad]!r})")
    return ids, feats


def _parse_features_loadtxt(path):
    """Ids, values and file line numbers of a plain features CSV, the values
    parsed by ``np.loadtxt``; None where the row-by-row parser must decide.

    That is text that is not UTF-8; quotes, NULs or a carriage return not
    followed by a newline, where ``csv`` splits rows differently from
    splitting lines at newlines and fields at commas; a blank, ragged or
    featureless row; a line longer than ``csv``'s field limit; and any value
    ``np.loadtxt`` rejects (``float()`` also accepts spellings such as ``1_0``
    and non-ASCII digits). Both parsers round values with Python's own
    string-to-double conversion, so their arrays are bit-identical.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    header = int(bool(lines) and _looks_like_header(lines[0].split(",")))
    body = lines[header:]
    width = body[0].count(",") if body else 0
    if (width == 0 or any(line.count(",") != width for line in body)
            or max(map(len, body)) > csv.field_size_limit()):
        return None
    try:
        feats = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None,
                           usecols=range(1, width + 1), ndmin=2)
    except ValueError:
        return None
    ids = [line[: line.index(",")] for line in body]
    return ids, feats, range(header + 1, header + 1 + len(body))


def _parse_features_rows(path):
    ids, rows, line_nos = [], [], []
    for line_no, row in enumerate(_csv_rows(path)):
        if not row:
            continue
        if line_no == 0 and _looks_like_header(row):
            continue
        if len(row) < 2:
            raise ValueError(f"{path}: row {line_no + 1} has no feature columns")
        if rows and len(row) != len(rows[-1]) + 1:
            raise ValueError(f"{path}: ragged row {line_no + 1} (id {row[0]!r})")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric feature in row {line_no + 1}: {exc}") from None
        ids.append(row[0])
        rows.append(values)
        line_nos.append(line_no + 1)
    if not ids:
        raise ValueError(f"{path}: no feature rows")
    return ids, np.asarray(rows, dtype=np.float64), line_nos


def read_features_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(FEATURES_MAGIC))
        if magic != FEATURES_MAGIC:
            raise ValueError(f"{path}: not a binary feature file (bad magic)")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: header is cut off ({len(header)} of 8 size bytes after the magic)")
        m = int.from_bytes(header[:4], "little")
        f = int.from_bytes(header[4:], "little")
        if m == 0 or f == 0:
            raise ValueError(f"{path}: header declares {m} rows of {f} features; both must be positive")
        payload = fh.read()
    expected = 4 * m * f
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f4").reshape(m, f)
    bad = _first_true(~np.isfinite(values).all(axis=1))
    if bad is not None:
        raise ValueError(f"{path}: non-finite feature value in row {bad + 1} of {m}")
    return values.astype(np.float64)


def write_features_binary(path, features) -> None:
    x = np.asarray(features, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(int(x.shape[0]).to_bytes(4, "little"))
        fh.write(int(x.shape[1]).to_bytes(4, "little"))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def _read_labels_csv(path):
    rows = [row for row in _csv_rows(path) if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header row and at least one label row")
    header, body = rows[0], rows[1:]
    class_names = header[1:]
    if not class_names:
        raise ValueError(f"{path}: header names no classes")
    n = len(class_names)
    # Each cell is checked once per distinct value, and the bits of every
    # row before the first bad one are read as one array; the first bad row
    # gets the message a row-by-row check would give it.
    ragged = next((r for r, row in enumerate(body) if len(row) != n + 1), len(body))
    cells = list(itertools.chain.from_iterable(row[1:] for row in body[:ragged]))
    stripped = {v: v.strip() for v in set(cells)}
    end = ragged
    if not set(stripped.values()) <= {"0", "1"}:
        end = next(r for r, row in enumerate(body[:ragged])
                   if any(stripped[v] not in ("0", "1") for v in row[1:]))
    bits = "".join(map(stripped.__getitem__, cells[: end * n])).encode("ascii")
    labels = np.frombuffer(bits, dtype=np.uint8).reshape(end, n) - ord("0")
    empty = np.flatnonzero(~labels.any(axis=1))
    if empty.size:
        raise ValueError(f"{path}: sample {body[empty[0]][0]!r} has no class labels")
    if end < len(body):
        row, line_no = body[end], end + 2
        if end == ragged:
            raise ValueError(f"{path}: ragged row {line_no} (id {row[0]!r})")
        v = next(stripped[v] for v in row[1:] if stripped[v] not in ("0", "1"))
        raise ValueError(f"{path}: non-binary label entry {v!r} in row {line_no}")
    ids = [row[0] for row in body]
    _row_of_ids(ids, f"{path}: ")
    return class_names, ids, labels


def _is_binary_features(path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(len(FEATURES_MAGIC)) == FEATURES_MAGIC


def load_dataset(features_path, labels_path) -> Dataset:
    """Load and join a feature file (CSV or binary) with a labels CSV."""
    class_names, label_ids, labels = _read_labels_csv(labels_path)
    if _is_binary_features(features_path):
        feats = read_features_binary(features_path)
        if feats.shape[0] != len(label_ids):
            raise ValueError(
                f"{features_path}: {feats.shape[0]} binary feature rows vs "
                f"{len(label_ids)} label rows in {labels_path} (binary features pair by position)"
            )
        ids = label_ids
    else:
        ids, feats = _read_features_csv(features_path)
        _row_of_ids(ids, f"{features_path}: ")
        by_id = {i: k for k, i in enumerate(label_ids)}
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise ValueError(
                f"{features_path}: id {missing[0]!r} present in features but not labels ({labels_path})"
            )
        extra = set(label_ids) - set(ids)
        if extra:
            raise ValueError(
                f"{labels_path}: id {sorted(extra)[0]!r} present in labels but not features ({features_path})"
            )
        labels = labels[[by_id[i] for i in ids]]
    return Dataset(samples=SampleTable(ids, feats, labels), class_names=list(class_names))


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
