"""Fuzz the file readers with truncated and garbage input.

Every input either loads or raises ``ValueError`` whose message names the
file; any other exception fails the test.
"""

import re
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tripmine.core import seeded_rng
from tripmine.data import FEATURES_MAGIC, load_dataset, read_features_binary
from tripmine.embedder import Embedder, load_checkpoint, save_checkpoint

FEATURES_CSV = b"id,f0,f1\na,0.5,1.5\nb,2.0,-3e-2\nc,-1.0,0.0\n"
LABELS_CSV = b"id,water,forest\na,1,0\nb,0,1\nc,1,1\n"
FEATURES_BIN = FEATURES_MAGIC + struct.pack("<2I6f", 3, 2, 0.5, 1.5, 2.0, -0.03, -1.0, 0.0)

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def mangled(valid: bytes):
    """Truncations of ``valid``, random bytes, and a prefix of ``valid``
    followed by random bytes."""
    return st.one_of(
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.binary(max_size=80),
        st.tuples(st.integers(0, len(valid)), st.binary(min_size=1, max_size=24)).map(
            lambda t: valid[: t[0]] + t[1]),
    )


def loads_or_names(path, read):
    try:
        read()
    except ValueError as exc:
        assert str(path) in str(exc), f"{exc!r} does not name {path}"


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    (d / "features.csv").write_bytes(FEATURES_CSV)
    (d / "labels.csv").write_bytes(LABELS_CSV)
    (d / "features.bin").write_bytes(FEATURES_BIN)
    save_checkpoint(Embedder.init([3, 4, 2], seeded_rng(0)), d / "model.ckpt")
    return d


def test_valid_fixtures_load(valid_files):
    assert len(load_dataset(valid_files / "features.csv", valid_files / "labels.csv").samples) == 3
    assert len(load_dataset(valid_files / "features.bin", valid_files / "labels.csv").samples) == 3
    assert load_checkpoint(valid_files / "model.ckpt").layer_dims == (3, 4, 2)


@FUZZ
@given(content=mangled(FEATURES_CSV))
def test_features_csv(tmp_path, valid_files, content):
    path = tmp_path / "fuzzed_features.csv"
    path.write_bytes(content)
    loads_or_names(path, lambda: load_dataset(path, valid_files / "labels.csv"))


@FUZZ
@given(content=mangled(LABELS_CSV))
def test_labels_csv(tmp_path, valid_files, content):
    path = tmp_path / "fuzzed_labels.csv"
    path.write_bytes(content)
    loads_or_names(path, lambda: load_dataset(valid_files / "features.csv", path))
    loads_or_names(path, lambda: load_dataset(valid_files / "features.bin", path))


@FUZZ
@given(content=mangled(LABELS_CSV.replace(b"\n", b"\r\n")))
def test_labels_csv_crlf(tmp_path, valid_files, content):
    # truncations between a CR and its LF leave a bare CR at the end
    path = tmp_path / "fuzzed_labels.csv"
    path.write_bytes(content)
    loads_or_names(path, lambda: load_dataset(valid_files / "features.bin", path))


@FUZZ
@given(content=mangled(FEATURES_BIN))
def test_binary_features(tmp_path, content):
    path = tmp_path / "fuzzed_features.bin"
    path.write_bytes(content)
    loads_or_names(path, lambda: read_features_binary(path))


@FUZZ
@given(data=st.data())
def test_checkpoint(tmp_path, valid_files, data):
    valid = (valid_files / "model.ckpt").read_bytes()
    path = tmp_path / "fuzzed.ckpt"
    path.write_bytes(data.draw(mangled(valid)))
    loads_or_names(path, lambda: load_checkpoint(path))


def test_truncations_are_rejected(tmp_path, valid_files):
    # every proper prefix of the binary files is incomplete
    for name, read in (("features.bin", read_features_binary), ("model.ckpt", load_checkpoint)):
        valid = (valid_files / name).read_bytes()
        path = tmp_path / name
        for n in range(len(valid)):
            path.write_bytes(valid[:n])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read(path)
