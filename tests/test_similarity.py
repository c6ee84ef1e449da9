import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripmine.similarity import (
    _check_binary_rows,
    _scaled_row_distances,
    label_similarity_matrix,
    minmax_normalize,
    padded_matmul,
    pairwise_euclidean,
)


def label_vectors(n=6):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: sum(v) > 0)


# every dtype and value the label check sees, with np.isin(arr, (0, 1)).all(),
# the form it replaced, as the verdict: whether the entries pass as 0 or 1
_BINARY_ENTRY_CASES = [
    (np.array([[0, 1, 1]], dtype=np.uint8), True),
    (np.array([[1, -1]], dtype=np.int8), False),
    (np.array([[1, 255]], dtype=np.uint8), False),
    (np.array([[1, 2]]), False),
    (np.array([[1, 0.5]]), False),
    (np.array([[1, np.nan]]), False),
    (np.array([[1, np.inf]]), False),
    (np.array([[1.0, -0.0]]), True),
    (np.array([[True, False]]), True),
    (np.array([["1", "0"]]), False),
    (np.array([[1, 0]], dtype=object), True),
    (np.array([[1 + 0j, 0j]]), True),
    (np.array([[1 + 1j, 0j]]), False),
    (np.zeros((0, 3)), True),
]


class TestCheckBinaryRows:
    @pytest.mark.filterwarnings("ignore:Casting complex values")
    @pytest.mark.parametrize("arr, binary", _BINARY_ENTRY_CASES)
    def test_accepts_exactly_the_entries_isin_accepts(self, arr, binary):
        assert bool(np.isin(arr, (0, 1)).all()) is binary
        if binary:
            out = _check_binary_rows(arr)
            assert out.dtype == np.float64 and out.shape == arr.shape
        else:
            with pytest.raises(ValueError, match="0 or 1"):
                _check_binary_rows(arr)


def label_similarity_oracle(a, b):
    """Cosine similarity of two 0/1 label lists, in plain Python."""
    inter = sum(x * y for x, y in zip(a, b))
    return inter / math.sqrt(sum(a) * sum(b))


class TestLabelSimilarity:
    def test_identical_vectors_give_one(self):
        mat = label_similarity_matrix([[1, 0, 1], [1, 0, 1], [1, 1, 1]])
        assert mat[0, 1] == mat[1, 0] == 1.0
        assert np.diagonal(mat).tolist() == [1.0, 1.0, 1.0]

    def test_disjoint_supports_give_zero(self):
        mat = label_similarity_matrix([[1, 0, 0], [0, 1, 1]])
        assert mat[0, 1] == mat[1, 0] == 0.0

    def test_cosine_worked_example(self):
        # dot = 1, norms sqrt(2) and 1
        expected = 1.0 / math.sqrt(2.0)
        assert label_similarity_matrix([[1, 1, 0], [1, 0, 0]])[0, 1] == pytest.approx(expected, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            label_similarity_matrix([[0, 0], [1, 0]])

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"expected a \(B, N\) label matrix"):
            label_similarity_matrix([1, 0, 1])

    @given(label_vectors(), label_vectors())
    def test_symmetric_and_bounded(self, a, b):
        mat = label_similarity_matrix([a, b])
        assert mat[0, 1] == mat[1, 0]
        assert 0.0 <= mat[0, 1] <= 1.0

    def test_matrix_agrees_with_pairs(self):
        rng = np.random.default_rng(5)
        labels = (rng.random((7, 4)) < 0.5).astype(np.uint8)
        labels[labels.sum(axis=1) == 0, 0] = 1
        mat = label_similarity_matrix(labels)
        rows = labels.tolist()
        for i in range(7):
            for j in range(7):
                assert mat[i, j] == pytest.approx(label_similarity_oracle(rows[i], rows[j]), abs=1e-15)


def pairwise_euclidean_loop(x):
    """Exact distances from one fresh row-difference array per row: the oracle."""
    b = x.shape[0]
    dist = np.zeros((b, b))
    for i in range(b - 1):
        diff = x[i + 1 :] - x[i]
        row = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
    return dist


def max_exponent(x):
    """The power of two that brings the largest |entry| into [0.5, 1)."""
    return int(np.frexp(np.abs(x).max())[1])


def rescaled_loop(x):
    """The oracle on rows rescaled by a power of two, so no square over- or
    underflows; where the plain loop neither overflows nor underflows it is
    bit-identical to it."""
    e = max_exponent(x)
    return np.ldexp(pairwise_euclidean_loop(np.ldexp(x, -e)), e)


def distance_bound(d):
    """The documented accuracy of ``pairwise_euclidean``, relative."""
    return 2.0**-41 + (d + 4) * 2.0**-53


def assert_within_bound(got, x):
    """Every entry within the documented bound of the oracle (which may be
    off by its own rounding, (d + 4) * 2**-53 relative), the same zeros,
    exact symmetry and a zero diagonal."""
    ref = rescaled_loop(x)
    assert np.isfinite(got).all()
    assert np.array_equal(got, got.T)
    assert np.all(np.diagonal(got) == 0.0)
    assert np.array_equal(got == 0.0, ref == 0.0)
    tol = (distance_bound(x.shape[1]) + (x.shape[1] + 4) * 2.0**-53) * ref
    assert np.all(np.abs(got - ref) <= tol)


@st.composite
def clustered_rows(draw):
    """Near-duplicate clusters (down to exact copies) or integer-grid rows
    with ties, at a common offset and an overall scale."""
    b = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-3, 4, size=(b, d)).astype(np.float64)
    else:
        centres = rng.normal(size=(draw(st.integers(1, 4)), d))
        spread = draw(st.sampled_from([0.0, 1e-3, 1e-6, 1e-9, 1e-12]))
        x = centres[rng.integers(len(centres), size=b)] + spread * rng.normal(size=(b, d))
    x += draw(st.sampled_from([0.0, 1.0, 1e6]))
    return x * draw(st.sampled_from([1e-160, 1.0, 1e150]))


# unpadded, the Gram product of the first two shapes differs between 1 and
# 2 OpenBLAS threads, and with only its output dimension padded, that of the
# last three; the widths 64 to 128 are training's distance rows
_THREAD_SCRIPT = """
import hashlib
import numpy as np
from tripmine.similarity import pairwise_euclidean
for b, d in ((100, 1024), (161, 1024), (161, 17), (7, 3), (100, 64), (100, 96), (100, 128),
             (100, 500), (100, 700), (100, 1030)):
    x = np.random.default_rng(b * 7 + d).normal(size=(b, d))
    print(hashlib.sha256(pairwise_euclidean(x).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("call, message", [
    (lambda: pairwise_euclidean(np.zeros(3)), "expected a (B, d) embedding matrix, got shape (3,)"),
    # the centred entry of the row holding the minimum overflows
    (lambda: pairwise_euclidean([[-1.7e308], [1.7e308], [1.7e308]]), "embedding distances overflow float64"),
    (lambda: minmax_normalize(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: minmax_normalize(np.eye(2)), "distance matrix must have a zero diagonal"),
    (lambda: minmax_normalize([[0.0, 1.0], [2.0, 0.0]]), "distance matrix must be symmetric"),
], ids=["embedding-shape", "column-spread-overflow", "square", "diagonal", "symmetric"])
def test_rejects_input_it_cannot_measure(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# per inner width and output width, the heights 1-300 at which the rows of
# a product differ from the same rows of a 1,100-row product
_HEIGHT_SCRIPT = """
import numpy as np
from tripmine.similarity import padded_matmul
rng = np.random.default_rng(0)
for k in (8, 128, 384, 416, 512, 1024, 2048):
    for n in (32, 64):
        a, b = rng.normal(size=(1100, k)), rng.normal(size=(k, n))
        full = padded_matmul(a, b)
        print(f"{k}x{n}:" + ",".join(str(m) for m in range(1, 301)
                                     if padded_matmul(a[:m], b).tobytes() != full[:m].tobytes()))
"""


class TestPaddedMatmul:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_do_not_depend_on_the_product_height(self, stdout_at_blas_threads, threads):
        # past an inner width of 384, OpenBLAS sums a short product in its
        # small-matrix kernel, in another order; padding leaves that kernel
        lines = stdout_at_blas_threads(_HEIGHT_SCRIPT, threads)
        assert len(lines) == 14 and all(line.endswith(":") for line in lines), lines

    @pytest.mark.parametrize("m, k, n", [(100, 128, 64), (100, 64, 1024), (32, 32, 32), (1, 64, 96)])
    def test_aligned_shapes_give_the_plain_product(self, m, k, n):
        # a one-row product is the first row of the plain two-row one
        rng = np.random.default_rng(m + k + n)
        a, b = rng.normal(size=(max(m, 2), k)), rng.normal(size=(k, n))
        assert padded_matmul(a[:m], b).tobytes() == (a @ b)[:m].tobytes()

    @pytest.mark.parametrize("m, k, n", [(1, 1, 1), (7, 3, 5), (100, 100, 64), (64, 500, 64), (100, 50, 1030),
                                         (400, 390, 64), (3, 64, 33)])
    def test_unaligned_shapes_within_the_rounding_of_the_sum(self, m, k, n):
        # against a long double product, which is exact to its own rounding;
        # a k-term sum in any order is within k u / (1 - k u) of sum |a_i b_i|
        rng = np.random.default_rng(m + k + n)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
        got = padded_matmul(a, b)
        assert got.shape == (m, n) and got.dtype == np.float64
        exact = a.astype(np.longdouble) @ b.astype(np.longdouble)
        u = 2.0**-53 + float(np.finfo(np.longdouble).eps) / 2
        tol = k * u / (1 - k * u) * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(got - exact) <= tol)


class TestPairwiseEuclidean:
    @pytest.mark.parametrize("b", [1, 2, 3, 7, 32, 161])
    @pytest.mark.parametrize("d", [1, 3, 17, 1024])
    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e150])
    def test_bit_identical_to_per_row_loop(self, b, d, scale):
        # the exact re-measure of near pairs is the loop on rescaled rows
        x = np.random.default_rng(b * 7 + d).normal(size=(b, d)) * scale
        e = max_exponent(x)
        rows_i, rows_j = np.triu_indices(b, 1)
        got = np.ldexp(_scaled_row_distances(x, rows_i, rows_j, e), e)
        want = rescaled_loop(x)[rows_i, rows_j]
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @pytest.mark.parametrize("b", [1, 2, 3, 7, 32, 161])
    @pytest.mark.parametrize("d", [1, 3, 17, 1024])
    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e150])
    def test_within_bound_of_per_row_loop(self, b, d, scale):
        x = np.random.default_rng(b * 7 + d).normal(size=(b, d)) * scale
        assert_within_bound(pairwise_euclidean(x), x)

    @pytest.mark.parametrize("scale, d, b", [(1e155, 1024, 32), (1e-160, 1, 32), (1e-160, 1, 161)])
    def test_finite_and_within_bound_where_squares_leave_float64(self, scale, d, b):
        # squares of these distances overflow (1e155) or underflow (1e-160)
        x = np.random.default_rng(b * 7 + d).normal(size=(b, d)) * scale
        assert_within_bound(pairwise_euclidean(x), x)

    @given(clustered_rows())
    @settings(deadline=None)
    def test_near_duplicates_offsets_and_ties_within_bound(self, x):
        assert_within_bound(pairwise_euclidean(x), x)

    def test_common_offset_near_float64_maximum(self):
        x = np.array([[1.7e308, 0.0], [1.7e308 * (1 - 1e-10), 1.0], [1.7e308, 0.0]])
        got = pairwise_euclidean(x)
        assert got[0, 2] == 0.0
        assert_within_bound(got, x)

    @pytest.mark.parametrize("rows", [[[1e308, 0.0], [-1e308, 0.0]],
                                      [[1.5e308, 1.5e308], [-1.5e308, -1.5e308], [0.0, 0.0]]])
    def test_rejects_distances_beyond_float64(self, rows):
        with pytest.raises(ValueError, match="overflow"):
            pairwise_euclidean(rows)

    def test_bit_identical_across_blas_thread_counts(self, stdout_at_blas_threads):
        one = stdout_at_blas_threads(_THREAD_SCRIPT, 1)
        assert len(one) == 10
        assert stdout_at_blas_threads(_THREAD_SCRIPT, 2) == one

    def test_identical_rows_have_zero_distance(self):
        d = pairwise_euclidean([[1.0, 2.0], [1.0, 2.0]])
        assert d[0, 1] == 0.0

    def test_three_four_five(self):
        d = pairwise_euclidean([[0.0, 0.0], [3.0, 4.0]])
        assert d[0, 1] == 5.0

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 2))
        d = pairwise_euclidean(x)
        for i in range(5):
            for j in range(5):
                naive = math.sqrt(sum((x[i, t] - x[j, t]) ** 2 for t in range(2)))
                assert abs(d[i, j] - naive) < 1e-12

    def test_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(12)
        d = pairwise_euclidean(rng.normal(size=(6, 3)))
        assert np.array_equal(d, d.T)
        assert np.all(np.diagonal(d) == 0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        d = pairwise_euclidean(rng.normal(size=(6, 3)))
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            pairwise_euclidean([[0.0, np.nan], [1.0, 2.0]])


def _symmetric(values, b):
    d = np.zeros((b, b))
    iu = np.triu_indices(b, k=1)
    d[iu] = values
    return d + d.T


class TestMinmaxNormalize:
    def test_hand_arithmetic_example(self):
        d = _symmetric([2.0, 4.0, 6.0], 3)
        norm = minmax_normalize(d)
        off = sorted(norm[~np.eye(3, dtype=bool)].tolist())
        assert off == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]

    def test_degenerate_batch_maps_to_zero(self):
        d = _symmetric([3.0, 3.0, 3.0], 3)
        assert np.all(minmax_normalize(d) == 0.0)

    def test_already_normalized_is_unchanged(self):
        d = _symmetric([0.0, 0.5, 1.0], 3)
        assert np.allclose(minmax_normalize(d), d)

    def test_rejects_single_item(self):
        with pytest.raises(ValueError, match="at least 2"):
            minmax_normalize(np.zeros((1, 1)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        d = _symmetric([1.0, bad, 2.0], 3)
        with pytest.raises(ValueError, match="non-finite"):
            minmax_normalize(d)

    @given(st.lists(st.floats(0.1, 100.0), min_size=6, max_size=6))
    def test_non_degenerate_output_spans_unit_interval(self, values):
        d = _symmetric(values, 4)
        norm = minmax_normalize(d)
        off = norm[~np.eye(4, dtype=bool)]
        assert np.all((0.0 <= off) & (off <= 1.0))
        if max(values) > min(values):
            assert off.min() == 0.0
            assert off.max() == 1.0

    @pytest.mark.parametrize("b", [2, 3, 17, 100])
    def test_bit_identical_to_the_masked_expression(self, b):
        rng = np.random.default_rng(b)
        values = rng.choice([0.0, -0.0, 0.25, 1.5, 2.0], size=b * (b - 1) // 2)
        values[rng.random(values.size) < 0.5] = rng.random() * 3
        for d in (_symmetric(values, b), _symmetric(rng.random(values.size) * 1e-300, b)):
            off = ~np.eye(b, dtype=bool)
            lo, hi = d[off].min(), d[off].max()
            expected = np.zeros_like(d)
            if hi > lo:
                expected[off] = (d[off] - lo) / (hi - lo)
            assert minmax_normalize(d).tobytes() == expected.tobytes()

    @given(st.lists(st.floats(0.1, 100.0), min_size=6, max_size=6, unique=True))
    def test_preserves_off_diagonal_order(self, values):
        d = _symmetric(values, 4)
        norm = minmax_normalize(d)
        iu = np.triu_indices(4, k=1)
        raw_order = np.argsort(d[iu])
        norm_order = np.argsort(norm[iu])
        assert np.array_equal(raw_order, norm_order)
