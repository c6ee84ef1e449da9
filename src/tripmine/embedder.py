"""Small fully connected embedding network with hand-derived gradients.

The architecture is fixed: ReLU on hidden layers, identity on the output
layer, optional row-wise L2 normalization of the output (off by default).
Gradients of the margin loss are derived analytically for exactly this
architecture; there is no general autodiff.

The margin loss operates on RAW Euclidean distances between embedding rows.
The batch min-max normalization is used only by the selection scores, never
inside the loss, so batch extremes do not couple into the gradient. Training
reads the loss and its gradient off the batch's (B, B) raw distance matrix,
the same one the miner uses.

The output layer is linear, so the embeddings ``e = h W + b`` of the last
hidden activations ``h`` are ``[h, 1] A`` for ``A = [W; b^T]``, and their
dot products are those of the metric ``A A^T`` of the hidden width.
Training and retrieval measure on rows of that width (``distance_factor``,
``forward``): without L2 normalization the rows ``h F``, ``F F^T = W W^T``
(the bias cancels from every distance); with it the rows ``[h, 1] F``,
``F F^T = A A^T``, scaled to unit length, which are as far apart as the
normalized embeddings. ``F`` is a Cholesky factor when the hidden layer is
at most 96 wide and narrower than the embedding, else ``W`` or ``A``
itself; ``backward`` works in the same width and never forms the d-wide
embedding.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import TripletSet, float32_or_float64
from .similarity import _CHUNK_VALUES, _scaled_row_distances, padded_matmul, pairwise_euclidean

CHECKPOINT_MAGIC = b"TMEMB002"
# the format before the flags field; still read, with l2_normalize taken from the caller
CHECKPOINT_MAGIC_V1 = b"TMEMB001"
# bits of the TMEMB002 flags field
FLAG_L2_NORMALIZE = 1
# the widest hidden layer whose W W^T is factored: with OpenBLAS 0.3.31 on a
# 2-core AVX-512 Xeon VM, np.linalg.cholesky gave different bits at 1 and 2
# threads for every size from 100 up that was tried, and the Gram product
# w @ w.T for most sizes from 97 up, but for none up to 96 (d up to 2100)
_CHOLESKY_MAX = 96
# float32 rows are used only where every a-priori row norm, weight norm and
# bias norm is at most this and the result's row-norm bound at least its
# inverse: squares and products then stay far inside float32, and underflow
# far below the rows' rounding
_FLOAT32_SCALE = 2.0**40
# smallest normal numbers: each product's underflow, gradual or flushed to zero
_F32_TINY = float(np.finfo(np.float32).tiny)
_F64_TINY = float(np.finfo(np.float64).tiny)
# covers the rounding of the computed norms and of the bound's own float64 arithmetic
_NORM_SLACK = 1.0 + 2.0**-20


@dataclass
class Embedder:
    """Per-layer weight matrices (fan_in, fan_out) and bias vectors."""

    weights: list
    biases: list
    l2_normalize: bool = False

    @classmethod
    def init(cls, layer_dims, rng: np.random.Generator, l2_normalize: bool = False) -> "Embedder":
        """Glorot-uniform weights (limit sqrt(6 / (fan_in + fan_out))), zero biases."""
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer dims must list at least input and output sizes, got {dims}")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out, dtype=np.float64))
        return cls(weights=weights, biases=biases, l2_normalize=l2_normalize)

    @property
    def layer_dims(self) -> tuple:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def parameters(net: Embedder) -> list:
    """Flat parameter list in the fixed order [W0, b0, W1, b1, ...]."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.extend((w, b))
    return out


def _feature_matrix(net: Embedder, features) -> np.ndarray:
    x = float32_or_float64(features)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        raise ValueError(
            f"feature matrix of shape {x.shape} does not match input dim {net.layer_dims[0]}"
        )
    return x


def _hidden_cached(net: Embedder, features):
    """Activations ``[x, a_1, ..., a_h]`` up to the last hidden layer, in the
    precision of the net's weights (the features cast to it). ReLU runs in
    place, so ``a_l > 0`` is its mask: the set ``z_l > 0``, signed zeros and NaN included."""
    dtype = net.weights[0].dtype
    x = _feature_matrix(net, features).astype(dtype, copy=False)
    # float32 rows only screen (``float32_rows``), so their bits need not
    # be the same at every thread count
    matmul = padded_matmul if dtype == np.float64 else np.matmul
    acts = [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = matmul(acts[-1], w)
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    return acts


def _forward_cached(net: Embedder, features):
    acts = _hidden_cached(net, features)
    a = padded_matmul(acts[-1], net.weights[-1]) + net.biases[-1]
    acts.append(a)
    return acts, _unit_rows(a) if net.l2_normalize else a


def _triplet_set(triplets) -> TripletSet:
    return triplets if isinstance(triplets, TripletSet) else TripletSet.from_triplets(triplets)


@np.errstate(over="ignore", invalid="ignore")
def distance_factor(net: Embedder) -> np.ndarray:
    """The map ``F`` whose rows measure the net's embedding distances in the
    last hidden width: (h, k) with ``F F^T = W W^T`` for the output weights
    ``W`` (h, d), or with ``l2_normalize`` on (h + 1, k) with
    ``F F^T = A A^T`` for ``A = [W; b^T]``, ``b`` the output bias.

    Then ``|(h_i - h_j) F| = |e_i - e_j|`` for embeddings ``e = h W + b``,
    and the rows ``r = [h, 1] F`` have ``r_i . r_j = e_i . e_j``, so the
    unit rows ``r / |r|`` are as far apart as the normalized embeddings,
    all up to rounding. ``F`` is ``W`` itself (``A`` with ``l2_normalize``),
    which is exact, where h >= d, h > ``_CHOLESKY_MAX`` or ``W W^T`` is not
    positive definite (a rank-deficient ``W`` such as zero weights);
    otherwise the Cholesky factor ``L`` of ``W W^T``, with ``l2_normalize``
    bordered by the bias: ``[[L, 0], [l^T, c]]`` with ``L l = W b`` and
    ``c = sqrt(max(|b|^2 - |l|^2, 0))``. That border needs no factorization
    of the singular ``A A^T`` of a zero bias (every initialization's), where
    it is ``l = 0``, ``c = 0``. ``l`` is the last row of the Cholesky factor
    of ``W W^T`` bordered by ``W b`` and ``2 |b|^2 + 1``, a pivot that stays
    positive while ``|l| <= |b|`` holds to within rounding. A ``W W^T``
    whose diagonal leaves the normal range is factored as that of
    ``2**-e W`` (and ``2**-e b``), times ``2**e`` (``_gram_at_scale``).

    The computed ``L`` satisfies ``L L^T = W W^T + E`` with
    ``|E_ij| <= (d + h + 2) u |W_i| |W_j|`` (rows ``W_i``, u = 2**-53;
    Higham, Accuracy and Stability of Numerical Algorithms, thm. 10.3 and
    sec. 3.5): the Gram product is within ``d u |W_i| |W_j|``, and the
    factorisation is backward stable with each row of ``L`` no longer than
    the matching row of ``W``. That bound on ``E`` does not depend on the
    conditioning of ``W``, but the distances do: a pair
    ``delta = h_i - h_j`` has its squared distance moved by up to
    ``A = (d + h + 2) u sigma^2``, ``sigma = sum_a |delta_a| |W_a|``, so its
    relative distance error scales like ``(d + h) u kappa(W)^2`` and reaches
    about ``sqrt((d + h) u) sigma`` for pairs nearer than ``sqrt(A)``, where
    the forward's own error is O(u). The border adds ``b`` as one more row
    of ``A`` to the same bound, ``c`` included: it loses relative accuracy
    as ``b`` nears the row space of ``W``, but its square moves ``|r|^2``
    by no more than that bound. ``TestDistanceFactor`` holds the factor
    distances to it.
    """
    w = net.weights[-1]
    h, d = w.shape
    if h < d and h <= _CHOLESKY_MAX:
        # plain: a symmetric rank-k product, thread-stable up to _CHOLESKY_MAX,
        # as is the factorization bordered to _CHOLESKY_MAX + 1
        e, w_e, gram = _gram_at_scale(w, np.matmul)
        if net.l2_normalize:
            # einsum sums in its own loops, at any BLAS thread count
            b = np.ldexp(net.biases[-1], -e)
            b_sq = np.einsum("i,i->", b, b)
            bordered = np.empty((h + 1, h + 1))
            bordered[:h, :h] = gram
            bordered[h, :h] = bordered[:h, h] = np.einsum("ij,j->i", w_e, b)
            bordered[h, h] = 2.0 * b_sq + 1.0
            gram = bordered
        try:
            low = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            low = None
        if low is not None and np.isfinite(low).all():
            if net.l2_normalize:
                border = low[h, :h]
                low[h, h] = np.sqrt(max(b_sq - np.einsum("i,i->", border, border), 0.0))
            return np.ldexp(low, e) if e else low
    return np.vstack([w, net.biases[-1]]) if net.l2_normalize else w


def _gram_at_scale(f, matmul):
    """``(e, g, matmul(g, g^T))`` for ``g = 2**-e f``, exactly: e = 0 unless
    the largest diagonal entry of ``f f^T`` overflows or falls below the
    normal range, where ``e`` puts the largest entry of ``g`` in [0.5, 1)."""
    gram = matmul(f, f.T)
    if _F64_TINY <= gram.diagonal().max() < np.inf:
        return 0, f, gram
    e = int(np.frexp(np.abs(f).max())[1])
    f = np.ldexp(f, -e)
    return e, f, matmul(f, f.T)


def _unit_rows(rows):
    """``rows / |rows|`` per row; a zero row stays zero. A nonzero row whose
    square sum overflows or leaves the normal range is scaled by a power of
    two, exactly, and normalized again; every other row keeps its bits."""
    sq = np.einsum("ij,ij->i", rows, rows)
    norms = np.sqrt(sq)
    unit = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
    odd = np.flatnonzero(~((sq >= np.finfo(sq.dtype).tiny) & (sq < np.inf)))
    odd = odd[rows[odd].any(axis=1)]
    if odd.size:
        part = rows[odd]
        part = np.ldexp(part, -np.frexp(np.abs(part).max(axis=1))[1][:, None])
        unit[odd] = part / np.sqrt(np.einsum("ij,ij->i", part, part))[:, None]
    return unit


def _rows(net: Embedder, features, factor, input_sq=None) -> np.ndarray:
    """``forward``'s rows in the precision of ``net``'s weights, float64 or
    float32, embedded in row blocks. ``input_sq``, a list, gets each cast
    block's largest squared row norm, summed in that precision."""
    dtype = net.weights[0].dtype
    x = _feature_matrix(net, features)
    width = net.layer_dims[-1] if factor is None else factor.shape[1]
    # _CHUNK_VALUES counts float64 values: twice as many float32 ones fit
    step = max(1, _CHUNK_VALUES * 8 // dtype.itemsize // max(*net.layer_dims[:-1], width))
    stops = [*range(step, len(x), step), len(x)]
    matmul = padded_matmul if dtype == np.float64 else np.matmul
    rows = None if len(stops) == 1 else np.empty((len(x), width), dtype=dtype)
    start = 0
    for stop in stops:
        if factor is None:
            block = _forward_cached(net, x[start:stop])[1]
        else:
            acts = _hidden_cached(net, x[start:stop])
            if input_sq is not None:
                input_sq.append(np.einsum("ij,ij->i", acts[0], acts[0]).max())
            if net.l2_normalize:  # [h, 1] F as h F[:h] + F[h], a product of the plain rows' shape
                block = _unit_rows(matmul(acts[-1], factor[:-1]) + factor[-1])
            else:
                block = matmul(acts[-1], factor)
        if not np.isfinite(block).all():
            raise FloatingPointError("embeddings contain non-finite values")
        if rows is None:
            return block
        rows[start:stop] = block
        start = stop
    return rows


@np.errstate(over="ignore", invalid="ignore")
def forward(net: Embedder, features, factor=None) -> np.ndarray:
    """Embed a (B, F) feature matrix into (B, d); or, given ``factor =
    distance_factor(net)``, into rows of the factor's width whose pairwise
    Euclidean distances are those of the (B, d) embedding: ``h @ factor``
    for the last hidden activations ``h``, or with ``l2_normalize`` the rows
    ``[h, 1] @ factor`` scaled to unit length. Rows that are not finite
    raise ``FloatingPointError``, without numpy's warnings.

    The rows are embedded in blocks of ``_CHUNK_VALUES // widest`` rows,
    ``widest`` the widest of the input, the hidden layers and the result, so
    each block's intermediates stay near 1 MB, within L2: 1,024 rows for 128
    features, hidden 64 and d = 1024 with a ``factor`` (twice as many in
    ``float32_rows``), 128 rows without one. A row's float64 products sum in
    the same order in any block, one row included (``padded_matmul``), so
    the result is bit-identical to one pass. Features are read in their own
    type, float32 or float64, and each block is cast to float64 as it is
    embedded."""
    return _rows(net, features, factor)


def _spectral_norm(w: np.ndarray) -> float:
    """An upper bound on the largest singular value of ``w``, from the
    largest eigenvalue of its smaller Gram matrix: that eigenvalue is
    computed within a few (n + m) u ``|w|_F^2``, far inside the 2**-30
    ``|w|_F^2`` added."""
    gram = w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0) + 2.0**-30 * np.trace(gram)))


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n = n u / (1 - n u): an n-term dot product, summed in
    any order, is within gamma_n times the sum of its |products|."""
    return n * unit / (1.0 - n * unit)


@np.errstate(over="ignore", invalid="ignore")
def float32_rows(net: Embedder, features, factor):
    """``(rows, e)``: ``forward(net, features, factor)`` computed in float32,
    and a bound ``e`` on every row's Euclidean distance from its float64
    row; or None where float32 cannot carry the rows: ``l2_normalize`` on
    (the bound is not carried through the normalization), a weight, bias
    or a-priori row norm outside the float32-safe range ``_FLOAT32_SCALE``
    states, or rows that overflow float32 (a NaN feature included). The
    weight and bias norms are tested before the float32 pass, the input
    norm after it.

    The weights and ``factor`` are cast once, and every product is computed
    in float32, unpadded: these rows only screen (``retrieval.knn_retrieve``),
    so their bits may change with the thread count.

    The bound ``e``. A layer z = h W + b (ReLU on hidden layers; the last
    product h F has no bias) of n inputs and m outputs, computed from an
    input h' with |h' - h| <= err and |h| <= size (row norms), with
    W' = fl(W) and b' = fl(b), is within
    gamma_{n+1} (|h'| |W'|_F + |b'|) + 2 (n + 1) tiny sqrt(m) of h' W' + b'
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1: an
    (n+1)-term sum in any order is within gamma_{n+1} of its |terms|, and the
    row of |h'| |W'| is at most |h'| |W'|_F long; each product's underflow
    adds at most tiny). So |z' - z| <= that + err |W'|_2 + size |W' - W|_2
    + |b' - b|, with |W' - W|_2 <= |W' - W|_F <= u |W|_F + tiny sqrt(n m)
    and |b' - b| <= u |b| + tiny sqrt(m). ReLU is 1-Lipschitz entrywise, so
    it keeps err, and |h| <= size |W|_2 + |b|. The spectral norms come from
    the largest eigenvalue of the smaller Gram matrix, the input's size from
    the float32 square sums of the cast rows. The float64 rows obey the same
    recursion with u = 2**-53 and no casts; e is the sum of the two. The
    float32 path is taken only while every size, |W|_F and |b| is at most
    2**40 and the last size at least 2**-40: squares and products stay below
    2**82, far inside float32, and the tiny terms far below the rows'
    rounding.
    """
    if net.l2_normalize:
        return None
    # per product: the matrix, its Frobenius norm and its bias norm (0 for
    # factor), the norms grown by _NORM_SLACK
    products = [(w, np.linalg.norm(w) * _NORM_SLACK, 0.0 if b is None else np.linalg.norm(b) * _NORM_SLACK)
                for w, b in [*zip(net.weights[:-1], net.biases[:-1]), (factor, None)]]
    if not max(max(frob, b_norm) for _, frob, b_norm in products) <= _FLOAT32_SCALE:
        return None
    net32 = Embedder([w.astype(np.float32) for w in net.weights], [b.astype(np.float32) for b in net.biases])
    input_sq = []
    try:
        rows = _rows(net32, features, factor.astype(np.float32), input_sq)
    except FloatingPointError:  # float32 overflow; the float64 rows decide
        return None
    # per product: spectral and Frobenius norms of the matrix, bias norm, shape
    layers = [(_spectral_norm(w) * _NORM_SLACK, frob, b_norm, *w.shape) for w, frob, b_norm in products]
    n_in, u32 = net.layer_dims[0], 2.0**-24
    # |x| <= |x32| + u |x| + tiny sqrt(F), and |x32|^2 from its float32 sum
    x32_norm = np.sqrt((float(max(input_sq)) + n_in * _F32_TINY) / (1.0 - _gamma(n_in, u32)))
    x_norm = (x32_norm + _F32_TINY * np.sqrt(n_in)) / (1.0 - u32) * _NORM_SLACK

    def bound(unit, tiny, cast):
        """Row-norm bounds on the computed rows' error and on the exact
        rows, and the largest row, weight or bias norm on the way."""
        err = cast * (unit * x_norm + tiny * np.sqrt(n_in))
        size = top = x_norm
        for spec, frob, b_norm, n, m in layers:
            # the casts of the matrix and the bias, as matrix and vector norms
            d_w = cast * (unit * frob + tiny * np.sqrt(n * m))
            d_b = cast * (unit * b_norm + tiny * np.sqrt(m))
            rounding = (_gamma(n + 1, unit) * ((size + err) * (frob + d_w) + b_norm + d_b)
                        + 2 * (n + 1) * tiny * np.sqrt(m))
            err = rounding + err * (spec + d_w) + size * d_w + d_b
            size = size * spec + b_norm
            top = max(top, frob, b_norm, size)
        return err, size, top

    err32, size, top = bound(u32, _F32_TINY, 1.0)
    if not (top <= _FLOAT32_SCALE and size >= 1.0 / _FLOAT32_SCALE):
        return None
    return rows, (err32 + bound(2.0**-53, _F64_TINY, 0.0)[0]) * _NORM_SLACK


def hinge_terms(d_ap, d_an, alpha: float) -> np.ndarray:
    """Per-triplet margin terms max(d(a,p) - d(a,n) + alpha, 0)."""
    return np.maximum(np.asarray(d_ap, dtype=np.float64) - np.asarray(d_an, dtype=np.float64) + alpha, 0.0)


def triplet_loss(embeddings, triplets, alpha: float) -> float:
    """Sum of hinge terms over all triplets, on raw Euclidean distances.

    Zero exactly when every triplet satisfies d(a,n) >= d(a,p) + alpha.
    """
    if alpha < 0:
        raise ValueError("margin alpha must be >= 0")
    t = _triplet_set(triplets).triplets
    if t.shape[0] == 0:
        return 0.0
    e = np.asarray(embeddings, dtype=np.float64)
    d_ap = _scaled_row_distances(e, t[:, 0], t[:, 1])
    d_an = _scaled_row_distances(e, t[:, 0], t[:, 2])
    return float(hinge_terms(d_ap, d_an, alpha).sum())


def _masked_sum(values: np.ndarray, mask: np.ndarray) -> float:
    """``values[mask].sum()``: the same values, summed in the same order.
    ``values`` (C-contiguous) is overwritten.

    One 1 MB chunk at a time, the selected values are gathered with
    ``flatnonzero`` and ``take`` and moved to the front of ``values``, which
    then holds ``values[mask]`` as its prefix. A boolean-mask gather branches
    on every element and took 4x as long on the half-active masks of a
    bas-bis batch, and it would allocate up to 8 more bytes per triplet.
    """
    flat_v, flat_m = values.reshape(-1), mask.reshape(-1)
    k = 0
    for start in range(0, flat_m.size, _CHUNK_VALUES):
        part = slice(start, start + _CHUNK_VALUES)
        picked = flat_v[part].take(np.flatnonzero(flat_m[part]))
        # k <= start: the write never reaches values not yet read
        flat_v[k:k + picked.size] = picked
        k += picked.size
    return float(flat_v[:k].sum())


def backward(net: Embedder, features, triplets, alpha: float, dist_raw, factor=None) -> tuple:
    """``(loss, grads)``: the margin loss and its analytic gradient through
    the network, one array per parameter in ``parameters(net)`` order.

    ``dist_raw`` is the (B, B) Euclidean distance matrix of the batch's
    embeddings (its ``BatchView.dist_raw``, measured on ``forward``'s rows).
    The loss and the pair coefficients are read off it over the
    ``TripletSet`` block (a raw (T, 3) list goes in through
    ``TripletSet.from_triplets``): each anchor's (P,) positive and (N,)
    negative distances broadcast to its pre-hinge values, so per-triplet work
    is elementwise and memory is O(B^2 + T), never O(T * d).

    The hinge subgradient at a pre-hinge value of exactly 0 is 0 (the triplet
    is treated as inactive), and likewise ReLU'(0) = 0.

    Only the rows with a non-zero entry in ``S`` (the rows active triplets
    touch, less pulls that cancel exactly) are re-embedded and carried
    through the layers: the rest get an exactly-zero embedding gradient and
    add nothing to any parameter gradient.

    The touched rows are embedded only to their last hidden activations
    ``h``; ``factor`` is the net's ``distance_factor`` (computed when not
    given), and ``Lap(S) = diag(S 1) - S``. Without ``l2_normalize`` the
    embedding gradient would be ``Lap(S) h W``, so the output weights get
    ``(h^T Lap(S) h) W`` and ``h`` gets ``Lap(S) h F F^T``. The output bias
    gradient is exact zeros: the loss reads only distances, which a common
    shift leaves alone. With ``l2_normalize`` the rows ``r = [h, 1] F`` have
    norms ``D = diag |r_i|`` and unit rows ``u``; with
    ``M = D^-1 (Lap(S) - diag(rowsum(Lap(S) * u u^T))) D^-1`` the embedding
    gradient would be ``M [h, 1] A`` (``A = [W; b^T]``), so the output
    weights and bias get ``([h, 1]^T M [h, 1]) A`` and ``h`` gets
    ``(M r) F[:h]^T``. Nothing is d wide but the products with ``W`` (and
    ``F F^T`` where ``F`` is ``A`` itself). The unit rows do not depend on
    the scale of ``F``: ``F F^T`` is taken at ``4**-e`` (``_gram_at_scale``),
    which only the output layer's gradients carry, after their products with ``W``.
    """
    x = _feature_matrix(net, features)
    size = x.shape[0]
    dist = np.asarray(dist_raw, dtype=np.float64)
    if dist.shape != (size, size):
        raise ValueError(f"distance matrix of shape {dist.shape} does not match batch size {size}")
    tset = _triplet_set(triplets)
    cols = tset.columns()
    if min(c.min(initial=0) for c in cols) < 0 or max(c.max(initial=-1) for c in cols) >= size:
        raise ValueError(f"triplet indices must lie in [0, {size})")
    a_col, p_col, n_col = cols

    # pre-hinge values over the (H, P, N) block from (H, P, 1) and (H, 1, N)
    # reads; kept triples in C order are the anchor-major list, so the loss
    # sums the same values in the same order
    pre = np.subtract(dist[a_col, p_col], dist[a_col, n_col])
    pre += alpha
    active = pre > 0.0
    active &= tset.keep
    loss = _masked_sum(pre, active)
    if not active.any():
        return loss, [np.zeros_like(p) for p in parameters(net)]

    # coef[a, x] = #active triplets with (a, x) as the positive pair minus
    # #active with (a, x) as the negative pair; each adds +-(e_a - e_x) / D(a, x)
    # to row a and the opposite to row x. Each positive (negative) slot of the
    # block adds its count of active triplets, an exact integer, to its bin.
    n_bins = size * size
    coef = (np.bincount((a_col * size + p_col).ravel(), weights=active.sum(axis=2).ravel(), minlength=n_bins)
            - np.bincount((a_col * size + n_col).ravel(), weights=active.sum(axis=1).ravel(), minlength=n_bins)
            ).reshape(size, size)
    # subgradient choice at coincident points: zero direction
    m = np.divide(coef, dist, out=np.zeros((size, size)), where=dist > 0.0)
    s = m + m.T
    # s is symmetric, so an all-zero row is also an all-zero column
    touched = np.flatnonzero(s.any(axis=1))
    if touched.size < size:
        x = x[touched]
        s = s[np.ix_(touched, touched)]
    last = net.n_layers - 1
    grads = [None] * (2 * net.n_layers)
    if factor is None:
        factor = distance_factor(net)
    acts = _hidden_cached(net, x)
    h = acts[last]
    if net.l2_normalize:
        # the rows r = [h, 1] F have dot products [h, 1] G [h, 1]^T for
        # G = F F^T = A A^T. For unit rows u and S's zero diagonal, M is
        # D^-1 K D^-1 with K = diag(u_i . (S u)_i) - S
        h_one = np.ones((len(h), h.shape[1] + 1))
        h_one[:, :-1] = h
        with np.errstate(over="ignore", invalid="ignore"):
            e, _, gram = _gram_at_scale(factor, padded_matmul)
            h_gram = padded_matmul(h_one, gram)
            norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", h_gram, h_one), 0.0))
        if not (np.isfinite(gram).all() and np.isfinite(norms).all()):
            # a zero inverse norm would silently zero those rows' gradients
            raise FloatingPointError("squared norms of the l2 rows overflow float64")
        inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)[:, None]
        # h^ = D^-1 [h, 1], so u = h^ F and u_i . (S u)_i = (h^ G)_i . (S h^)_i
        scaled = h_one * inv
        s_scaled = padded_matmul(s, scaled)
        k_scaled = np.einsum("ij,ij->i", h_gram, s_scaled)[:, None] * scaled
        k_scaled *= inv
        k_scaled -= s_scaled
        # [h, 1]^T M [h, 1] = h^T K h^; [dW; db^T] = that times A. dW is the
        # plain path's d-wide product (and array size) plus a rank-one term
        inner = padded_matmul(scaled.T, k_scaled)
        w, b = net.weights[last], net.biases[last]
        d_w = padded_matmul(inner[:-1, :-1], w)
        d_w += inner[:-1, -1:] * b
        d_b = padded_matmul(inner[-1:, :-1], w)[0] + inner[-1, -1] * b
        grads[-2:] = np.ldexp(d_w, -2 * e, out=d_w), np.ldexp(d_b, -2 * e, out=d_b)
        if last > 0:
            # (M r) F[:h]^T = M [h, 1] G[:, :h]
            g = padded_matmul(k_scaled * inv, gram[:, :-1])
    else:
        lap_h = s.sum(axis=1)[:, None] * h - padded_matmul(s, h)
        grads[-2:] = padded_matmul(padded_matmul(h.T, lap_h), net.weights[last]), np.zeros_like(net.biases[last])
        if last > 0:
            g = padded_matmul(padded_matmul(lap_h, factor), factor.T)
    # g is now the gradient of the last hidden activations
    for l in range(last - 1, -1, -1):
        g *= acts[l + 1] > 0.0
        grads[2 * l:2 * l + 2] = padded_matmul(acts[l].T, g), g.sum(axis=0)
        if l > 0:
            g = padded_matmul(g, net.weights[l].T)
    return loss, grads


def _loss_and_kink_signature(net: Embedder, features, t: np.ndarray, alpha: float):
    acts, emb = _forward_cached(net, features)
    sig = [b"".join((a > 0.0).tobytes() for a in acts[1:-1])]
    if t.shape[0]:
        d_ap = _scaled_row_distances(emb, t[:, 0], t[:, 1])
        d_an = _scaled_row_distances(emb, t[:, 0], t[:, 2])
        pre = d_ap - d_an + alpha
        loss = float(pre[pre > 0.0].sum())
        sig.append((pre > 0.0).tobytes())
        sig.append((d_ap > 0.0).tobytes())
        sig.append((d_an > 0.0).tobytes())
    else:
        loss = 0.0
    return loss, b"".join(sig)


@dataclass(frozen=True)
class FiniteDifferenceReport:
    max_rel_error: float
    n_checked: int
    n_skipped: int


def finite_difference_check(net: Embedder, features, triplets, alpha: float,
                            step: float = 1e-5) -> FiniteDifferenceReport:
    """Compare the analytic gradient against central finite differences.

    Each parameter is perturbed by +/- step in place (and restored). A
    parameter whose perturbation crosses a kink (a triplet hinge flipping
    on/off, or a ReLU unit changing sign) is skipped and counted instead of
    polluting the error estimate. The per-parameter relative error is
    |analytic - fd| / max(|analytic|, |fd|, 1% of the largest analytic
    gradient magnitude); an all-zero comparison reports 0.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(features, dtype=np.float64)
    tset = _triplet_set(triplets)
    t = tset.triplets
    factor = distance_factor(net)
    grads = backward(net, x, tset, alpha, pairwise_euclidean(forward(net, x, factor)), factor)[1]
    g_scale = max((float(np.abs(g).max()) for g in grads if g.size), default=0.0)
    floor = max(0.01 * g_scale, 1e-12)
    worst = 0.0
    checked = skipped = 0
    for tensor, grad in zip(parameters(net), grads):
        flat_t = tensor.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_t.shape[0]):
            orig = flat_t[i]
            flat_t[i] = orig + step
            lp, sig_p = _loss_and_kink_signature(net, x, t, alpha)
            flat_t[i] = orig - step
            lm, sig_m = _loss_and_kink_signature(net, x, t, alpha)
            flat_t[i] = orig
            if sig_p != sig_m:
                skipped += 1
                continue
            fd = (lp - lm) / (2.0 * step)
            ga = float(flat_g[i])
            err = abs(ga - fd) / max(abs(ga), abs(fd), floor)
            worst = max(worst, err)
            checked += 1
    return FiniteDifferenceReport(max_rel_error=worst, n_checked=checked, n_skipped=skipped)


def save_checkpoint(net: Embedder, path) -> None:
    """Write the versioned binary checkpoint.

    Layout: 8 magic bytes "TMEMB002", uint32-LE flags (bit 0:
    ``l2_normalize``), uint32-LE count of layer dims, each layer dim as
    uint32-LE, then per layer the weight matrix (row-major float64-LE, shape
    dims[l] x dims[l+1]) followed by the bias vector (float64-LE, length
    dims[l+1]).
    """
    flags = FLAG_L2_NORMALIZE if net.l2_normalize else 0
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<2I", flags, len(net.layer_dims)))
        fh.write(struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims))
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path, l2_normalize: bool | None = None) -> Embedder:
    """Read a checkpoint written by ``save_checkpoint``, or a ``TMEMB001``
    one written before the flags field.

    A ``TMEMB002`` file carries its ``l2_normalize`` flag: ``None`` takes
    it, and a value that contradicts it raises ``ValueError`` naming the
    file. A ``TMEMB001`` file carries none, so ``l2_normalize`` (default
    off) applies.

    The sizes the header declares are checked against the file length before
    anything is allocated; a malformed file, or one holding a NaN or
    infinite parameter, raises ``ValueError`` naming it.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic not in (CHECKPOINT_MAGIC, CHECKPOINT_MAGIC_V1):
            raise ValueError(f"{path}: not an embedder checkpoint (bad magic)")
        head_size = 8 if magic == CHECKPOINT_MAGIC else 4
        head = fh.read(head_size)
        if len(head) < head_size:
            raise ValueError(f"{path}: checkpoint truncated in the header")
        if magic == CHECKPOINT_MAGIC:
            flags, n_dims = struct.unpack("<2I", head)
            if flags & ~FLAG_L2_NORMALIZE:
                raise ValueError(f"{path}: checkpoint sets unknown flags {flags:#x}")
            saved = bool(flags & FLAG_L2_NORMALIZE)
        else:
            (n_dims,) = struct.unpack("<I", head)
            saved = None
        header_size = len(CHECKPOINT_MAGIC) + head_size + 4 * n_dims
        if file_size < header_size:
            raise ValueError(f"{path}: checkpoint truncated in the header")
        dims = struct.unpack(f"<{n_dims}I", fh.read(4 * n_dims))
        if n_dims < 2 or min(dims) < 1:
            raise ValueError(f"{path}: checkpoint declares invalid layer sizes {list(dims)}")
        # per layer: fan_in x fan_out weights plus fan_out biases, float64
        expected = header_size + sum(8 * (fan_in + 1) * fan_out
                                     for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        if file_size < expected:
            raise ValueError(
                f"{path}: checkpoint truncated: layer sizes {list(dims)} need {expected} bytes, "
                f"file has {file_size}"
            )
        if file_size > expected:
            raise ValueError(f"{path}: trailing bytes after checkpoint payload")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = np.frombuffer(fh.read(8 * fan_in * fan_out), dtype="<f8").reshape(fan_in, fan_out)
            b = np.frombuffer(fh.read(8 * fan_out), dtype="<f8")
            weights.append(w.astype(np.float64))
            biases.append(b.astype(np.float64))
    if not all(np.isfinite(p).all() for p in weights + biases):
        raise ValueError(f"{path}: checkpoint holds non-finite weights")
    if saved is not None:
        if l2_normalize is not None and bool(l2_normalize) != saved:
            raise ValueError(
                f"{path}: checkpoint was saved with l2_normalize={saved}, not l2_normalize={bool(l2_normalize)}"
            )
        l2_normalize = saved
    return Embedder(weights=weights, biases=biases, l2_normalize=bool(l2_normalize))

