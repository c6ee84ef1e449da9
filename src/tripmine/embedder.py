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

Without L2 normalization the output layer is linear, so the distance of two
embeddings is ``|(h_i - h_j) W|`` for the last hidden activations ``h`` and
the output weights ``W``: the metric ``W W^T`` of the hidden space. Training
and retrieval measure it on the rows ``h @ F`` (``distance_factor``,
``distance_rows``), ``F`` the Cholesky factor of ``W W^T`` when the hidden
layer is at most 96 wide and narrower than the embedding, else ``W``;
``backward`` works in the same width and never forms the d-wide embedding.
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
    """Layer dimensions [F, h1, ..., d] with per-layer weight matrix and bias."""

    layer_dims: tuple
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
        return cls(layer_dims=dims, weights=weights, biases=biases, l2_normalize=l2_normalize)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass
class GradientBundle:
    """Per-parameter gradients matching the Embedder's shapes, plus the loss value."""

    weight_grads: list
    bias_grads: list
    loss_value: float


def parameters(net: Embedder) -> list:
    """Flat parameter list in the fixed order [W0, b0, W1, b1, ...]."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.extend((w, b))
    return out


def gradient_list(bundle: GradientBundle) -> list:
    """Gradients in the same order as ``parameters``."""
    out = []
    for gw, gb in zip(bundle.weight_grads, bundle.bias_grads):
        out.extend((gw, gb))
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
    # float32 rows only screen (``distance_rows``), so their bits need not
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
    if net.l2_normalize:
        norms = np.sqrt(np.einsum("ij,ij->i", a, a))
        safe = np.where(norms > 0.0, norms, 1.0)
        emb = a / safe[:, None]
    else:
        norms = None
        emb = a
    return acts, norms, emb


def forward(net: Embedder, features) -> np.ndarray:
    """Embed a (B, F) feature matrix into (B, d)."""
    return _forward_cached(net, features)[2]


def _triplet_set(triplets) -> TripletSet:
    return triplets if isinstance(triplets, TripletSet) else TripletSet.from_triplets(triplets)


@np.errstate(over="ignore", invalid="ignore")
def distance_factor(net: Embedder):
    """The (h, k) map ``F`` with ``F F^T = W W^T`` for the output weights
    ``W`` (h, d), or None with ``l2_normalize`` on.

    Then ``|(h_i - h_j) F| = |e_i - e_j|`` for embeddings ``e = h W + b``,
    up to rounding. ``F`` is the Cholesky factor ``L`` of ``W W^T`` when
    h < d, h <= ``_CHOLESKY_MAX`` and the factorisation succeeds; otherwise
    it is ``W`` itself, which is exact (h >= d, a wider hidden layer, or a
    rank-deficient ``W`` such as zero weights).

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
    the forward's own error is O(u). ``TestDistanceFactor`` holds the factor
    distances to this bound.
    """
    if net.l2_normalize:
        return None
    w = net.weights[-1]
    h, d = w.shape
    if h < d and h <= _CHOLESKY_MAX:
        try:
            # plain: a symmetric rank-k product, thread-stable up to _CHOLESKY_MAX
            low = np.linalg.cholesky(w @ w.T)
        except np.linalg.LinAlgError:
            return w
        if np.isfinite(low).all():
            return low
    return w


@np.errstate(over="ignore", invalid="ignore")
def distance_rows(net: Embedder, features, factor, dtype=np.float64, input_sq=None) -> np.ndarray:
    """Rows whose pairwise Euclidean distances are those of
    ``forward(net, features)``: ``h @ factor`` for the last hidden
    activations ``h`` and ``factor = distance_factor(net)``, or the
    embedding itself when ``factor`` is None (``l2_normalize`` on). Rows
    that outgrow ``dtype`` raise ``FloatingPointError``, without numpy's warnings.

    The rows are embedded in blocks of ``_CHUNK_VALUES // widest`` rows,
    ``widest`` the widest of the input, the hidden layers and the result, so
    each block's intermediates stay near 1 MB, within L2: 1,024 rows for 128
    features, hidden 64 and d = 1024 (twice as many in float32), 128 rows
    with ``l2_normalize`` on. A row's float64 products sum in the same
    order in any block, one row included (``padded_matmul``), so the result
    is bit-identical to one pass.

    Features are read in their own type, float32 or float64, and each
    block is cast to ``dtype`` as it is embedded. With ``dtype`` float32
    (which needs a ``factor``) the weights and ``factor`` are cast once,
    and every product is computed in float32, unpadded: these rows only screen
    (``retrieval.knn_retrieve``), so their bits may change with the thread
    count. ``input_sq``, a list, gets each cast block's largest squared row
    norm, summed in ``dtype``, for ``float32_row_error``."""
    if dtype != np.float64:
        if factor is None:
            raise ValueError("rows with l2_normalize are computed in float64 only")
        net = Embedder(net.layer_dims, [w.astype(dtype) for w in net.weights],
                       [b.astype(dtype) for b in net.biases])
        factor = factor.astype(dtype)
    x = _feature_matrix(net, features)
    width = net.layer_dims[-1] if factor is None else factor.shape[1]
    # _CHUNK_VALUES counts float64 values: twice as many float32 ones fit
    step = max(1, _CHUNK_VALUES * 8 // np.dtype(dtype).itemsize // max(*net.layer_dims[:-1], width))
    stops = [*range(step, len(x), step), len(x)]
    matmul = padded_matmul if dtype == np.float64 else np.matmul
    rows = None if len(stops) == 1 else np.empty((len(x), width), dtype=dtype)
    start = 0
    for stop in stops:
        if factor is None:
            block = forward(net, x[start:stop])
        else:
            acts = _hidden_cached(net, x[start:stop])
            if input_sq is not None:
                input_sq.append(np.einsum("ij,ij->i", acts[0], acts[0]).max())
            block = matmul(acts[-1], factor)
        if not np.isfinite(block).all():
            raise FloatingPointError("embeddings contain non-finite values")
        if rows is None:
            return block
        rows[start:stop] = block
        start = stop
    return rows


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
def float32_products(net: Embedder, factor):
    """The matrices float32 ``distance_rows`` multiplies by, the hidden
    weights and then ``factor``, each as ``(matrix, Frobenius norm, bias
    norm)`` (0 for ``factor``), the norms grown by ``_NORM_SLACK``; or None
    where ``factor`` is None or a norm is above ``_FLOAT32_SCALE``. This
    part of ``float32_row_error``'s test needs no input norm, so it can be
    made before a float32 pass."""
    if factor is None:
        return None
    products = [(w, np.linalg.norm(w) * _NORM_SLACK, 0.0 if b is None else np.linalg.norm(b) * _NORM_SLACK)
                for w, b in [*zip(net.weights[:-1], net.biases[:-1]), (factor, None)]]
    return products if max(max(frob, b_norm) for _, frob, b_norm in products) <= _FLOAT32_SCALE else None


@np.errstate(over="ignore", invalid="ignore")
def float32_row_error(net: Embedder, factor, input_sq) -> float | None:
    """A bound ``e`` on every row's Euclidean distance between the float32
    and the float64 ``distance_rows`` of the same features, ``input_sq``
    being the largest squared row norm the float32 call measured; or None
    where float32 cannot carry the rows: ``factor`` None (``l2_normalize``
    on), or an a-priori row scale outside the float32-safe range
    ``_FLOAT32_SCALE`` states (a NaN ``input_sq`` included).

    ``e`` is derived at ``similarity._GRAM_ERR_PER_DIM``: each layer's
    rounding and casts, ReLU being 1-Lipschitz, the spectral and Frobenius
    norms of the weights and ``factor``, and the largest input row norm, for
    the float32 rows and the float64 ones alike."""
    products = float32_products(net, factor)
    if products is None:
        return None
    # per product: spectral and Frobenius norms of the matrix, bias norm, shape
    layers = [(_spectral_norm(w) * _NORM_SLACK, frob, b_norm, *w.shape) for w, frob, b_norm in products]
    n_in, u32 = net.layer_dims[0], 2.0**-24
    # |x| <= |x32| + u |x| + tiny sqrt(F), and |x32|^2 from its float32 sum
    x32_norm = np.sqrt((float(input_sq) + n_in * _F32_TINY) / (1.0 - _gamma(n_in, u32)))
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
    return (err32 + bound(2.0**-53, _F64_TINY, 0.0)[0]) * _NORM_SLACK


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


def _zero_gradients(net: Embedder, loss: float) -> GradientBundle:
    return GradientBundle([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases], loss)


def backward(net: Embedder, features, triplets, alpha: float, dist_raw, factor=None) -> GradientBundle:
    """Analytic gradient of the margin loss through the network.

    ``dist_raw`` is the (B, B) Euclidean distance matrix of the batch's
    embeddings (its ``BatchView.dist_raw``, measured on ``distance_rows``).
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

    Without ``l2_normalize`` the touched rows are embedded only to their last
    hidden activations ``h``. With ``Lap(S) = diag(S 1) - S``, the embedding
    gradient would be ``Lap(S) h W``, so the output weights get
    ``(h^T Lap(S) h) W`` and ``h`` gets ``Lap(S) h F F^T``, where ``factor``
    is the net's ``distance_factor`` (computed when not given). The output
    bias gradient is exact zeros: the loss reads only distances, which a
    common shift leaves alone.
    """
    x = _feature_matrix(net, features)
    size = x.shape[0]
    dist = np.asarray(dist_raw, dtype=np.float64)
    if dist.shape != (size, size):
        raise ValueError(f"distance matrix of shape {dist.shape} does not match batch size {size}")
    tset = _triplet_set(triplets)
    if not len(tset):
        return _zero_gradients(net, 0.0)
    cols = tset.columns()
    if min(c.min() for c in cols) < 0 or max(c.max() for c in cols) >= size:
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
        return _zero_gradients(net, loss)

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
    weight_grads = [None] * net.n_layers
    bias_grads = [None] * net.n_layers
    if net.l2_normalize:
        acts, out_norms, emb = _forward_cached(net, x)
        d_emb = s.sum(axis=1)[:, None] * emb - padded_matmul(s, emb)
        # y = z / |z|  =>  dz = (dy - y (y . dy)) / |z|, zero rows pass through as zero
        safe = np.where(out_norms > 0.0, out_norms, 1.0)
        proj = np.einsum("ij,ij->i", emb, d_emb)
        g = np.where((out_norms > 0.0)[:, None], (d_emb - emb * proj[:, None]) / safe[:, None], 0.0)
        weight_grads[last] = padded_matmul(acts[last].T, g)
        bias_grads[last] = g.sum(axis=0)
        if last > 0:
            g = padded_matmul(g, net.weights[last].T)
    else:
        if factor is None:
            factor = distance_factor(net)
        acts = _hidden_cached(net, x)
        h = acts[last]
        lap_h = s.sum(axis=1)[:, None] * h - padded_matmul(s, h)
        weight_grads[last] = padded_matmul(padded_matmul(h.T, lap_h), net.weights[last])
        bias_grads[last] = np.zeros_like(net.biases[last])
        if last > 0:
            g = padded_matmul(padded_matmul(lap_h, factor), factor.T)
    # g is now the gradient of the last hidden activations
    for l in range(last - 1, -1, -1):
        g *= acts[l + 1] > 0.0
        weight_grads[l] = padded_matmul(acts[l].T, g)
        bias_grads[l] = g.sum(axis=0)
        if l > 0:
            g = padded_matmul(g, net.weights[l].T)
    return GradientBundle(weight_grads, bias_grads, loss)


def _loss_and_kink_signature(net: Embedder, features, t: np.ndarray, alpha: float):
    acts, out_norms, emb = _forward_cached(net, features)
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
    bundle = backward(net, x, tset, alpha, pairwise_euclidean(distance_rows(net, x, factor)), factor)
    grads = gradient_list(bundle)
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
    return Embedder(layer_dims=tuple(dims), weights=weights, biases=biases,
                    l2_normalize=bool(l2_normalize))

