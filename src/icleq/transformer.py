"""Decoder-only attention model mapping pilot contexts to soft symbol estimates.

The input sequence is N pilot pairs followed by S observations to
equalize, (y_1, x_1, ..., y_N, x_N, y^(1), ..., y^(S)), each vector
realified ([Re; Im], zero-padded to a common width) and linearly embedded.
Training uses S = 1, its test observation; ICL evaluation puts all of a
task's S test observations after one copy of its pilots.  Stacked
multi-head softmax self-attention layers with a feed-forward/residual/
layer-norm block follow, and a linear softmax head over the enumerated
joint constellation reads out a class distribution at every
received-signal position.  The soft symbol estimate is the
probability-weighted constellation average, so the model's output lives
in the convex hull of the joint input set.

The layer follows the reference equations literally: attention logits are
scaled by sqrt(d_w) with d_w = d_e / n_heads, the layer norm sits inside
the feed-forward branch (applied to attention output + residual), and the
activation is the exact (erf-based) GELU.  There is one model variant:
every model has at least one layer, causal attention and a learned
positional term.

The column positions follow from the query count S: the pilots sit at
positions 0..2N-1 and every query at 2N.  The causal mask and the learned
positional term are both built from the positions: key k is visible to
query j iff k == j or pos[k] < pos[j], and column j adds the positional
vector of pos[j].  With S = 1 this is the ordinary causal mask over
positions 0..2N.  With S > 1 each query sees the whole prefix and itself,
no prefix column sees a query, and no query sees another, so each query's
estimate equals that of its own (2N+1)-column sequence while the task
costs 2N+S columns instead of S(2N+1).

Each layer is one function (:func:`_layer`) that returns its output and
its hand-written vector-Jacobian product (VJP).  Its forward and VJP run
all of the layer's per-token work as one lane per core over blocks of
batch rows, and its attention backward reuses the saved attention
probabilities.  The loss and the head read only the received-signal
columns (the even positions), so the last layer computes its queries,
attention, output projection, residual, layer norm and feed-forward block
only there; its keys and values still span every column.  This is exact:
no other column of the last layer reaches the output.

The rest of the model, the embedding, positions, head and softmax, is
written out in :func:`forward_graph` together with its VJP, so the model
has one forward function and one VJP; inference runs the forward and
drops the VJP.  Each VJP runs once, and frees each layer's saved state as
soon as that layer's backward has run.

The kernels of a layer are functions on arrays that return what they
compute: the exact GELU, the layer norm and the fused attention, each with
its VJP.  They run on the pool's worker threads, inside a layer's lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import ndtr

from .channel import Constellation, realify_obs
from .numerics import _lanes
from .rng import RngStream

__all__ = [
    "ModelConfig",
    "param_shapes",
    "init_params",
    "build_tokens",
    "forward_graph",
    "forward_batch",
]

MASK_NEG = -1e9  # additive mask constant; exact zero probability after exp
_LANE_ROWS = 8  # a layer's lanes cut the batch at multiples of this many rows
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and input-geometry hyperparameters."""

    n_layers: int = 2
    n_heads: int = 4
    d_e: int = 64
    d_f: int = 256
    d_s: int = 4
    n_max: int = 20
    n_classes: int = 16
    # constants, not fields: every model is causal with learned positions
    use_causal_mask: ClassVar[bool] = True
    use_positional: ClassVar[bool] = True

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_e", "d_f"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_e % self.n_heads:
            raise ValueError("d_e must be divisible by n_heads")

    @property
    def d_w(self) -> int:
        return self.d_e // self.n_heads


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Names and shapes of every trainable tensor."""
    c = config
    shapes = {
        "embed": (c.d_e, c.d_s),
        "pos": (c.d_e, 2 * c.n_max + 1),
        "head.w": (c.n_classes, c.d_e),
        "head.b": (c.n_classes,),
    }
    for l in range(c.n_layers):
        shapes[f"l{l}.wk"] = (c.n_heads, c.d_w, c.d_e)
        shapes[f"l{l}.wq"] = (c.n_heads, c.d_w, c.d_e)
        shapes[f"l{l}.wv"] = (c.n_heads, c.d_w, c.d_e)
        shapes[f"l{l}.wo"] = (c.n_heads * c.d_w, c.d_e)
        shapes[f"l{l}.w1"] = (c.d_e, c.d_f)
        shapes[f"l{l}.w2"] = (c.d_f, c.d_e)
        shapes[f"l{l}.ln_g"] = (c.d_e,)
        shapes[f"l{l}.ln_b"] = (c.d_e,)
    return shapes


def init_params(config: ModelConfig, rng: RngStream, scale: float = 0.02) -> dict:
    """Weights i.i.d. N(0, scale^2); layer-norm gain 1, all biases 0."""
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("ln_g"):
            params[name] = np.ones(shape)
        elif name.endswith("ln_b") or name == "head.b":
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(size=shape) * scale
    return params


# ---------------------------------------------------------------------------
# token construction
# ---------------------------------------------------------------------------


def _positions(config: ModelConfig, t: int, n_queries: int) -> np.ndarray:
    """Sequence position of each of ``t`` columns whose last ``n_queries``
    are queries: 0..2N-1 for the pilots, then 2N for every query."""
    if not 1 <= n_queries <= t:
        raise ValueError(f"n_queries must be in 1..{t}, got {n_queries}")
    if t - n_queries > 2 * config.n_max:
        raise ValueError(f"{t - n_queries} pilot columns exceed 2*n_max={2 * config.n_max}")
    return np.concatenate([np.arange(t - n_queries), np.full(n_queries, t - n_queries)])


def build_tokens(
    config: ModelConfig, xs: np.ndarray, ys: np.ndarray, n_queries: int = 1
) -> np.ndarray:
    """Token columns for a batch, shape (d_s, B, 2N+S) with S = ``n_queries``.

    ``ys`` is (B, N+S, n_r): N pilot observations, then S queries.  ``xs``
    holds the N pilot inputs in its first N slots; any later slot (such as
    training's test input) is a target, never a token.  Column layout:
    y_1, x_1, ..., y_N, x_N, y^(1), ..., y^(S).  Each column is [Re; Im]
    of its vector, zero-padded to d_s.  ``xs`` of another batch size, or
    with fewer than N slots, raises ValueError.
    """
    b, m, n_r = ys.shape
    n = m - n_queries
    if xs.ndim != 3 or len(xs) != b or xs.shape[1] < n:
        raise ValueError(
            f"xs of shape {xs.shape} does not hold the pilot inputs of ys of shape {ys.shape}"
        )
    n_t = xs.shape[2]
    if 2 * max(n_t, n_r) > config.d_s:
        raise ValueError("d_s too small for the antenna counts")
    pos = _positions(config, 2 * n + n_queries, n_queries)
    tok = np.zeros((config.d_s, b, pos.size))
    tok[: 2 * n_r, :, pos % 2 == 0] = np.moveaxis(realify_obs(ys), -1, 0)
    tok[: 2 * n_t, :, 1 : 2 * n : 2] = np.moveaxis(realify_obs(xs[:, :n]), -1, 0)
    return tok


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _gelu(x):
    """The exact GELU: returns ``(x * phi, phi)`` with ``phi = Phi(x)``,
    kept for the VJP."""
    phi = ndtr(x)
    return x * phi, phi


def _gelu_vjp(g, x, phi):
    """g * (phi + x * pdf(x)), evaluated in place in the order of
    ``g * (phi + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI))``."""
    dx = x * -0.5
    dx *= x
    np.exp(dx, out=dx)
    dx *= _INV_SQRT_2PI
    dx *= x
    dx += phi
    dx *= g
    return dx


def _layer_norm(x, gain, bias):
    """``(gain * xhat + bias, xhat, inv)`` with ``x`` normalized over axis
    0 (per token): ``xhat = (x - mean) * inv``, ``inv = 1 / sqrt(var +
    eps)`` (shape (1, ...)), in the arithmetic of ``x.mean`` and ``x.var``.
    ``xhat`` and ``inv`` are kept for the VJP."""
    d = len(x)
    mu = np.add.reduce(x, axis=0, keepdims=True)
    mu /= d
    xhat = x - mu
    inv = np.add.reduce(np.square(xhat), axis=0, keepdims=True)
    inv /= d
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = gain * xhat
    out += bias
    return out, xhat, inv


def _layer_norm_vjp(g, xhat, inv, gain):
    """The layer norm's input gradient for the output cotangent ``g``,
    ``(dxhat - m1 - xhat * m2) * inv`` with ``dxhat = g * gain`` and m1, m2
    the means over axis 0 of dxhat and dxhat * xhat; returns it with
    ``g * xhat``, whose sum over tokens is the gain's gradient."""
    d = len(g)
    gxhat = g * xhat
    dx = g * gain
    m1 = np.add.reduce(dx, axis=0, keepdims=True)
    m1 /= d
    m2 = np.add.reduce(dx * xhat, axis=0, keepdims=True)
    m2 /= d
    dx -= m1
    dx -= xhat * m2
    dx *= inv
    return dx, gxhat


def _softmax_inplace(p: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of ``p`` over ``axis``, in place."""
    np.subtract(p, np.max(p, axis=axis, keepdims=True), out=p)
    np.exp(p, out=p)
    p /= np.sum(p, axis=axis, keepdims=True)
    return p


def _attention(q, k, v, scale, mask_add):
    """``softmax(q k^T * scale + mask_add) v`` over the last two axes:
    returns the probabilities, kept for the VJP, and the output.

    ``q`` is (..., Tq, d) and ``k``, ``v`` are (..., Tk, d) with the same
    leading axes; Tq may be smaller than Tk.  ``mask_add`` (Tq, Tk) holds
    0 (allowed) or a large negative constant; after the max shift those
    logits underflow to exactly 0 probability, which keeps masked keys
    exactly out of the mixture.
    """
    p = q @ np.swapaxes(k, -1, -2)
    p *= scale
    p += mask_add
    _softmax_inplace(p, -1)
    return p, p @ v


def _attention_vjp(g, p, q, k, v, scale):
    """Gradients ``(dq, dk, dv)`` of :func:`_attention` for the output
    cotangent ``g``, reusing the saved probabilities ``p``: the fused
    backward of FlashAttention (Dao et al., 2022) without its tiling."""
    dv = np.swapaxes(p, -1, -2) @ g
    ds = g @ np.swapaxes(v, -1, -2)
    ds -= np.sum(ds * p, axis=-1, keepdims=True)
    ds *= p
    ds *= scale
    return ds @ k, np.swapaxes(ds, -1, -2) @ q, dv


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


def causal_mask(positions: np.ndarray) -> np.ndarray:
    """Additive mask (T_query, T_key) from the columns' sequence positions:
    key k is visible to query j iff k == j or pos[k] < pos[j].  For
    positions 0..T-1 this blocks exactly the keys beyond the query."""
    pos = np.asarray(positions)
    visible = (pos[None, :] < pos[:, None]) | np.eye(pos.size, dtype=bool)
    return np.where(visible, 0.0, MASK_NEG)


def _layer(
    p: dict,
    config: ModelConfig,
    l: int,
    e: np.ndarray,
    mask: np.ndarray,
    rows: np.ndarray | None = None,
):
    """Layer ``l`` of the parameters ``p``, multi-head softmax
    self-attention + feed-forward block: returns ``(out, vjp)``, where
    ``vjp(g)`` maps the output's cotangent to ``(de, {name: gradient})``
    for the input and the layer's eight parameters.

    Keys and values span every column of ``e`` (d_e, B, T); ``mask`` is
    the additive (T, T) mask.  Queries, and everything after the attention,
    are computed only at the strictly increasing columns ``rows`` (all
    columns when None), so the output is (d_e, B, len(rows)).

    Forward and VJP run all per-token work as one lane per core over
    blocks of batch rows (:func:`icleq.numerics._lanes`, cut at multiples
    of ``_LANE_ROWS``): the products with the layer's weights on the
    lane's token columns, the attention, residuals, layer norm and GELU.
    Only the sums over tokens run after the lanes, on full arrays: the six
    weight gradients ``G @ X^T``, each one whole product, as one more lane
    per core, and the layer norm's gain and bias sums.

    Every value is bit-identical to the layer computed op by op on whole
    arrays: a lane runs the same elementwise steps, and computes the same
    products on a block of columns (at multiples of 8 columns, blocks of
    an OpenBLAS product equal the unsplit product); the input's gradient
    adds its terms in the order the op-by-op graph added them.  A lane
    allocates its own intermediates, where its columns are one contiguous
    matrix (numpy's elementwise loops run about twice as fast there as on
    a block of columns), and copies into full arrays, allocated here, what
    the sums over tokens read.

    Each forward lane keeps what its backward reads (Q/K/V, the attention
    probabilities, the layer norm's ``xhat`` and ``inv``, the GELU's input
    and Phi) under its first batch row; the backward lane of the same rows
    takes it out, so the layer's state is freed lane by lane.  The VJP
    runs once: a second call finds no state and raises RuntimeError.
    """
    d_e, b, t = e.shape
    h, d_w, d_f = config.n_heads, config.d_w, config.d_f
    hd = h * d_w
    names = [f"l{l}.{name}" for name in ("wq", "wk", "wv", "wo", "w1", "w2", "ln_g", "ln_b")]
    wq, wk, wv, wo, w1, w2, ln_g, ln_b = (p[name] for name in names)
    wq, wk, wv = (w.reshape(hd, d_e) for w in (wq, wk, wv))
    wo_t = np.ascontiguousarray(wo.T)
    gain, bias = ln_g.reshape(d_e, 1), ln_b.reshape(d_e, 1)
    if rows is not None:
        if np.any(np.diff(rows) <= 0):
            raise ValueError(f"columns must be strictly increasing, got {[int(c) for c in rows]}")
        mask = mask[rows]
    tq = mask.shape[0]
    scale = 1.0 / np.sqrt(d_w)

    x = e.reshape(d_e, b * t)
    # the query columns through numpy's own gather: its layout (a transposed
    # view for one sequence, a C-ordered copy otherwise) decides which of
    # OpenBLAS's small-matrix kernels computes a small query product
    xq = x if rows is None else e[..., rows].reshape(d_e, b * tq)
    # read by the sums over tokens; heads are stacked token by token
    heads, ln, hid = np.empty((hd, b * tq)), np.empty((d_e, b * tq)), np.empty((d_f, b * tq))
    out = np.empty((d_e, b, tq))
    out2 = out.reshape(d_e, b * tq)
    state = {}  # first batch row of a lane -> what its backward reads

    def heads_major(z, nb, n):
        """A lane's (h d_w, nb n) product as contiguous (nb, h, n, d_w)."""
        return np.ascontiguousarray(z.reshape(h, d_w, nb, n).transpose(2, 0, 3, 1))

    def forward(i, j):
        nb, c, ck = j - i, slice(i * tq, j * tq), slice(i * t, j * t)
        q = heads_major(wq @ xq[:, c], nb, tq)
        k = heads_major(wk @ x[:, ck], nb, t)
        v = heads_major(wv @ x[:, ck], nb, t)
        att, o = _attention(q, k, v, scale, mask)
        heads.reshape(h, d_w, b, tq)[:, :, i:j] = o.transpose(1, 3, 0, 2)
        r = wo_t @ heads[:, c]
        r += xq[:, c]
        lb, xhat, inv = _layer_norm(r, gain, bias)
        ln[:, c] = lb
        pre = w2 @ lb
        hid[:, c], phi = _gelu(pre)
        out2[:, c] = w1 @ hid[:, c] + r
        state[i] = q, k, v, att, xhat, inv, pre, phi

    _lanes(forward, b, _LANE_ROWS)

    def vjp(g):
        if not state:
            raise RuntimeError(f"layer {l}'s VJP already ran: it runs once")
        g = np.ascontiguousarray(g).reshape(d_e, b * tq)
        # read by the sums over tokens
        gpre, gr = np.empty((d_f, b * tq)), np.empty((d_e, b * tq))
        gln, gxhat = np.empty((d_e, b, tq)), np.empty((d_e, b, tq))
        gq, gk, gv = np.empty((hd, b * tq)), np.empty((hd, b * t)), np.empty((hd, b * t))
        de = np.empty((d_e, b, t))
        gln2, gxhat2, de2 = gln.reshape(d_e, -1), gxhat.reshape(d_e, -1), de.reshape(d_e, -1)

        def backward(i, j):
            nb, c, ck = j - i, slice(i * tq, j * tq), slice(i * t, j * t)
            q, k, v, att, xhat, inv, pre, phi = state.pop(i)
            gp = _gelu_vjp(w1.T @ g[:, c], pre, phi)
            gpre[:, c] = gp
            gl = w2.T @ gp
            gln2[:, c] = gl
            gr_l, gxhat2[:, c] = _layer_norm_vjp(gl, xhat, inv, gain)
            gr_l += g[:, c]  # the residual's gradient reaches r too
            gr[:, c] = gr_l
            go = (wo_t.T @ gr_l).reshape(h, d_w, nb, tq).transpose(2, 0, 3, 1)
            for dz, gz, n in zip(_attention_vjp(go, att, q, k, v, scale), (gq, gk, gv), (tq, t, t)):
                gz.reshape(h, d_w, b, n)[:, :, i:j] = dz.transpose(1, 3, 0, 2)
            # the input's gradient, summed in the op-by-op graph's order: the value and
            # key products, then the query product and the residual
            de_l = wv.T @ gv[:, ck]
            de_l += wk.T @ gk[:, ck]
            if rows is None:
                de_l += wq.T @ gq[:, c]
                de_l += gr_l
            else:
                # the query columns' gradient, scattered onto zeros, is added
                gq_l = wq.T @ gq[:, c]
                gq_l += gr_l
                d3, q3 = de_l.reshape(d_e, nb, t), gq_l.reshape(d_e, nb, tq)
                q3 += d3[:, :, rows]
                de_l += 0.0
                d3[:, :, rows] = q3
            de2[:, ck] = de_l

        _lanes(backward, b, _LANE_ROWS)
        # the weight gradients, each one whole product, one lane per core;
        # in this order each half of the six carries the same multiply-adds
        # (w1 and w2, q and wo, k and v are products of equal sizes)
        products = ((g, hid.T), (gq, xq.T), (gk, x.T), (gpre, ln.T), (gv, x.T), (gr, heads.T))
        gw = [None] * len(products)

        def weights(i, j):
            for n in range(i, j):
                a, w = products[n]
                gw[n] = a @ w

        _lanes(weights, len(products))
        gw1, gwq, gwk, gw2, gwv, gwo = gw
        grads = (
            gwq.reshape(h, d_w, d_e),
            gwk.reshape(h, d_w, d_e),
            gwv.reshape(h, d_w, d_e),
            gwo.T,
            gw1,
            gw2,
            gxhat.sum(axis=(1, 2)),
            gln.sum(axis=(1, 2)),
        )
        return de, dict(zip(names, grads))

    return out, vjp


def forward_graph(
    params: dict,
    config: ModelConfig,
    tokens: np.ndarray,
    constellation: Constellation,
    n_queries: int = 1,
):
    """Run the model on a token batch (d_s, B, T) laid out by
    :func:`build_tokens` with ``n_queries`` = S queries.

    The columns sit at positions 0..2N-1 (the pilots), then 2N (every
    query).  The causal mask (key k is visible to query j iff k == j or
    pos[k] < pos[j]) and the positional term come from the positions, and
    the read-out columns are those at even positions.  Returns
    ``(class_probs, soft_estimates, vjp)``: the probabilities
    (n_classes, B, N+S) and estimates (2 n_t, B, N+S), one read-out per
    pilot observation, then one per query; ``vjp(g)`` maps a cotangent of
    the estimates to ``{name: gradient}`` for every parameter, in
    ``params`` order.  More than 2*n_max pilot columns, or S outside 1..T,
    raise ValueError.

    The VJP runs once (a second call raises RuntimeError): it drops each
    layer's VJP, and with it the arrays that layer saved, as soon as it has
    run, before the layer below runs its backward.
    """
    d_s, b, t = tokens.shape
    d_e, n_c = config.d_e, config.n_classes
    pos = _positions(config, t, n_queries)
    tok = tokens.reshape(d_s, b * t)
    e = (params["embed"] @ tok).reshape(d_e, b, t)
    e = e + params["pos"][:, pos].reshape(d_e, 1, t)
    mask = causal_mask(pos)
    # the loss reads only the y columns, so the last layer computes only those
    y_columns = np.flatnonzero(pos % 2 == 0)
    layer_vjps = []
    for l in range(config.n_layers):
        last = l == config.n_layers - 1
        e, layer_vjp = _layer(params, config, l, e, mask, y_columns if last else None)
        layer_vjps.append(layer_vjp)
    np1 = y_columns.size
    ef = e.reshape(d_e, b * np1)
    logits = params["head.w"] @ ef + params["head.b"].reshape(n_c, 1)
    probs = _softmax_inplace(logits.reshape(n_c, b, np1), 0)
    xr = constellation.real_joint()  # (2 n_t, n_classes)
    est = (xr @ probs.reshape(n_c, b * np1)).reshape(2 * constellation.n_t, b, np1)

    def vjp(g):
        if not layer_vjps:
            raise RuntimeError("forward_graph's VJP already ran: it runs once")
        # the head: the estimate's product, the softmax over classes, the
        # bias and the weights
        gp = (xr.T @ g.reshape(-1, b * np1)).reshape(n_c, b, np1)
        gl = (probs * (gp - (gp * probs).sum(axis=0, keepdims=True))).reshape(n_c, b * np1)
        grads = {"head.b": gl.sum(axis=1), "head.w": gl @ ef.T}
        ge = (params["head.w"].T @ gl).reshape(d_e, b, np1)
        while layer_vjps:  # each layer's state is freed once its VJP has run
            ge, layer_grads = layer_vjps.pop()(ge)
            grads.update(layer_grads)
        grads["pos"] = np.zeros_like(params["pos"])
        np.add.at(grads["pos"], (slice(None), pos), ge.sum(axis=1))  # queries share 2N
        grads["embed"] = ge.reshape(d_e, b * t) @ tok.T
        return {name: grads[name] for name in params}

    return probs, est, vjp


def forward_batch(
    params: dict,
    config: ModelConfig,
    constellation: Constellation,
    tokens: np.ndarray,
    n_queries: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Inference on a token batch: probs (n_classes, B, N+S), complex soft
    estimates (B, N+S, n_t).  ``n_queries`` as in :func:`forward_graph`."""
    probs, est, _ = forward_graph(params, config, tokens, constellation, n_queries)
    n_t = constellation.n_t
    cplx = (est[:n_t] + 1j * est[n_t:]).transpose(1, 2, 0)
    return probs, cplx
