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

The kernels of a layer are functions on arrays that write into outputs and
scratch the caller allocated: the exact GELU, the layer norm and the fused
attention, each with its VJP.  Beyond numpy's own iterator buffers (8192
elements an operand, on strided or broadcast operands) they allocate
nothing, so they may run on the pool's worker threads (the rule of
:func:`icleq.numerics._lanes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import ndtr

from .channel import Constellation
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
    of its vector, zero-padded to d_s.
    """
    b, m, n_r = ys.shape
    n_t = xs.shape[2]
    n = m - n_queries
    if 2 * max(n_t, n_r) > config.d_s:
        raise ValueError("d_s too small for the antenna counts")
    pos = _positions(config, 2 * n + n_queries, n_queries)
    y_columns = np.flatnonzero(pos % 2 == 0)
    tok = np.zeros((config.d_s, b, pos.size))
    tok[:n_r, :, y_columns] = np.moveaxis(ys.real, -1, 0)
    tok[n_r : 2 * n_r, :, y_columns] = np.moveaxis(ys.imag, -1, 0)
    if n:
        tok[:n_t, :, 1 : 2 * n : 2] = np.moveaxis(xs[:, :n].real, -1, 0)
        tok[n_t : 2 * n_t, :, 1 : 2 * n : 2] = np.moveaxis(xs[:, :n].imag, -1, 0)
    return tok


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _gelu(out, phi, x):
    """The exact GELU ``out = x * phi`` with ``phi = Phi(x)``, kept for the VJP."""
    ndtr(x, out=phi)
    np.multiply(x, phi, out=out)


def _gelu_vjp(dx, g, x, phi):
    """dx = g * (phi + x * pdf(x)), evaluated in place in the order of
    ``g * (phi + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI))``."""
    np.multiply(x, -0.5, out=dx)
    dx *= x
    np.exp(dx, out=dx)
    dx *= _INV_SQRT_2PI
    dx *= x
    dx += phi
    dx *= g


def _layer_norm(out, xhat, inv, mu, x, gain, bias):
    """``out = gain * xhat + bias`` with ``x`` normalized over axis 0 (per
    token): ``xhat = (x - mean) * inv``, ``inv = 1 / sqrt(var + eps)``,
    in the arithmetic of ``x.mean`` and ``x.var``.  ``xhat`` and ``inv``
    (shape (1, ...)) are kept for the VJP; ``mu`` is scratch of inv's shape.
    """
    d = len(x)
    np.add.reduce(x, axis=0, keepdims=True, out=mu)
    mu /= d
    np.subtract(x, mu, out=xhat)
    np.square(xhat, out=out)
    np.add.reduce(out, axis=0, keepdims=True, out=inv)
    inv /= d
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(gain, xhat, out=out)
    out += bias


def _layer_norm_vjp(dx, gxhat, t, m1, m2, g, xhat, inv, gain):
    """The layer norm's input gradient ``dx`` for the output cotangent
    ``g``, ``(dxhat - m1 - xhat * m2) * inv`` with ``dxhat = g * gain`` and
    m1, m2 the means over axis 0 of dxhat and dxhat * xhat; also
    ``gxhat = g * xhat``, whose sum over tokens is the gain's gradient.
    ``t`` (x's shape), ``m1`` and ``m2`` (inv's shape) are scratch."""
    d = len(g)
    np.multiply(g, xhat, out=gxhat)
    np.multiply(g, gain, out=dx)
    np.add.reduce(dx, axis=0, keepdims=True, out=m1)
    m1 /= d
    np.multiply(dx, xhat, out=t)
    np.add.reduce(t, axis=0, keepdims=True, out=m2)
    m2 /= d
    np.multiply(xhat, m2, out=t)
    dx -= m1
    dx -= t
    dx *= inv


def _softmax_inplace(p: np.ndarray, axis: int, s: np.ndarray | None = None) -> np.ndarray:
    """Softmax of ``p`` over ``axis``, in place; ``s`` is scratch of the
    reduced shape (allocated when None)."""
    s = np.max(p, axis=axis, keepdims=True, out=s)
    np.subtract(p, s, out=p)
    np.exp(p, out=p)
    np.divide(p, np.sum(p, axis=axis, keepdims=True, out=s), out=p)
    return p


def _attention(p, out, s, q, k, v, scale, mask_add):
    """``out = softmax(q k^T * scale + mask_add) v`` over the last two axes,
    keeping the probabilities ``p`` for the VJP; ``s`` is (..., Tq, 1)
    scratch.

    ``q`` is (..., Tq, d) and ``k``, ``v`` are (..., Tk, d) with the same
    leading axes; Tq may be smaller than Tk.  ``mask_add`` (Tq, Tk) holds
    0 (allowed) or a large negative constant; after the max shift those
    logits underflow to exactly 0 probability, which keeps masked keys
    exactly out of the mixture.
    """
    np.matmul(q, np.swapaxes(k, -1, -2), out=p)
    p *= scale
    p += mask_add
    _softmax_inplace(p, -1, s)
    np.matmul(p, v, out=out)


def _attention_vjp(ds, dq, dk, dv, dsp, s, g, p, q, k, v, scale):
    """Gradients ``dq``, ``dk``, ``dv`` of :func:`_attention` for the output
    cotangent ``g``, reusing the saved probabilities ``p``: the fused
    backward of FlashAttention (Dao et al., 2022) without its tiling.
    ``ds``, ``dsp`` (p's shape) and ``s`` are scratch."""
    np.matmul(np.swapaxes(p, -1, -2), g, out=dv)
    np.matmul(g, np.swapaxes(v, -1, -2), out=ds)
    ds -= np.sum(np.multiply(ds, p, out=dsp), axis=-1, keepdims=True, out=s)
    ds *= p
    ds *= scale
    np.matmul(ds, k, out=dq)
    np.matmul(np.swapaxes(ds, -1, -2), q, out=dk)


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


def _runs(columns: np.ndarray) -> list[tuple[slice, slice]]:
    """Cut strictly increasing column indices into evenly spaced runs,
    ``[(positions in the selection, columns)]`` as slices, so that a lane
    gathers and scatters them through views and allocates nothing."""
    idx = [int(c) for c in columns]
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"columns must be strictly increasing, got {idx}")
    runs, i = [], 0
    while i < len(idx):
        j = i + 1
        step = idx[j] - idx[i] if j < len(idx) else 1
        while j < len(idx) and idx[j] - idx[j - 1] == step:
            j += 1
        runs.append((slice(i, j), slice(idx[i], idx[j - 1] + 1, step)))
        i = j
    return runs


# the stages of a layer's backward lane in their order, each with the scratch
# buffers live in it; a buffer lives from its first stage to its last
_VJP_STAGES = (
    ("ghid", "gpre_l"),  # the GELU's VJP
    ("gpre_l", "gln_l", "gr_l", "tmp", "m1", "m2"),  # w2's product, the layer norm's VJP
    ("gr_l", "gheads", "ds", "dsp", "dq", "dk", "dv"),  # the attention's VJP
    ("gr_l", "de_l", "gx", "geq"),  # the input's gradient
)


def _first_fit(sizes: dict, stages) -> tuple[dict, int]:
    """Offsets of the buffers ``{name: size}`` in one workspace, placed
    first fit in ``sizes`` order so that no two buffers that share a stage
    overlap; returns ``({name: offset}, workspace size)``."""
    live = {name: {i for i, stage in enumerate(stages) if name in stage} for name in sizes}
    offsets = {}
    for name, size in sizes.items():
        if not live[name]:
            raise ValueError(f"buffer {name} is live in no stage")
        off = 0
        for lo, hi in sorted((offsets[m], offsets[m] + sizes[m]) for m in offsets if live[m] & live[name]):
            if off + size <= lo:
                break
            off = max(off, hi)
        offsets[name] = off
    return offsets, max(offsets[n] + sizes[n] for n in sizes)


def _vjp_workspace(config: ModelConfig, t: int, tq: int, read_out: bool) -> tuple[dict, int]:
    """The scratch of one batch row of a layer's backward lanes, for ``t``
    columns of which ``tq`` are queries (a subset when ``read_out``):
    ``({name: (shape, offset)}, elements a row)``, planned over
    ``_VJP_STAGES``.  A lane of n rows holds buffer ``name`` at ``n *
    offset`` of its block, as ``(n, *shape)`` for the attention's 3-D
    shapes and as ``(d, n c)`` for a ``(d, c)`` shape."""
    h, d_w, d_e, d_f = config.n_heads, config.d_w, config.d_e, config.d_f
    shapes = {
        "ghid": (d_f, tq),
        "gpre_l": (d_f, tq),
        "gln_l": (d_e, tq),
        "gr_l": (d_e, tq),
        "tmp": (d_e, tq),
        "m1": (1, tq),
        "m2": (1, tq),
        "gheads": (h * d_w, tq),
        "ds": (h, tq, t),
        "dsp": (h, tq, t),
        "dq": (h, tq, d_w),
        "dk": (h, t, d_w),
        "dv": (h, t, d_w),
        "de_l": (d_e, t),
        "gx": (d_e, t),
    }
    if read_out:
        shapes["geq"] = (d_e, tq)
    offsets, row = _first_fit({n: math.prod(shape) for n, shape in shapes.items()}, _VJP_STAGES)
    return {n: (shape, offsets[n]) for n, shape in shapes.items()}, row


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
    are computed only at the columns ``rows`` (all columns when None), so
    the output is (d_e, B, len(rows)).

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
    keeps its intermediates in lane-major buffers, where its columns are
    one contiguous matrix (numpy's elementwise loops run about twice as
    fast there as on a block of columns), and copies into the full arrays
    what the sums over tokens read.  Lanes write only into arrays
    allocated here.

    The VJP runs once (a second call raises RuntimeError).  Its lanes'
    scratch is one workspace that the calling thread allocates, planned
    per call by :func:`_vjp_workspace`: a buffer shares memory with every
    buffer it is never live with over the backward's stages (GELU, layer
    norm, attention, input gradient), and each lane carves contiguous
    views of its block of rows.  At the default sizes this is ~13.6 MB at
    layer 0 instead of ~29.8 MB of separate buffers.
    """
    d_e, b, t = e.shape
    h, d_w, d_f = config.n_heads, config.d_w, config.d_f
    hd = h * d_w
    names = [f"l{l}.{name}" for name in ("wq", "wk", "wv", "wo", "w1", "w2", "ln_g", "ln_b")]
    wq, wk, wv, wo, w1, w2, ln_g, ln_b = (p[name] for name in names)
    wq, wk, wv = (w.reshape(hd, d_e) for w in (wq, wk, wv))
    wo_t = np.ascontiguousarray(wo.T)
    gain, bias = ln_g.reshape(d_e, 1), ln_b.reshape(d_e, 1)
    runs = None if rows is None else _runs(rows)
    if rows is not None:
        mask = mask[rows]
    tq = mask.shape[0]
    scale = 1.0 / np.sqrt(d_w)

    def lane_major(d, n):
        """A (d, B n) buffer whose lane of batch rows i..j is one
        contiguous (d, (j - i) n) matrix: ``buf(i, j)``."""
        buf = np.empty(d * b * n)
        return lambda i, j: buf[d * n * i : d * n * j].reshape(d, (j - i) * n)

    x = e.reshape(d_e, b * t)
    # the query columns through numpy's own gather: its layout (a transposed
    # view for one sequence, a C-ordered copy otherwise) decides which of
    # OpenBLAS's small-matrix kernels computes a small query product
    xq = x if rows is None else e[..., rows].reshape(d_e, b * tq)
    z = lane_major(hd, t), lane_major(hd, tq)  # the Q/K/V products, one at a time
    q, k, v = np.empty((b, h, tq, d_w)), np.empty((b, h, t, d_w)), np.empty((b, h, t, d_w))
    att, o, s = np.empty((b, h, tq, t)), np.empty((b, h, tq, d_w)), np.empty((b, h, tq, 1))
    r, xhat, ln_l = lane_major(d_e, tq), lane_major(d_e, tq), lane_major(d_e, tq)
    inv, mu = lane_major(1, tq), lane_major(1, tq)
    pre, phi = lane_major(d_f, tq), lane_major(d_f, tq)
    # read by the sums over tokens; heads are stacked token by token
    heads, ln, hid = np.empty((hd, b * tq)), np.empty((d_e, b * tq)), np.empty((d_f, b * tq))
    out = np.empty((d_e, b, tq))
    out2 = out.reshape(d_e, b * tq)

    def forward(i, j):
        nb, c, ck = j - i, slice(i * tq, j * tq), slice(i * t, j * t)
        for w, src, dst, zn, n, cn in ((wq, xq, q, z[1], tq, c), (wk, x, k, z[0], t, ck), (wv, x, v, z[0], t, ck)):
            zb = zn(i, j)
            np.matmul(w, src[:, cn], out=zb)
            dst[i:j] = zb.reshape(h, d_w, nb, n).transpose(2, 0, 3, 1)
        _attention(att[i:j], o[i:j], s[i:j], q[i:j], k[i:j], v[i:j], scale, mask)
        heads.reshape(h, d_w, b, tq)[:, :, i:j] = o[i:j].transpose(1, 3, 0, 2)
        rb, lb = r(i, j), ln_l(i, j)
        np.matmul(wo_t, heads[:, c], out=rb)
        rb += xq[:, c]
        _layer_norm(lb, xhat(i, j), inv(i, j), mu(i, j), rb, gain, bias)
        ln[:, c] = lb
        np.matmul(w2, lb, out=pre(i, j))
        _gelu(hid[:, c], phi(i, j), pre(i, j))
        np.matmul(w1, hid[:, c], out=out2[:, c])
        out2[:, c] += rb

    _lanes(forward, b, _LANE_ROWS)

    ran = False

    def vjp(g):
        nonlocal ran
        if ran:
            raise RuntimeError(f"layer {l}'s VJP already ran: it runs once")
        ran = True
        g = np.ascontiguousarray(g).reshape(d_e, b * tq)
        plan, row = _vjp_workspace(config, t, tq, runs is not None)
        ws = np.empty(b * row)  # every lane's scratch, ``row`` elements a batch row
        # read by the sums over tokens
        gpre, gr = np.empty((d_f, b * tq)), np.empty((d_e, b * tq))
        gln, gxhat = np.empty((d_e, b, tq)), np.empty((d_e, b, tq))
        gq, gk, gv = np.empty((hd, b * tq)), np.empty((hd, b * t)), np.empty((hd, b * t))
        de = np.empty((d_e, b, t))
        gln2, gxhat2, de2 = gln.reshape(d_e, -1), gxhat.reshape(d_e, -1), de.reshape(d_e, -1)

        def backward(i, j):
            nb, c, ck = j - i, slice(i * tq, j * tq), slice(i * t, j * t)
            # the lane's scratch, contiguous views of its rows' block of the workspace:
            # the attention's batch-major (nb, h, ., .), the rest lane-major (d, nb n)
            block, w = ws[i * row : j * row], {}
            for name, (shape, off) in plan.items():
                a = block[off * nb : (off + math.prod(shape)) * nb]
                w[name] = a.reshape(nb, *shape) if len(shape) == 3 else a.reshape(shape[0], -1)
            gh, gp, gl, grb = w["ghid"], w["gpre_l"], w["gln_l"], w["gr_l"]
            np.matmul(w1.T, g[:, c], out=gh)
            _gelu_vjp(gp, gh, pre(i, j), phi(i, j))
            gpre[:, c] = gp
            np.matmul(w2.T, gp, out=gl)
            gln2[:, c] = gl
            _layer_norm_vjp(grb, gxhat2[:, c], w["tmp"], w["m1"], w["m2"], gl, xhat(i, j), inv(i, j), gain)
            grb += g[:, c]  # the residual's gradient reaches r too
            gr[:, c] = grb
            ghb = w["gheads"]
            np.matmul(wo_t.T, grb, out=ghb)
            go = ghb.reshape(h, d_w, nb, tq).transpose(2, 0, 3, 1)
            dq, dk, dv = w["dq"], w["dk"], w["dv"]
            _attention_vjp(
                w["ds"], dq, dk, dv, w["dsp"], s[i:j], go, att[i:j], q[i:j], k[i:j], v[i:j], scale
            )
            for dz, gz, n in ((dq, gq, tq), (dk, gk, t), (dv, gv, t)):
                gz.reshape(h, d_w, b, n)[:, :, i:j] = dz.transpose(1, 3, 0, 2)
            # the input's gradient, summed in the op-by-op graph's order: the value and
            # key products, then the query product and the residual
            deb, gxb = w["de_l"], w["gx"]
            np.matmul(wv.T, gv[:, ck], out=deb)
            np.matmul(wk.T, gk[:, ck], out=gxb)
            deb += gxb
            if runs is None:
                np.matmul(wq.T, gq[:, c], out=gxb)
                deb += gxb
                deb += grb
            else:
                # the query columns' gradient, scattered onto zeros, is added
                gqb = w["geq"]
                np.matmul(wq.T, gq[:, c], out=gqb)
                gqb += grb
                d3, q3 = deb.reshape(d_e, nb, t), gqb.reshape(d_e, nb, tq)
                for sel, src in runs:
                    q3[:, :, sel] += d3[:, :, src]
                deb += 0.0
                for sel, src in runs:
                    d3[:, :, src] = q3[:, :, sel]
            de2[:, ck] = deb

        _lanes(backward, b, _LANE_ROWS)
        # the weight gradients, each one whole product, one lane per core;
        # in this order each half of the six carries the same multiply-adds
        # (w1 and w2, q and wo, k and v are products of equal sizes)
        products = ((g, hid.T), (gq, xq.T), (gk, x.T), (gpre, ln.T), (gv, x.T), (gr, heads.T))
        gw = [np.empty((a.shape[0], w.shape[1])) for a, w in products]

        def weights(i, j):
            for (a, w), o in zip(products[i:j], gw[i:j]):
                np.matmul(a, w, out=o)

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
    run, before the layer below runs its backward.  With the layers' planned
    scratch (:func:`_layer`), a default step (d_e = 64, B = 64, N = 20)
    peaks at ~67 MB of traced memory, against ~95 MB when every layer's
    state lived until the whole backward returned.
    """
    d_s, b, t = tokens.shape
    d_e, n_c = config.d_e, config.n_classes
    pos = _positions(config, t, n_queries)
    tok = tokens.reshape(d_s, b * t)
    e = (params["embed"] @ tok).reshape(d_e, b, t)
    # gather the positional vectors by a one-hot matmul: exact, and
    # repeated positions are fine
    select = np.eye(params["pos"].shape[1])[:, pos]  # (2 n_max + 1, T)
    e = e + (params["pos"] @ select).reshape(d_e, 1, t)
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

    ran = False

    def vjp(g):
        nonlocal ran
        if ran:
            raise RuntimeError("forward_graph's VJP already ran: it runs once")
        ran = True
        # the head: the estimate's product, the softmax over classes, the
        # bias and the weights
        gp = (xr.T @ g.reshape(-1, b * np1)).reshape(n_c, b, np1)
        gl = (probs * (gp - (gp * probs).sum(axis=0, keepdims=True))).reshape(n_c, b * np1)
        grads = {"head.b": gl.sum(axis=1), "head.w": gl @ ef.T}
        ge = (params["head.w"].T @ gl).reshape(d_e, b, np1)
        while layer_vjps:  # each layer's state is freed once its VJP has run
            ge, layer_grads = layer_vjps.pop()(ge)
            grads.update(layer_grads)
        grads["pos"] = ge.sum(axis=1) @ select.T
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
