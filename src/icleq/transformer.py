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

Each layer's attention is one fused tape op, :meth:`Tape.attention`, whose
backward reuses the saved attention probabilities.  The loss and the head
read only the received-signal columns (the even positions), so the last
layer computes its queries, attention, output projection, residual, layer
norm and feed-forward block only there; its keys and values still span
every column.  This is exact: no other column of the last layer reaches
the output.

Everything is built on the :mod:`icleq.autodiff` tape; inference just runs
the same graph without a backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .channel import Constellation
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


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and input-geometry hyperparameters.

    ``use_causal_mask`` and ``use_positional`` are kept only so that
    checkpoints carrying them load; both must be True.
    """

    n_layers: int = 2
    n_heads: int = 4
    d_e: int = 64
    d_f: int = 256
    d_s: int = 4
    n_max: int = 20
    n_classes: int = 16
    use_causal_mask: bool = True
    use_positional: bool = True

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_e", "d_f"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("use_causal_mask", "use_positional"):
            if getattr(self, name) is not True:
                raise ValueError(
                    f"{name} must be True, got {getattr(self, name)!r}: "
                    "every model is causal with learned positions"
                )
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
# graph construction
# ---------------------------------------------------------------------------


def _flat(tape: Tape, a: Node) -> Node:
    d, b, t = a.value.shape
    return tape.reshape(a, (d, b * t))


def _unflat(tape: Tape, a: Node, b: int, t: int) -> Node:
    d = a.value.shape[0]
    return tape.reshape(a, (d, b, t))


def causal_mask(positions: np.ndarray) -> np.ndarray:
    """Additive mask (T_query, T_key) from the columns' sequence positions:
    key k is visible to query j iff k == j or pos[k] < pos[j].  For
    positions 0..T-1 this blocks exactly the keys beyond the query."""
    pos = np.asarray(positions)
    visible = (pos[None, :] < pos[:, None]) | np.eye(pos.size, dtype=bool)
    return np.where(visible, 0.0, MASK_NEG)


def _attention_block(
    tape: Tape,
    p: dict,
    config: ModelConfig,
    l: int,
    e: Node,
    mask: np.ndarray,
    rows: np.ndarray | None = None,
) -> Node:
    """One layer: multi-head softmax self-attention + feed-forward block.

    Keys and values span every column of ``e`` (d_e, B, T); ``mask`` is
    the additive (T, T) mask.  Queries, and everything after the attention,
    are computed only at the columns ``rows`` (all columns when None), so
    the output is (d_e, B, len(rows)).
    """
    d_e, b, t = e.value.shape
    h, d_w = config.n_heads, config.d_w
    eq = e
    if rows is not None:
        eq = tape.index_last(e, rows)
        mask = mask[rows]
    tq = eq.value.shape[2]

    def heads(name, x_flat, n):
        w = tape.reshape(p[f"l{l}.{name}"], (h * d_w, d_e))
        z = tape.matmul(w, x_flat)  # (H*d_w, B*n)
        z = tape.reshape(z, (h, d_w, b, n))
        return tape.transpose(z, (2, 0, 3, 1))  # (B, H, n, d_w)

    e_flat = _flat(tape, e)
    q = heads("wq", e_flat if rows is None else _flat(tape, eq), tq)
    k = heads("wk", e_flat, t)
    v = heads("wv", e_flat, t)
    o = tape.attention(q, k, v, 1.0 / np.sqrt(d_w), mask)  # (B, H, Tq, d_v)
    o = tape.transpose(o, (1, 3, 0, 2))  # (H, d_v, B, Tq)
    o = tape.reshape(o, (h * d_w, b * tq))  # heads stacked token by token
    a = tape.matmul(tape.transpose(p[f"l{l}.wo"], (1, 0)), o)  # (d_e, B*Tq)
    r = tape.add(_unflat(tape, a, b, tq), eq)

    gain = tape.reshape(p[f"l{l}.ln_g"], (d_e, 1, 1))
    bias = tape.reshape(p[f"l{l}.ln_b"], (d_e, 1, 1))
    ln = tape.layer_norm(r, gain, bias, axis=0)
    hid = tape.gelu(tape.matmul(p[f"l{l}.w2"], _flat(tape, ln)))  # (d_f, B*Tq)
    f = tape.matmul(p[f"l{l}.w1"], hid)  # (d_e, B*Tq)
    return tape.add(_unflat(tape, f, b, tq), r)


def leaf_params(tape: Tape, params: dict) -> dict[str, Node]:
    return {name: tape.leaf(arr, name) for name, arr in params.items()}


def forward_graph(
    tape: Tape,
    p: dict[str, Node],
    config: ModelConfig,
    tokens: np.ndarray,
    constellation: Constellation,
    n_queries: int = 1,
) -> tuple[Node, Node]:
    """Build the full model on the tape for a token batch (d_s, B, T) laid
    out by :func:`build_tokens` with ``n_queries`` = S queries.

    The columns sit at positions 0..2N-1 (the pilots), then 2N (every
    query).  The causal mask (key k is visible to query j iff k == j or
    pos[k] < pos[j]) and the positional term come from the positions, and
    the read-out columns are those at even positions.  Returns
    ``(class_probs, soft_estimates)`` nodes with shapes (n_classes, B, N+S)
    and (2 n_t, B, N+S): one read-out per pilot observation, then one per
    query.  More than 2*n_max pilot columns, or S outside 1..T, raise
    ValueError.
    """
    d_s, b, t = tokens.shape
    pos = _positions(config, t, n_queries)
    tok = tape.constant(tokens)
    e = tape.matmul(p["embed"], _flat(tape, tok))
    e = _unflat(tape, e, b, t)
    # gather the positional vectors by a one-hot matmul: exact, and
    # repeated positions are fine
    select = np.eye(p["pos"].value.shape[1])[:, pos]  # (2 n_max + 1, T)
    pos_term = tape.matmul(p["pos"], tape.constant(select))
    e = tape.add(e, tape.reshape(pos_term, (config.d_e, 1, t)))
    mask = causal_mask(pos)
    # the loss reads only the y columns, so the last layer computes only those
    y_columns = np.flatnonzero(pos % 2 == 0)
    for l in range(config.n_layers):
        last = l == config.n_layers - 1
        e = _attention_block(tape, p, config, l, e, mask, y_columns if last else None)
    np1 = y_columns.size
    logits = tape.matmul(p["head.w"], _flat(tape, e))
    logits = tape.add(logits, tape.reshape(p["head.b"], (config.n_classes, 1)))
    probs = tape.softmax(_unflat(tape, logits, b, np1), axis=0)  # (n_classes, B, P)
    xr = tape.constant(constellation.real_joint())  # (2 n_t, n_classes)
    est = tape.matmul(xr, tape.reshape(probs, (config.n_classes, b * np1)))
    est = tape.reshape(est, (2 * constellation.n_t, b, np1))
    return probs, est


def forward_batch(
    params: dict,
    config: ModelConfig,
    constellation: Constellation,
    tokens: np.ndarray,
    n_queries: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Inference on a token batch: probs (n_classes, B, N+S), complex soft
    estimates (B, N+S, n_t).  ``n_queries`` as in :func:`forward_graph`."""
    tape = Tape()
    p = leaf_params(tape, params)
    probs, est = forward_graph(tape, p, config, tokens, constellation, n_queries)
    n_t = constellation.n_t
    ev = est.value
    cplx = (ev[:n_t] + 1j * ev[n_t:]).transpose(1, 2, 0)
    return probs.value, cplx
