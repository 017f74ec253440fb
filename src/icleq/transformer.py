"""Decoder-only attention model mapping pilot contexts to soft symbol estimates.

The input sequence interleaves received and transmitted vectors,
(y_1, x_1, ..., y_N, x_N, y), each realified ([Re; Im], zero-padded to a
common width) and linearly embedded.  Stacked multi-head softmax
self-attention layers with a feed-forward/residual/layer-norm block follow,
and a linear softmax head over the enumerated joint constellation reads out
a class distribution at every received-signal position.  The soft symbol
estimate is the probability-weighted constellation average, so the model's
output lives in the convex hull of the joint input set; the final position
is the equalizer output.

The layer follows the reference equations literally: attention logits are
scaled by sqrt(d_w) with d_w = d_e / n_heads, the layer norm sits inside
the feed-forward branch (applied to attention output + residual), and the
activation is the exact (erf-based) GELU.  The causal mask is on by
default but can be disabled to reproduce unmasked attention.

Everything is built on the :mod:`icleq.autodiff` tape; inference just runs
the same graph without a backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """Architecture and input-geometry hyperparameters."""

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
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_e % self.n_heads:
            raise ValueError("d_e must be divisible by n_heads")

    @property
    def d_w(self) -> int:
        return self.d_e // self.n_heads

    def replace(self, **kw) -> "ModelConfig":
        return replace(self, **kw)


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


def build_tokens(config: ModelConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Interleaved token columns for a batch, shape (d_s, B, 2N+1).

    ``xs`` is (B, N+1, n_t) with the test input in the last slot (used only
    as a training target, never as a token); ``ys`` is (B, N+1, n_r) with
    the query observation last.  Column layout: y_1, x_1, ..., y_N, x_N, y.
    Each column is [Re; Im] of its vector, zero-padded to d_s.
    """
    b, np1, n_t = xs.shape
    n_r = ys.shape[2]
    n = np1 - 1
    t = 2 * n + 1
    if 2 * max(n_t, n_r) > config.d_s:
        raise ValueError("d_s too small for the antenna counts")
    if n > config.n_max:
        raise ValueError(f"context length {n} exceeds n_max={config.n_max}")
    tok = np.zeros((config.d_s, b, t))
    tok[:n_r, :, 0::2] = np.moveaxis(ys.real, -1, 0)
    tok[n_r : 2 * n_r, :, 0::2] = np.moveaxis(ys.imag, -1, 0)
    if n:
        tok[:n_t, :, 1::2] = np.moveaxis(xs[:, :n].real, -1, 0)
        tok[n_t : 2 * n_t, :, 1::2] = np.moveaxis(xs[:, :n].imag, -1, 0)
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


def causal_mask(t: int) -> np.ndarray:
    """Additive mask (T_query, T_key): keys beyond the query are blocked."""
    return np.triu(np.full((t, t), MASK_NEG), k=1)


def _attention_block(tape: Tape, p: dict, config: ModelConfig, l: int, e: Node) -> Node:
    """One layer: multi-head softmax self-attention + feed-forward block."""
    d_e, b, t = e.value.shape
    h, d_w = config.n_heads, config.d_w
    e_flat = _flat(tape, e)

    def heads(name, transpose_axes):
        w = tape.reshape(p[f"l{l}.{name}"], (h * d_w, d_e))
        z = tape.matmul(w, e_flat)  # (H*d_w, B*T)
        z = tape.reshape(z, (h, d_w, b, t))
        return tape.transpose(z, transpose_axes)

    k = heads("wk", (2, 0, 1, 3))  # (B, H, d_w, T)
    qt = heads("wq", (2, 0, 3, 1))  # (B, H, T, d_w)
    vt = heads("wv", (2, 0, 3, 1))  # (B, H, T, d_w)

    scores = tape.scale(tape.matmul(qt, k), 1.0 / np.sqrt(d_w))  # (B, H, Tq, Tk)
    mask = causal_mask(t) if config.use_causal_mask else None
    att = tape.softmax(scores, axis=-1, mask_add=mask)
    o = tape.matmul(att, vt)  # (B, H, T, d_v)
    o = tape.transpose(o, (1, 3, 0, 2))  # (H, d_v, B, T)
    o = tape.reshape(o, (h * d_w, b * t))  # heads stacked token by token
    a = tape.matmul(tape.transpose(p[f"l{l}.wo"], (1, 0)), o)  # (d_e, B*T)
    r = tape.add(_unflat(tape, a, b, t), e)

    gain = tape.reshape(p[f"l{l}.ln_g"], (d_e, 1, 1))
    bias = tape.reshape(p[f"l{l}.ln_b"], (d_e, 1, 1))
    ln = tape.layer_norm(r, gain, bias, axis=0)
    hid = tape.gelu(tape.matmul(p[f"l{l}.w2"], _flat(tape, ln)))  # (d_f, B*T)
    f = tape.matmul(p[f"l{l}.w1"], hid)  # (d_e, B*T)
    return tape.add(_unflat(tape, f, b, t), r)


def leaf_params(tape: Tape, params: dict) -> dict[str, Node]:
    return {name: tape.leaf(arr, name) for name, arr in params.items()}


def forward_graph(
    tape: Tape,
    p: dict[str, Node],
    config: ModelConfig,
    tokens: np.ndarray,
    constellation: Constellation,
) -> tuple[Node, Node]:
    """Build the full model on the tape for a token batch (d_s, B, T).

    Returns ``(class_probs, soft_estimates)`` nodes with shapes
    (n_classes, B, P) and (2 n_t, B, P) where P = N + 1 is the number of
    received-signal positions (columns 0, 2, ..., 2N).
    """
    d_s, b, t = tokens.shape
    tok = tape.constant(tokens)
    e = tape.matmul(p["embed"], _flat(tape, tok))
    e = _unflat(tape, e, b, t)
    if config.use_positional:
        pos = tape.slice_last(p["pos"], t)
        e = tape.add(e, tape.reshape(pos, (config.d_e, 1, t)))
    for l in range(config.n_layers):
        e = _attention_block(tape, p, config, l, e)
    logits = tape.matmul(p["head.w"], _flat(tape, e))
    logits = tape.add(logits, tape.reshape(p["head.b"], (config.n_classes, 1)))
    logits = _unflat(tape, logits, b, t)
    y_positions = np.arange(0, t, 2)
    logits_y = tape.index_last(logits, y_positions)  # (n_classes, B, P)
    probs = tape.softmax(logits_y, axis=0)
    xr = tape.constant(constellation.real_joint())  # (2 n_t, n_classes)
    np1 = y_positions.size
    est = tape.matmul(xr, tape.reshape(probs, (config.n_classes, b * np1)))
    est = tape.reshape(est, (2 * constellation.n_t, b, np1))
    return probs, est


def forward_batch(
    params: dict,
    config: ModelConfig,
    constellation: Constellation,
    tokens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Inference on a token batch: probs (n_classes, B, P), complex soft
    estimates (B, P, n_t)."""
    tape = Tape()
    p = leaf_params(tape, params)
    probs, est = forward_graph(tape, p, config, tokens, constellation)
    n_t = constellation.n_t
    ev = est.value
    cplx = (ev[:n_t] + 1j * ev[n_t:]).transpose(1, 2, 0)
    return probs.value, cplx
