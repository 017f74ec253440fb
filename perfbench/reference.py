"""Plain-numpy reference of the equalizer model, with no autodiff tape.

Written from the model equations: tokens interleave (y_1, x_1, ..., y_N,
x_N, y), each realified as [Re; Im] and zero-padded to d_s; a linear
embedding plus learned positions; per layer, multi-head causal softmax
attention with logits scaled by 1/sqrt(d_w), an output projection and a
residual, then a feed-forward branch w1 @ GELU(w2 @ LN(r)) added to r; a
linear head whose softmax over the joint constellation, read at the
received-signal columns, weights the constellation into a soft estimate.

The benchmark compares the program's outputs against this code, so it
shares none of the program's model code.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf


def tokens(xs: np.ndarray, ys: np.ndarray, d_s: int) -> np.ndarray:
    """Token columns (d_s, B, 2N+1) from inputs (B, N+1, n_t) and
    observations (B, N+1, n_r); the last input is a target, never a token."""
    b, np1, n_t = xs.shape
    n_r = ys.shape[2]
    out = np.zeros((d_s, b, 2 * np1 - 1))
    for i in range(np1):
        out[:n_r, :, 2 * i] = ys[:, i].real.T
        out[n_r : 2 * n_r, :, 2 * i] = ys[:, i].imag.T
        if i < np1 - 1:
            out[:n_t, :, 2 * i + 1] = xs[:, i].real.T
            out[n_t : 2 * n_t, :, 2 * i + 1] = xs[:, i].imag.T
    return out


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    z = np.exp(z - z.max(axis=axis, keepdims=True))
    return z / z.sum(axis=axis, keepdims=True)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def forward(params: dict, model, tok: np.ndarray, real_joint: np.ndarray) -> np.ndarray:
    """Soft estimates (2 n_t, B, N+1) at the received-signal columns."""
    h, d_e = model.n_heads, model.d_e
    d_w = d_e // h
    t = tok.shape[2]
    e = np.einsum("es,sbt->ebt", params["embed"], tok)
    if model.use_positional:
        e = e + params["pos"][:, None, :t]
    allowed = np.tril(np.ones((t, t), dtype=bool)) if model.use_causal_mask else True
    for l in range(model.n_layers):
        q, k, v = (
            np.einsum("hwe,ebt->bhtw", params[f"l{l}.{w}"], e, optimize=True)
            for w in ("wq", "wk", "wv")
        )
        logits = np.einsum("bhqw,bhkw->bhqk", q, k, optimize=True) / np.sqrt(d_w)
        att = _softmax(np.where(allowed, logits, -np.inf), axis=-1)
        o = np.einsum("bhqk,bhkw->hwbq", att, v, optimize=True).reshape(h * d_w, *e.shape[1:])
        r = np.einsum("ce,cbt->ebt", params[f"l{l}.wo"], o, optimize=True) + e
        mu = r.mean(axis=0)
        var = ((r - mu) ** 2).mean(axis=0)
        ln = (r - mu) / np.sqrt(var + 1e-5) * params[f"l{l}.ln_g"][:, None, None]
        ln = ln + params[f"l{l}.ln_b"][:, None, None]
        hid = _gelu(np.einsum("fe,ebt->fbt", params[f"l{l}.w2"], ln, optimize=True))
        e = np.einsum("ef,fbt->ebt", params[f"l{l}.w1"], hid, optimize=True) + r
    logits = np.einsum("ce,ebt->cbt", params["head.w"], e[:, :, 0::2], optimize=True)
    probs = _softmax(logits + params["head.b"][:, None, None], axis=0)
    return np.einsum("rc,cbp->rbp", real_joint, probs)


def loss(params: dict, model, tok: np.ndarray, targets: np.ndarray, real_joint, final_only=False):
    """Mean squared error of the soft estimates against realified targets
    (2 n_t, B, N+1), over every position or only the last one."""
    d = forward(params, model, tok, real_joint) - targets
    if final_only:
        d = d[:, :, -1:]
    return float(np.sum(d * d) / (d.shape[1] * d.shape[2]))
