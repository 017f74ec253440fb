"""Reverse-mode automatic differentiation on a flat numpy tape.

A :class:`Tape` records every operation as a node holding the op kind, the
parent node ids, and the cached forward value; construction order is the
topological order, so the backward sweep is a single reversed pass.  Nodes
carry whole arrays (not scalars): the per-step graph of the sequence model
is a few dozen nodes whose cost is dominated by the underlying BLAS calls.

Only the operations the equalizer model needs are provided.  Each op
attaches a vector-Jacobian closure at build time; gradients accumulate on
the nodes and named leaves report them back through :meth:`Tape.backward`.

The heavy work is split over the cores by :func:`icleq.numerics._by_rows`,
and every split value is bit-identical to the unsplit op:

- the exact GELU (forward and VJP) along the leading axis;
- each 2-D matmul of at least ``_SPLIT_MADDS`` = 2^22 multiply-adds (the
  forward and both VJP products), by blocks of output rows cut at
  multiples of ``_ROW_UNIT`` = 32 rows.  OpenBLAS's gemm computes a row of
  the product the same way in such blocks, but not in blocks of 1, 3, 5,
  7, 12 or 21 rows, nor when the column count is not a multiple of 8, nor
  when a block is small enough (10^6 multiply-adds) for its small-matrix
  kernel; so only products with a multiple of 8 columns are split, into
  blocks of at least ``_BLOCK_MADDS`` = 2^20 multiply-adds.  Smaller
  products, such as every matmul of a one-sequence ICL forward, run
  inline;
- the fused attention (forward and VJP) along the batch axis.

A worker calls only numpy, never a :class:`Tape` method, and never submits
to the pool itself.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .numerics import _by_rows

__all__ = ["Tape", "Node", "GraphNumericsError"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_SPLIT_MADDS = 1 << 22  # multiply-adds of the smallest matmul split over the cores
_BLOCK_MADDS = 1 << 20  # multiply-adds of the smallest block of a split matmul
_ROW_UNIT = 32  # a split matmul's cuts fall at multiples of this many rows


class GraphNumericsError(RuntimeError):
    """A graph node produced a non-finite value; the message names it."""


class Node:
    __slots__ = ("op", "parents", "value", "grad", "needs_grad", "nid", "name", "_vjp")

    def __init__(self, op, parents, value, needs_grad, nid, name=None, vjp=None):
        self.op = op
        self.parents = parents
        self.value = value
        self.grad = None
        self.needs_grad = needs_grad
        self.nid = nid
        self.name = name
        self._vjp = vjp

    def __repr__(self):
        shape = getattr(self.value, "shape", ())
        return f"Node({self.nid}:{self.op}{'/' + self.name if self.name else ''}, shape={shape})"


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _gelu_forward(out, phi, x):
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``; a large 2-D product is split by blocks of output rows."""
    if a.ndim != 2 or b.ndim != 2:
        return a @ b
    (m, k), n = a.shape, b.shape[1]
    if m * k * n < _SPLIT_MADDS or n % 8:
        return a @ b
    unit = _ROW_UNIT * -(-_BLOCK_MADDS // (_ROW_UNIT * k * n))
    out = np.empty((m, n), np.result_type(a, b))
    return _by_rows(lambda o, rows: np.matmul(rows, b, out=o), out, a, unit=unit)


def _softmax_inplace(p: np.ndarray, axis: int) -> np.ndarray:
    np.subtract(p, p.max(axis=axis, keepdims=True), out=p)
    np.exp(p, out=p)
    np.divide(p, p.sum(axis=axis, keepdims=True), out=p)
    return p


class Tape:
    """Computation graph: node list in construction (= topological) order."""

    def __init__(self):
        self.nodes: list[Node] = []

    # -- node creation ------------------------------------------------------

    def _push(self, op, parents, value, vjp, name=None, needs_grad=None):
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        node = Node(op, parents, value, needs_grad, len(self.nodes), name, vjp)
        self.nodes.append(node)
        return node

    def leaf(self, value: np.ndarray, name: str) -> Node:
        """Trainable leaf; its gradient is reported by :meth:`backward`."""
        return self._push("leaf", (), np.asarray(value, float), None, name, True)

    def constant(self, value: np.ndarray) -> Node:
        """Input data or fixed tables; no gradient flows into it."""
        return self._push("const", (), np.asarray(value, float), None, None, False)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        out = a.value + b.value

        def vjp(g):
            return (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape))

        return self._push("add", (a, b), out, vjp)

    def sub(self, a: Node, b: Node) -> Node:
        out = a.value - b.value

        def vjp(g):
            return (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape))

        return self._push("sub", (a, b), out, vjp)

    def scale(self, a: Node, c: float) -> Node:
        out = a.value * c

        def vjp(g):
            return (g * c,)

        return self._push("scale", (a,), out, vjp)

    def square(self, a: Node) -> Node:
        out = a.value * a.value

        def vjp(g):
            return (2.0 * a.value * g,)

        return self._push("square", (a,), out, vjp)

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim < 2 or b.value.ndim < 2:
            raise ValueError("matmul operands must have ndim >= 2")
        out = _matmul(a.value, b.value)

        def vjp(g):
            ga = _unbroadcast(_matmul(g, _swap_last(b.value)), a.value.shape)
            gb = _unbroadcast(_matmul(_swap_last(a.value), g), b.value.shape)
            return (ga, gb)

        return self._push("matmul", (a, b), out, vjp)

    # -- shape ---------------------------------------------------------------

    def reshape(self, a: Node, shape: tuple) -> Node:
        out = a.value.reshape(shape)

        def vjp(g):
            return (g.reshape(a.value.shape),)

        return self._push("reshape", (a,), out, vjp)

    def transpose(self, a: Node, axes: tuple) -> Node:
        out = np.ascontiguousarray(a.value.transpose(axes))
        inv = np.argsort(axes)

        def vjp(g):
            return (g.transpose(inv),)

        return self._push("transpose", (a,), out, vjp)

    def index_last(self, a: Node, idx: np.ndarray) -> Node:
        """Select columns of the last axis; indices must be unique, since
        the VJP writes (does not add) the gradient into each column."""
        idx = np.asarray(idx, dtype=int)
        if len(np.unique(idx)) != idx.size:
            raise ValueError(f"index_last needs unique indices, got {idx.tolist()}")
        out = a.value[..., idx]

        def vjp(g):
            z = np.zeros(a.value.shape)
            z[..., idx] = g
            return (z,)

        return self._push("index_last", (a,), out, vjp)

    # -- nonlinearities -----------------------------------------------------

    def gelu(self, a: Node) -> Node:
        """Exact Gaussian error linear unit x * Phi(x), split over the cores."""
        x = a.value
        phi = np.empty_like(x)
        out = _by_rows(_gelu_forward, np.empty_like(x), phi, x)

        def vjp(g):
            return (_by_rows(_gelu_vjp, np.empty_like(x), g, x, phi),)

        return self._push("gelu", (a,), out, vjp)

    def layer_norm(self, a: Node, gain: Node, bias: Node, axis: int, eps: float = 1e-5) -> Node:
        """Normalize over ``axis`` (per token), then affine gain/bias.

        ``gain`` and ``bias`` must already be shaped to broadcast against
        ``a`` (callers reshape the 1-D parameters).
        """
        x = a.value
        mu = x.mean(axis=axis, keepdims=True)
        var = x.var(axis=axis, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv
        out = gain.value * xhat + bias.value

        def vjp(g):
            dgain = _unbroadcast(g * xhat, gain.value.shape)
            dbias = _unbroadcast(g, bias.value.shape)
            dxhat = g * gain.value
            m1 = dxhat.mean(axis=axis, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axis, keepdims=True)
            dx = (dxhat - m1 - xhat * m2) * inv
            return (dx, dgain, dbias)

        return self._push("layer_norm", (a, gain, bias), out, vjp)

    def softmax(self, a: Node, axis: int) -> Node:
        """Softmax over ``axis``."""
        p = _softmax_inplace(a.value.copy(), axis)

        def vjp(g):
            inner = (g * p).sum(axis=axis, keepdims=True)
            return (p * (g - inner),)

        return self._push("softmax", (a,), p, vjp)

    def attention(self, q: Node, k: Node, v: Node, scale: float, mask_add: np.ndarray) -> Node:
        """``softmax(q k^T * scale + mask_add) v`` over the last two axes.

        ``q`` is (..., Tq, d) and ``k``, ``v`` are (..., Tk, d) with the same
        leading axes; Tq may be smaller than Tk.  ``mask_add`` (Tq, Tk) holds
        0 (allowed) or a large negative constant; after the max shift those
        logits underflow to exactly 0 probability, which keeps masked keys
        exactly out of the mixture.  The VJP reuses the saved probabilities:
        the fused backward of FlashAttention (Dao et al., 2022) without its
        tiling.  Forward and VJP are split over the cores along the leading
        (batch) axis; every array a worker writes is allocated here.
        """
        qv, kv, vv = q.value, k.value, v.value
        p = np.empty(qv.shape[:-1] + kv.shape[-2:-1])
        out = np.empty(qv.shape[:-1] + vv.shape[-1:])

        def forward(p, out, q, k, v):
            np.matmul(q, _swap_last(k), out=p)
            p *= scale
            p += mask_add
            _softmax_inplace(p, -1)
            np.matmul(p, v, out=out)

        _by_rows(forward, p, out, qv, kv, vv)

        def backward(ds, dq, dk, dv, dsp, g, p, q, k, v):
            np.matmul(_swap_last(p), g, out=dv)
            np.matmul(g, _swap_last(v), out=ds)
            ds -= np.multiply(ds, p, out=dsp).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            np.matmul(ds, k, out=dq)
            np.matmul(_swap_last(ds), q, out=dk)

        def vjp(g):
            dq, dk, dv = np.empty_like(qv), np.empty_like(kv), np.empty_like(vv)
            ds = np.empty_like(p)
            _by_rows(backward, ds, dq, dk, dv, np.empty_like(p), g, p, qv, kv, vv)
            return (dq, dk, dv)

        return self._push("attention", (q, k, v), out, vjp)

    def sum_all(self, a: Node) -> Node:
        out = np.asarray(a.value.sum())

        def vjp(g):
            return (np.full(a.value.shape, float(g)),)

        return self._push("sum_all", (a,), out, vjp)

    # -- backward ------------------------------------------------------------

    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Accumulate gradients of the scalar ``root`` into every reachable
        node; returns ``{leaf name: gradient}`` for the named leaves."""
        if np.ndim(root.value) != 0:
            raise ValueError("backward needs a scalar root")
        for n in self.nodes:
            n.grad = None
        root.grad = np.asarray(1.0)
        for node in reversed(self.nodes):
            if node.grad is None or node._vjp is None:
                continue
            contribs = node._vjp(node.grad)
            for parent, g in zip(node.parents, contribs):
                if not parent.needs_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
        out = {}
        for n in self.nodes:
            if n.name is not None and n.op == "leaf":
                out[n.name] = n.grad if n.grad is not None else np.zeros_like(n.value)
        return out
