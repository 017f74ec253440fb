"""Reverse-mode automatic differentiation on a flat numpy tape.

A :class:`Tape` records every operation as a node holding the op kind, the
parent node ids, and the cached forward value; construction order is the
topological order, so the backward sweep is a single reversed pass.  Nodes
carry whole arrays (not scalars): the per-step graph of the sequence model
is a few dozen nodes whose cost is dominated by the underlying BLAS calls.

Only the operations the equalizer model needs are provided.  Each op
attaches a vector-Jacobian closure at build time; gradients accumulate on
the nodes and named leaves report them back through :meth:`Tape.backward`.
A caller that computes a whole block of the model itself, such as a
transformer layer, records it as one node with :meth:`Tape.fused`.

The kernels of such blocks live here as functions on arrays that write
into outputs and scratch the caller allocated: the exact GELU, the layer
norm and the fused attention, each with its VJP.  Beyond numpy's own
iterator buffers (8192 elements an operand, on strided or broadcast
operands) they allocate nothing, so they may run on the pool's worker
threads (the rule of :func:`icleq.numerics._lanes`).

A :class:`Tape` method runs on the calling thread, and its matmul and
both VJP products are each one unsplit ``a @ b``.  A worker calls only
numpy, never a :class:`Tape` method, and never submits to the pool itself.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["Tape", "Node", "GraphNumericsError"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-5


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
    np.matmul(q, _swap_last(k), out=p)
    p *= scale
    p += mask_add
    _softmax_inplace(p, -1, s)
    np.matmul(p, v, out=out)


def _attention_vjp(ds, dq, dk, dv, dsp, s, g, p, q, k, v, scale):
    """Gradients ``dq``, ``dk``, ``dv`` of :func:`_attention` for the output
    cotangent ``g``, reusing the saved probabilities ``p``: the fused
    backward of FlashAttention (Dao et al., 2022) without its tiling.
    ``ds``, ``dsp`` (p's shape) and ``s`` are scratch."""
    np.matmul(_swap_last(p), g, out=dv)
    np.matmul(g, _swap_last(v), out=ds)
    ds -= np.sum(np.multiply(ds, p, out=dsp), axis=-1, keepdims=True, out=s)
    ds *= p
    ds *= scale
    np.matmul(ds, k, out=dq)
    np.matmul(_swap_last(ds), q, out=dk)


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
        out = a.value @ b.value

        def vjp(g):
            ga = gb = None
            if a.needs_grad:
                ga = _unbroadcast(g @ _swap_last(b.value), a.value.shape)
            if b.needs_grad:
                gb = _unbroadcast(_swap_last(a.value) @ g, b.value.shape)
            return (ga, gb)

        return self._push("matmul", (a, b), out, vjp)

    # -- shape ---------------------------------------------------------------

    def reshape(self, a: Node, shape: tuple) -> Node:
        out = a.value.reshape(shape)

        def vjp(g):
            return (g.reshape(a.value.shape),)

        return self._push("reshape", (a,), out, vjp)

    # -- nonlinearities -----------------------------------------------------

    def softmax(self, a: Node, axis: int) -> Node:
        """Softmax over ``axis``."""
        p = _softmax_inplace(a.value.copy(), axis)

        def vjp(g):
            inner = (g * p).sum(axis=axis, keepdims=True)
            return (p * (g - inner),)

        return self._push("softmax", (a,), p, vjp)

    def fused(self, op: str, parents: tuple, value: np.ndarray, vjp) -> Node:
        """A node the caller computed itself, such as a whole transformer
        layer: ``vjp(g)`` returns one gradient per parent, of its shape."""
        return self._push(op, tuple(parents), value, vjp)

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
