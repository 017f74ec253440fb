import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np
import pytest
from scipy.special import ndtr

from icleq import autodiff, numerics
from icleq.autodiff import GraphNumericsError, Tape
from icleq.channel import qam4_constellation
from icleq.experiments import ExperimentConfig
from icleq.rng import RngStream
from icleq.training import (
    PretrainTaskSet,
    TrainConfig,
    _loss_graph,
    gradient,
    sample_train_batch,
)
from icleq.transformer import ModelConfig, forward_batch, init_params

C2 = qam4_constellation(2)
TINY = ModelConfig(n_layers=1, n_heads=2, d_e=8, d_f=16, d_s=4, n_max=4, n_classes=16)


def fd_check(build, params, h=1e-6, rtol=1e-6, atol=1e-9):
    """Every-coordinate central finite-difference check of tape gradients.

    ``build(tape, pnodes)`` must return a scalar node.
    """
    tape = Tape()
    pnodes = {k: tape.leaf(v, k) for k, v in params.items()}
    loss = build(tape, pnodes)
    grads = tape.backward(loss)

    def value(ps):
        t = Tape()
        return float(build(t, {k: t.leaf(v, k) for k, v in ps.items()}).value)

    for name, p in params.items():
        g = grads[name]
        for ix in range(p.size):
            plus = {k: v.copy() for k, v in params.items()}
            plus[name].flat[ix] += h
            minus = {k: v.copy() for k, v in params.items()}
            minus[name].flat[ix] -= h
            fd = (value(plus) - value(minus)) / (2 * h)
            an = g.flat[ix]
            assert abs(an - fd) <= max(atol, rtol * max(abs(an), abs(fd))), (
                f"{name}[{ix}]: analytic {an} vs fd {fd}"
            )


def rnd(seed, *shape):
    return RngStream(seed).normal(size=shape)


def causal(t):
    return np.triu(np.full((t, t), -1e9), k=1)


def attention_build(mask, scale=0.7):
    def build(t, p):
        out = t.attention(p["q"], p["k"], p["v"], scale, mask)
        return t.sum_all(t.square(out))

    return build


def gelu_reference(x, g):
    """Unsplit GELU and its VJP for the output cotangent g."""
    phi = ndtr(x)
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * phi, g * (phi + x * pdf)


class TestOpGradients:
    def test_matmul_plain(self):
        params = {"a": rnd(1, 3, 4), "b": rnd(2, 4, 2)}
        fd_check(
            lambda t, p: t.sum_all(t.square(t.matmul(p["a"], p["b"]))), params
        )

    def test_matmul_broadcast_batch(self):
        # (2, 3, 4) @ (4, 2) and (3, 4) @ (2, 4, 2): both broadcast sides
        params = {"a": rnd(3, 2, 3, 4), "b": rnd(4, 4, 2)}
        fd_check(lambda t, p: t.sum_all(t.square(t.matmul(p["a"], p["b"]))), params)
        params = {"a": rnd(5, 3, 4), "b": rnd(6, 2, 4, 2)}
        fd_check(lambda t, p: t.sum_all(t.square(t.matmul(p["a"], p["b"]))), params)

    def test_add_sub_matmul_broadcast(self):
        params = {"a": rnd(7, 2, 3), "b": rnd(8, 1, 3), "c": rnd(9, 2, 1)}

        def build(t, p):
            s = t.add(p["a"], p["b"])
            s = t.sub(s, p["c"])
            # the outer product c b makes the gradient of each broadcast
            # operand depend on the other's values
            s = t.add(s, t.matmul(p["c"], p["b"]))
            s = t.add(t.matmul(s, t.transpose(p["b"], (1, 0))), p["b"])
            return t.sum_all(t.square(s))

        fd_check(build, params)

    def test_scale_square(self):
        params = {"a": rnd(10, 4)[:, None]}
        fd_check(lambda t, p: t.sum_all(t.square(t.scale(p["a"], -2.5))), params)

    def test_gelu(self):
        params = {"a": rnd(11, 3, 5)}
        fd_check(lambda t, p: t.sum_all(t.square(t.gelu(p["a"]))), params, h=1e-6)

    def test_layer_norm(self):
        params = {"a": rnd(12, 5, 2, 3), "g": 1 + 0.1 * rnd(13, 5), "b": 0.1 * rnd(14, 5)}

        def build(t, p):
            ln = t.layer_norm(
                p["a"], t.reshape(p["g"], (5, 1, 1)), t.reshape(p["b"], (5, 1, 1)), axis=0
            )
            return t.sum_all(t.square(ln))

        fd_check(build, params, h=1e-6, rtol=1e-5)

    def test_attention_with_mask(self):
        params = {"q": rnd(15, 2, 4, 3), "k": rnd(151, 2, 4, 3), "v": rnd(152, 2, 4, 3)}
        fd_check(attention_build(causal(4)), params)

    def test_attention_without_mask(self):
        """A zero mask: every query sees every key."""
        params = {"q": rnd(153, 2, 4, 3), "k": rnd(154, 2, 4, 3), "v": rnd(155, 2, 4, 3)}
        fd_check(attention_build(np.zeros((4, 4))), params)

    def test_attention_fewer_queries_than_keys(self):
        """The query rows 1 and 3 of a causal mask over 5 keys, as the last
        layer uses at the received-signal columns."""
        rows = np.array([1, 3])
        params = {"q": rnd(156, 2, 2, 3), "k": rnd(157, 2, 5, 3), "v": rnd(158, 2, 5, 3)}
        fd_check(attention_build(causal(5)[rows]), params)

    def test_softmax_axis0(self):
        params = {"a": rnd(16, 5, 3)}
        fd_check(lambda t, p: t.sum_all(t.square(t.softmax(p["a"], axis=0))), params)

    def test_transpose_reshape(self):
        params = {"a": rnd(17, 2, 3, 4)}

        def build(t, p):
            x = t.transpose(p["a"], (1, 2, 0))
            x = t.reshape(x, (3, 8))
            return t.sum_all(t.square(x))

        fd_check(build, params)

    def test_index_and_slice_last(self):
        """A strided selection and a leading slice of the last axis."""
        params = {"a": rnd(18, 3, 6)}

        def build(t, p):
            x = t.index_last(p["a"], np.array([0, 2, 4]))
            y = t.index_last(p["a"], np.arange(2))
            return t.add(t.sum_all(t.square(x)), t.sum_all(t.square(y)))

        fd_check(build, params)

    def test_index_last_rejects_repeated_indices(self):
        """A repeated column would take the gradient of only one of its copies."""
        tape = Tape()
        a = tape.leaf(rnd(181, 3, 6), "a")
        with pytest.raises(ValueError, match=r"unique indices, got \[0, 2, 0\]"):
            tape.index_last(a, np.array([0, 2, 0]))


class TestGeluSplit:
    """The GELU split over row blocks is bit-identical to one unsplit call,
    for any number of blocks."""

    @pytest.mark.parametrize("cores", [1, 2, 5])
    @pytest.mark.parametrize("shape", [(0, 5), (1, 7), (3,), (257, 33)])
    def test_bit_identical_to_unsplit(self, monkeypatch, cores, shape):
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        x = 3.0 * RngStream(182).normal(size=shape)
        tape = Tape()
        out = tape.gelu(tape.leaf(x, "x"))
        grads = tape.backward(tape.sum_all(tape.square(out)))
        want_out, want_grad = gelu_reference(x, 2.0 * out.value)
        assert np.array_equal(out.value, want_out)
        assert np.array_equal(grads["x"], want_grad)

    def test_concurrent_callers(self):
        """Callers on several threads share the worker pool; each gets its
        own exact result."""
        xs = [RngStream(183, i).normal(size=(64, 40)) for i in range(6)]
        want = [gelu_reference(x, np.ones_like(x))[0] for x in xs]
        bad = []

        def call(i):
            for _ in range(20):
                tape = Tape()
                if not np.array_equal(tape.gelu(tape.leaf(xs[i], "x")).value, want[i]):
                    bad.append(i)

        run_threads(call, len(xs))
        assert bad == []


def run_threads(call, n):
    """``call(i)`` on n threads at a tiny switch interval, all joined."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class CountingPool:
    """Stands in for the worker pool of :mod:`icleq.numerics`, counting submits."""

    def __init__(self):
        self.submits = 0
        self._pool = ThreadPoolExecutor(4)

    def submit(self, *args):
        self.submits += 1
        return self._pool.submit(*args)


@pytest.fixture
def pool(monkeypatch):
    counting = CountingPool()
    monkeypatch.setattr(numerics, "_pool", counting)
    yield counting
    counting._pool.shutdown()


def step_setup(d_e, seed=190):
    """Parameters, config and batch of a training step at the default
    sizes with embedding width ``d_e`` (64 default, 32 the desk preset)."""
    cfg = ExperimentConfig(d_e=d_e).train_config(seed=seed)
    ts = PretrainTaskSet.sample(cfg.tasks, 64, RngStream(seed, 1))
    params = init_params(cfg.model, RngStream(seed, 2), scale=cfg.init_scale)
    return params, cfg, sample_train_batch(ts, cfg, C2, RngStream(seed, 3))


@cache
def step_matmul_shapes():
    """Operand shapes of every matmul of the default and desk steps."""
    shapes = set()
    for d_e in (64, 32):
        tape = Tape()
        _loss_graph(tape, *step_setup(d_e), C2)
        for n in tape.nodes:
            if n.op == "matmul":
                shapes.add((n.parents[0].value.shape, n.parents[1].value.shape))
    return sorted(shapes)


def layouts(x):
    """The same matrix C-ordered and as the transpose of a C-ordered array."""
    return np.ascontiguousarray(x), np.ascontiguousarray(x.T).T


class TestMatmulSplit:
    """A 2-D matmul split into blocks of output rows is bit-identical to
    ``a @ b`` for every product of a training step."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    def test_step_products_bit_identical(self, monkeypatch, pool, cores):
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        rng = RngStream(191)
        shapes = [*step_matmul_shapes(), ((100, 64), (64, 2624))]  # remainder rows
        assert len(shapes) > 10
        for (m, k), (_, n) in shapes:
            a, b, g = rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=(m, n))
            for x, y in ((a, b), (g, b.T), (a.T, g)):  # forward, then both VJP products
                for xl in layouts(x):
                    for yl in layouts(y):
                        assert np.array_equal(autodiff._matmul(xl, yl), xl @ yl), (x.shape, y.shape)
        assert (pool.submits > 0) == (cores > 1)

    def test_small_products_stay_inline(self, monkeypatch, pool):
        """The head's 16-row weight gradient, a product whose column count
        is not a multiple of 8, and every matmul of a one-sequence ICL
        forward (2N + S = 104 columns) never reach the pool."""
        monkeypatch.setattr(numerics, "_N_CORES", 5)
        g, e = rnd(192, 16, 1344), rnd(193, 64, 1344)
        assert np.array_equal(autodiff._matmul(g, e.T), g @ e.T)
        a, b = rnd(192, 64, 64), rnd(193, 64, 1100)
        assert np.array_equal(autodiff._matmul(a, b), a @ b)
        assert pool.submits == 0

        submits = []
        matmul = autodiff._matmul

        def counted(a, b):
            before = pool.submits
            out = matmul(a, b)
            submits.append(pool.submits - before)
            return out

        monkeypatch.setattr(autodiff, "_matmul", counted)
        cfg = ExperimentConfig()
        model = cfg.model_config()
        params = init_params(model, RngStream(194), scale=0.1)
        tokens = rnd(195, model.d_s, 1, 2 * cfg.n_context + cfg.n_test_symbols_per_task)
        forward_batch(params, model, C2, tokens, cfg.n_test_symbols_per_task)
        assert len(submits) > 10 and not any(submits)

    @pytest.mark.parametrize("d_e", [64, 32])
    def test_step_gradient_bit_identical(self, monkeypatch, pool, d_e):
        """Loss and every gradient of a default-size (and desk) step are the
        same on one core and on two."""
        params, cfg, batch = step_setup(d_e)
        monkeypatch.setattr(numerics, "_N_CORES", 1)
        want_loss, want = gradient(params, cfg, batch, C2)
        assert pool.submits == 0
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        loss, grads = gradient(params, cfg, batch, C2)
        assert pool.submits > 0
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert np.array_equal(g, want[name]), name

    def test_concurrent_callers(self, monkeypatch):
        """Callers on several threads share the worker pool; each gets its
        own exact product."""
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        pairs = [(rnd(196, 64, 64 + 8 * i), rnd(197, 64 + 8 * i, 1344)) for i in range(6)]
        want = [a @ b for a, b in pairs]
        bad = []

        def call(i):
            for _ in range(20):
                tape = Tape()
                a, b = (tape.leaf(x, name) for x, name in zip(pairs[i], "ab"))
                if not np.array_equal(tape.matmul(a, b).value, want[i]):
                    bad.append(i)

        run_threads(call, len(pairs))
        assert bad == []


def attention_reference(q, k, v, scale, mask, g):
    """Unsplit fused attention and its VJP for the output cotangent g."""
    p = q @ np.swapaxes(k, -1, -2)
    p *= scale
    p += mask
    p = np.exp(p - p.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    ds = g @ np.swapaxes(v, -1, -2)
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    ds *= scale
    return p @ v, ds @ k, np.swapaxes(ds, -1, -2) @ q, np.swapaxes(p, -1, -2) @ g


class TestAttentionSplit:
    """The fused attention split over the batch axis is bit-identical to
    the unsplit op, for all queries and for the pruned last layer."""

    @pytest.mark.parametrize("cores", [1, 2, 5])
    @pytest.mark.parametrize("rows", [None, [0, 2, 4, 6, 8]])
    def test_bit_identical_to_unsplit(self, monkeypatch, cores, rows):
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        mask = causal(9) if rows is None else causal(9)[rows]
        tq = mask.shape[0]
        q, k, v = rnd(198, 7, 3, tq, 4), rnd(199, 7, 3, 9, 4), rnd(200, 7, 3, 9, 5)
        tape = Tape()
        qn, kn, vn = tape.leaf(q, "q"), tape.leaf(k, "k"), tape.leaf(v, "v")
        out = tape.attention(qn, kn, vn, 0.5, mask)
        grads = tape.backward(tape.sum_all(tape.square(out)))
        want = attention_reference(q, k, v, 0.5, mask, 2.0 * out.value)
        for got, exp in zip((out.value, grads["q"], grads["k"], grads["v"]), want):
            assert np.array_equal(got, exp)

    @pytest.mark.parametrize("cores", [1, 2, 5])
    def test_masked_keys_exactly_zero(self, monkeypatch, cores):
        """With identity values the output is the probabilities: a masked
        key gets exactly 0 in every block of the split."""
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        mask = causal(9)[[1, 4, 8]]
        tape = Tape()
        q, k = tape.leaf(rnd(201, 7, 2, 3, 4), "q"), tape.leaf(rnd(202, 7, 2, 9, 4), "k")
        p = tape.attention(q, k, tape.constant(np.tile(np.eye(9), (7, 2, 1, 1))), 1.0, mask)
        assert np.all(p.value[..., mask < 0] == 0.0)
        assert np.all(p.value[..., mask == 0] > 0.0)


class TestTapeMechanics:
    def test_masked_attention_zeros_are_exact(self):
        """With identity values the output rows are the attention
        probabilities: masked keys get exactly 0 and every row sums to 1."""
        tape = Tape()
        q = tape.leaf(rnd(19, 2, 4, 3), "q")
        k = tape.leaf(rnd(191, 2, 4, 3), "k")
        p = tape.attention(q, k, tape.constant(np.tile(np.eye(4), (2, 1, 1))), 1.0, causal(4))
        assert np.all(p.value[..., 0, 1:] == 0.0)
        np.testing.assert_allclose(p.value.sum(axis=-1), 1.0, atol=1e-12)

    def test_constant_gets_no_gradient(self):
        tape = Tape()
        a = tape.leaf(rnd(20, 2, 2), "a")
        c = tape.constant(np.ones((2, 2)))
        loss = tape.sum_all(tape.square(tape.matmul(a, c)))
        grads = tape.backward(loss)
        assert set(grads) == {"a"}
        assert c.grad is None

    def test_unused_leaf_reports_zero_gradient(self):
        tape = Tape()
        a = tape.leaf(rnd(21, 2), "a")
        b = tape.leaf(rnd(22, 3), "b")
        loss = tape.sum_all(tape.square(tape.reshape(a, (2, 1))))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads["b"], np.zeros(3))

    def test_backward_requires_scalar(self):
        tape = Tape()
        a = tape.leaf(rnd(23, 2, 2), "a")
        with pytest.raises(ValueError):
            tape.backward(tape.square(a))

    def test_check_finite_names_the_node(self):
        """A non-finite loss names the first non-finite node: a NaN in a
        later parameter is named by its leaf, not by an op downstream."""
        cfg = TrainConfig(model=TINY, bits=4, m_tasks=2, n_context=3, batch_size=2, seed=5)
        params = init_params(TINY, RngStream(26))
        name = list(params)[-1]
        params[name][0] = np.nan
        nid = len(params) - 1  # the leaves come first, in params order
        ts = PretrainTaskSet.sample(cfg.tasks, cfg.m_tasks, RngStream(27))
        batch = sample_train_batch(ts, cfg, C2, RngStream(28))
        named = rf"in Node\({nid}:leaf/{re.escape(name)}, shape="
        with pytest.raises(GraphNumericsError, match=named):
            gradient(params, cfg, batch, C2)

    def test_topological_order_by_construction(self):
        tape = Tape()
        a = tape.leaf(rnd(24, 2, 2), "a")
        b = tape.square(a)
        c = tape.add(a, b)
        ids = [n.nid for n in tape.nodes]
        assert ids == sorted(ids)
        for node in tape.nodes:
            assert all(p.nid < node.nid for p in node.parents)

    def test_fanout_accumulates(self):
        # f = sum(a*a) + sum(a) -> df/da = 2a + 1
        tape = Tape()
        a = tape.leaf(rnd(25, 3), "a")
        loss = tape.add(tape.sum_all(tape.square(a)), tape.sum_all(a))
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads["a"], 2 * a.value + 1.0, atol=1e-12)
