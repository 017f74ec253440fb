"""The transformer's kernels and layers: each kernel's and layer's VJP
against finite differences, the GELU and the fused attention split over
rows, what a training step keeps in memory, and the pinned training steps
and forwards that the layer lanes reproduce at any core count."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from icleq import numerics, transformer
from icleq.channel import qam4_constellation
from icleq.experiments import ExperimentConfig
from icleq.rng import RngStream
from icleq.training import (
    GraphNumericsError,
    PretrainTaskSet,
    TrainConfig,
    gradient,
    sample_train_batch,
)
from icleq.transformer import (
    ModelConfig,
    _layer,
    build_tokens,
    causal_mask,
    forward_batch,
    forward_graph,
    init_params,
)

C2 = qam4_constellation(2)
TINY = ModelConfig(n_layers=1, n_heads=2, d_e=8, d_f=16, d_s=4, n_max=4, n_classes=16)


def rnd(seed, *shape):
    return RngStream(seed).normal(size=shape)


def causal(t):
    return np.triu(np.full((t, t), -1e9), k=1)


def kernel_fd_check(run, params, h=1e-6, rtol=1e-6, atol=1e-9):
    """Every-coordinate central finite-difference check of a kernel's VJP
    for the loss sum(out**2).

    ``run(params)`` returns the kernel's output and a function of the
    output cotangent that returns ``{name: gradient}``.
    """
    out, vjp = run(params)
    grads = vjp(2.0 * out)
    for name, p in params.items():
        for ix in range(p.size):
            plus = {k: v.copy() for k, v in params.items()}
            plus[name].flat[ix] += h
            minus = {k: v.copy() for k, v in params.items()}
            minus[name].flat[ix] -= h
            fd = (np.sum(run(plus)[0] ** 2) - np.sum(run(minus)[0] ** 2)) / (2 * h)
            an = grads[name].flat[ix]
            assert abs(an - fd) <= max(atol, rtol * max(abs(an), abs(fd))), (
                f"{name}[{ix}]: analytic {an} vs fd {fd}"
            )


def gelu_kernel(ps):
    x = ps["a"]
    out, phi = transformer._gelu(x)
    return out, lambda g: {"a": transformer._gelu_vjp(g, x, phi)}


def layer_norm_kernel(ps):
    """Layer norm over axis 0 of a (d, B, T) input with 1-D gain and bias."""
    gain, bias = ps["g"].reshape(-1, 1, 1), ps["b"].reshape(-1, 1, 1)
    out, xhat, inv = transformer._layer_norm(ps["a"], gain, bias)

    def vjp(g):
        dx, gxhat = transformer._layer_norm_vjp(g, xhat, inv, gain)
        return {"a": dx, "g": gxhat.sum(axis=(1, 2)), "b": g.sum(axis=(1, 2))}

    return out, vjp


def attention_kernel(mask, scale=0.7):
    def run(ps):
        q, k, v = ps["q"], ps["k"], ps["v"]
        p, out = transformer._attention(q, k, v, scale, mask)

        def vjp(g):
            dq, dk, dv = transformer._attention_vjp(g, p, q, k, v, scale)
            return {"q": dq, "k": dk, "v": dv}

        return out, vjp

    return run


def layer_params(seed):
    """Layer-0 parameters of TINY with a non-trivial layer-norm affine."""
    params = {k: v for k, v in init_params(TINY, RngStream(seed), scale=0.5).items() if k[:3] == "l0."}
    params["l0.ln_g"] = 1 + 0.1 * rnd(seed + 1, TINY.d_e)
    params["l0.ln_b"] = 0.1 * rnd(seed + 2, TINY.d_e)
    return params


def layer_kernel(rows, t=6):
    """The layer of TINY on the input "e" (d_e, B, t), queries at ``rows``
    (every column when None), as a kernel of its input and parameters."""

    def run(ps):
        out, vjp = _layer(ps, TINY, 0, ps["e"], causal_mask(np.arange(t)), rows)

        def grads(g):
            de, gw = vjp(g)
            return {"e": de, **gw}

        return out, grads

    return run


class TestOpGradients:
    def test_gelu(self):
        """The GELU kernel and its VJP."""
        kernel_fd_check(gelu_kernel, {"a": rnd(11, 3, 5)}, h=1e-6)

    def test_layer_norm(self):
        """The layer-norm kernel's VJP, and the gain and bias sums of its
        output over tokens."""
        params = {"a": rnd(12, 5, 2, 3), "g": 1 + 0.1 * rnd(13, 5), "b": 0.1 * rnd(14, 5)}
        kernel_fd_check(layer_norm_kernel, params, h=1e-6, rtol=1e-5)

    def test_attention_with_mask(self):
        params = {"q": rnd(15, 2, 4, 3), "k": rnd(151, 2, 4, 3), "v": rnd(152, 2, 4, 3)}
        kernel_fd_check(attention_kernel(causal(4)), params)

    def test_attention_without_mask(self):
        """A zero mask: every query sees every key."""
        params = {"q": rnd(153, 2, 4, 3), "k": rnd(154, 2, 4, 3), "v": rnd(155, 2, 4, 3)}
        kernel_fd_check(attention_kernel(np.zeros((4, 4))), params)

    def test_attention_fewer_queries_than_keys(self):
        """The query rows 1 and 3 of a causal mask over 5 keys, as the last
        layer uses at the received-signal columns."""
        rows = np.array([1, 3])
        params = {"q": rnd(156, 2, 2, 3), "k": rnd(157, 2, 5, 3), "v": rnd(158, 2, 5, 3)}
        kernel_fd_check(attention_kernel(causal(5)[rows]), params)

    def test_layer_at_selected_columns(self):
        """The layer with queries at every column, at a strided selection, a
        leading slice, and two runs of different strides (the shared-prefix
        read-out columns)."""
        params = {**layer_params(184), "e": rnd(185, TINY.d_e, 2, 6)}
        for rows in (None, [0, 2, 4], [0, 1], [0, 2, 4, 5]):
            kernel_fd_check(layer_kernel(None if rows is None else np.array(rows)), params, rtol=1e-5)

    def test_model_with_three_queries(self):
        """The model's VJP, every parameter included, with three queries:
        all three sit at position 2N, so their positional gradients add up."""
        tokens = rnd(209, TINY.d_s, 2, 9)

        def run(ps):
            _, est, vjp = forward_graph(ps, TINY, tokens, C2, 3)
            return est, vjp

        kernel_fd_check(run, init_params(TINY, RngStream(210), scale=0.5), rtol=1e-5)

    def test_layer_rejects_repeated_columns(self):
        """A repeated column would take the gradient of only one of its copies."""
        params = {**layer_params(186), "e": rnd(187, 8, 1, 6)}
        with pytest.raises(ValueError, match=r"strictly increasing, got \[0, 2, 0\]"):
            layer_kernel(np.array([0, 2, 0]))(params)


def gelu_reference(x, g):
    """Unsplit GELU and its VJP for the output cotangent g."""
    phi = ndtr(x)
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * phi, g * (phi + x * pdf)


class TestGeluSplit:
    """The GELU kernel and its VJP split over row blocks are bit-identical
    to one unsplit call, for any number of blocks."""

    @pytest.mark.parametrize("cores", [1, 2, 5])
    @pytest.mark.parametrize("shape", [(0, 5), (1, 7), (3,), (257, 33)])
    def test_bit_identical_to_unsplit(self, monkeypatch, cores, shape):
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        x = 3.0 * RngStream(182).normal(size=shape)
        out, phi, dx = np.empty_like(x), np.empty_like(x), np.empty_like(x)

        def forward(i, j):
            out[i:j], phi[i:j] = transformer._gelu(x[i:j])

        numerics._lanes(forward, len(x))
        g = 2.0 * out

        def backward(i, j):
            dx[i:j] = transformer._gelu_vjp(g[i:j], x[i:j], phi[i:j])

        numerics._lanes(backward, len(x))
        want_out, want_grad = gelu_reference(x, g)
        assert np.array_equal(out, want_out)
        assert np.array_equal(dx, want_grad)

    def test_concurrent_callers(self):
        """Callers on several threads share the worker pool; each gets its
        own exact result."""
        xs = [RngStream(183, i).normal(size=(64, 40)) for i in range(6)]
        want = [gelu_reference(x, np.ones_like(x))[0] for x in xs]
        bad = []

        def call(i):
            for _ in range(20):
                x = xs[i]
                out = np.empty_like(x)

                def lane(lo, hi):
                    out[lo:hi] = transformer._gelu(x[lo:hi])[0]

                numerics._lanes(lane, len(x))
                if not np.array_equal(out, want[i]):
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


def split_attention(q, k, v, scale, mask):
    """The attention kernel and its VJP for the output cotangent 2 * out,
    each split over the batch axis by ``numerics._lanes``."""
    lead = q.shape[:-1]
    p, out = np.empty(lead + k.shape[-2:-1]), np.empty(lead + v.shape[-1:])

    def forward(i, j):
        p[i:j], out[i:j] = transformer._attention(q[i:j], k[i:j], v[i:j], scale, mask)

    numerics._lanes(forward, len(q))
    g = 2.0 * out
    dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)

    def backward(i, j):
        r = slice(i, j)
        dq[r], dk[r], dv[r] = transformer._attention_vjp(g[r], p[r], q[r], k[r], v[r], scale)

    numerics._lanes(backward, len(q))
    return out, dq, dk, dv


class TestAttentionSplit:
    """The fused attention kernels split over the batch axis are
    bit-identical to the unsplit formulas, for all queries and for the
    pruned last layer."""

    @pytest.mark.parametrize("cores", [1, 2, 5])
    @pytest.mark.parametrize("rows", [None, [0, 2, 4, 6, 8]])
    def test_bit_identical_to_unsplit(self, monkeypatch, cores, rows):
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        mask = causal(9) if rows is None else causal(9)[rows]
        tq = mask.shape[0]
        q, k, v = rnd(198, 7, 3, tq, 4), rnd(199, 7, 3, 9, 4), rnd(200, 7, 3, 9, 5)
        got = split_attention(q, k, v, 0.5, mask)
        want = attention_reference(q, k, v, 0.5, mask, 2.0 * got[0])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("cores", [1, 2, 5])
    def test_masked_keys_exactly_zero(self, monkeypatch, cores):
        """With identity values the output is the probabilities: a masked
        key gets exactly 0 in every block of the split."""
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        mask = causal(9)[[1, 4, 8]]
        q, k = rnd(201, 7, 2, 3, 4), rnd(202, 7, 2, 9, 4)
        p = split_attention(q, k, np.tile(np.eye(9), (7, 2, 1, 1)), 1.0, mask)[0]
        assert np.all(p[..., mask < 0] == 0.0)
        assert np.all(p[..., mask == 0] > 0.0)


class TestModelGuarantees:
    """What the model's arrays guarantee beyond their derivatives."""

    def test_masked_attention_zeros_are_exact(self):
        """With identity values the output rows are the attention
        probabilities: masked keys get exactly 0 and every row sums to 1."""
        ps = {"q": rnd(19, 2, 4, 3), "k": rnd(191, 2, 4, 3), "v": np.tile(np.eye(4), (2, 1, 1))}
        p = attention_kernel(causal(4), scale=1.0)(ps)[0]
        assert np.all(p[..., 0, 1:] == 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_check_finite_names_the_parameter(self):
        """A non-finite loss names the first non-finite parameter by name;
        with every parameter finite it names the forward pass."""
        cfg = TrainConfig(model=TINY, bits=4, m_tasks=2, n_context=3, batch_size=2, seed=5)
        params = init_params(TINY, RngStream(26))
        ts = PretrainTaskSet.sample(cfg.tasks, cfg.m_tasks, RngStream(27))
        batch = sample_train_batch(ts, cfg, C2, RngStream(28))
        bad = dict(params)
        for name in list(params)[-2:]:
            bad[name] = params[name].copy()
            bad[name].flat[0] = np.nan
        named = rf"non-finite value in parameter {re.escape(list(params)[-2])}$"
        with pytest.raises(GraphNumericsError, match=named):
            gradient(bad, cfg, batch, C2)
        batch.tokens[0, 0, 0] = np.nan
        with pytest.raises(GraphNumericsError, match=r"in the forward pass \(every parameter is finite\)"):
            gradient(params, cfg, batch, C2)


def step_setup(d_e, batch_size=64, seed=190):
    """Parameters, config and batch of a training step at the default
    sizes with embedding width ``d_e`` (64 default, 32 the desk preset)."""
    cfg = replace(ExperimentConfig(d_e=d_e).train_config(seed=seed), batch_size=batch_size)
    ts = PretrainTaskSet.sample(cfg.tasks, 64, RngStream(seed, 1))
    params = init_params(cfg.model, RngStream(seed, 2), scale=cfg.init_scale)
    return params, cfg, sample_train_batch(ts, cfg, C2, RngStream(seed, 3))


def traced_peak(call):
    """The peak of tracemalloc's traced memory above its level at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestVjpRunsOnce:
    """A VJP frees what it used, so a second call fails loudly."""

    def test_forward_graph(self):
        model = replace(TINY, n_layers=2)
        params = init_params(model, RngStream(203), scale=0.5)
        _, est, vjp = forward_graph(params, model, rnd(204, model.d_s, 3, 9), C2)
        assert list(vjp(np.ones_like(est))) == list(params)
        with pytest.raises(RuntimeError, match="forward_graph's VJP already ran"):
            vjp(np.ones_like(est))

    @pytest.mark.parametrize("rows", [None, [0, 2, 4]])
    def test_layer(self, rows):
        out, vjp = layer_kernel(None if rows is None else np.array(rows))(
            {**layer_params(205), "e": rnd(206, TINY.d_e, 2, 6)}
        )
        vjp(out)
        with pytest.raises(RuntimeError, match="layer 0's VJP already ran"):
            vjp(out)


class TestVjpMemory:
    """A step keeps its peak of live memory, and frees each layer's state
    once its VJP has run."""

    def test_step_traced_peak(self, monkeypatch):
        """A default step's traced peak, ~68 MB, is at most 75 MB."""
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        setup = step_setup(64)
        assert traced_peak(lambda: gradient(*setup, C2)) <= 75e6

    def test_top_layer_freed_before_layer_zero_backward(self, monkeypatch):
        """The arrays the top layer saved for its VJP are gone when layer
        0's VJP starts."""
        model = replace(TINY, n_layers=2)
        refs, alive = {}, {}
        layer = transformer._layer

        def spy(p, config, l, e, mask, rows=None):
            out, vjp = layer(p, config, l, e, mask, rows)
            cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
            # every lane's state, and the full arrays the weight gradients read
            saved = [a for lane in cells["state"].cell_contents.values() for a in lane]
            saved += [cells[name].cell_contents for name in ("hid", "heads", "ln")]
            refs[l] = [weakref.ref(a) for a in saved]

            def traced(g):
                alive[l] = {m: sum(r() is not None for r in refs[m]) for m in refs}
                return vjp(g)

            return out, traced

        monkeypatch.setattr(transformer, "_layer", spy)
        params = init_params(model, RngStream(207), scale=0.5)
        _, est, vjp = forward_graph(params, model, rnd(208, model.d_s, 3, 9), C2)
        vjp(np.ones_like(est))
        assert alive == {1: {0: 11, 1: 11}, 0: {0: 11, 1: 0}}


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


# (d_e, batch size) -> (loss, step_digest) of ``step_setup(d_e, batch size)``
# and (d_e, queries) -> forward_digest of ``icl_forward(d_e, queries)``,
# taken at one BLAS thread from the op-by-op tape that preceded the fused
# layer op, where every matmul, the attention, layer norm, GELU, transpose
# and column selection were nodes of their own.  Batches of 7 and 9 and the
# default model's 64-query forward read otherwise at OpenBLAS's default
# thread count, on that tape as on the layer lanes.
PINNED_STEPS = {
    (64, 1): (0.9408581710754967, "8fdcd718cbef311e"),
    (64, 7): (1.0298986387516125, "52e986f1f42f1215"),
    (64, 9): (1.045362506063217, "e684cf8a17377c25"),
    (64, 64): (1.056641665088742, "3cf5089ec42b5058"),
    (32, 1): (1.0003001855764007, "d1b7795a4991d759"),
    (32, 7): (1.0031920746303278, "f1799a4f5bbea68a"),
    (32, 9): (1.0132919478899354, "17973bca36e1ab11"),
    (32, 64): (1.0117139277660516, "389056c636f1b32c"),
}
PINNED_FORWARDS = {
    (64, 1): "5fa2f8f16786d258",
    (64, 64): "de0d15fb07bbaa91",
    (32, 1): "b9e44ab1026f45d0",
    (32, 64): "89eaf2e4edf1c792",
}


def step_digest(loss, grads):
    """Digest of a loss and every gradient, by name."""
    h = hashlib.sha256(np.float64(loss).tobytes())
    for name in sorted(grads):
        h.update(name.encode())
        h.update(np.ascontiguousarray(grads[name]).tobytes())
    return h.hexdigest()[:16]


def icl_forward(d_e, n_queries):
    """Class probabilities and soft estimates of one sequence of N = 20
    pilots and ``n_queries`` queries, at the default sizes with embedding
    width ``d_e``."""
    cfg = ExperimentConfig(d_e=d_e)
    model = cfg.model_config()
    params = init_params(model, RngStream(194), scale=0.1)
    tokens = rnd(195, model.d_s, 1, 2 * cfg.n_context + n_queries)
    return forward_batch(params, model, C2, tokens, n_queries)


def forward_digest(probs, est):
    h = hashlib.sha256(probs.tobytes())
    h.update(np.ascontiguousarray(est).tobytes())
    return h.hexdigest()[:16]


def pinned_digests():
    """Every pinned step and forward at 1, 2, 3 and 5 cores, by name."""
    out = {}
    for cores in (1, 2, 3, 5):
        numerics._N_CORES = cores
        for d_e, batch in PINNED_STEPS:
            loss, grads = gradient(*step_setup(d_e, batch), C2)
            out[f"step {d_e} {batch} {cores}"] = [loss, step_digest(loss, grads)]
        for d_e, queries in PINNED_FORWARDS:
            out[f"forward {d_e} {queries} {cores}"] = forward_digest(*icl_forward(d_e, queries))
    return out


class TestLayerLanes:
    """A training step's layers run one lane per core over blocks of batch
    rows; its loss and gradients are the same at any core count."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    @pytest.mark.parametrize("d_e", [64, 32])
    def test_step_matches_pin(self, monkeypatch, pool, cores, d_e):
        """The default and the desk step, at any BLAS thread count; 64
        rows make lanes of 8 to 32 rows."""
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        loss, grads = gradient(*step_setup(d_e), C2)
        assert (loss, step_digest(loss, grads)) == PINNED_STEPS[d_e, 64]
        assert (pool.submits > 0) == (cores > 1)

    @pytest.mark.parametrize("cores", [2, 3, 5])
    @pytest.mark.parametrize("batch", [1, 7, 9])
    @pytest.mark.parametrize("d_e", [64, 32])
    def test_lane_edges_bit_identical(self, monkeypatch, pool, d_e, batch, cores):
        """Batches of fewer than two 8-row units run as one inline lane."""
        setup = step_setup(d_e, batch)
        monkeypatch.setattr(numerics, "_N_CORES", 1)
        want = step_digest(*gradient(*setup, C2))
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        assert step_digest(*gradient(*setup, C2)) == want

    def test_one_blas_thread_matches_every_pin(self):
        """Every pinned step, batches of 1, 7, 9 and 64, and every pinned
        one-sequence ICL forward, at 1, 2, 3 and 5 cores, in a process
        started with one BLAS thread (OpenBLAS reads the count when it
        loads)."""
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_layers; print(json.dumps(test_layers.pinned_digests()))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        got = json.loads(run.stdout.strip().splitlines()[-1])
        for cores in (1, 2, 3, 5):
            for (d_e, batch), pin in PINNED_STEPS.items():
                assert tuple(got[f"step {d_e} {batch} {cores}"]) == pin, (d_e, batch, cores)
            for (d_e, queries), pin in PINNED_FORWARDS.items():
                assert got[f"forward {d_e} {queries} {cores}"] == pin, (d_e, queries, cores)

    @pytest.mark.parametrize("d_e", [64, 32])
    def test_three_submits_per_layer(self, monkeypatch, pool, d_e):
        """On two cores a layer's gradient syncs the cores three times: the
        forward lanes, the backward lanes and the weight gradients."""
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        params, cfg, batch = step_setup(d_e)
        gradient(params, cfg, batch, C2)
        assert pool.submits == 3 * cfg.model.n_layers

    def test_one_sequence_forward_stays_inline(self, monkeypatch, pool):
        """A one-sequence ICL forward (B = 1) is a single inline lane."""
        monkeypatch.setattr(numerics, "_N_CORES", 5)
        icl_forward(64, 64)
        assert pool.submits == 0
