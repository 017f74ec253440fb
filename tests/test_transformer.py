from dataclasses import fields, replace

import numpy as np
import pytest

from icleq import transformer
from icleq.channel import (
    ContextSet,
    Quantizer,
    Task,
    qam4_constellation,
    sample_pairs,
)
from icleq.estimators import input_posterior, mmse_known_task
from icleq.rng import RngStream
from icleq.transformer import (
    MASK_NEG,
    ModelConfig,
    build_tokens,
    causal_mask,
    forward_batch,
    forward_graph,
    init_params,
)

C2 = qam4_constellation(2)
TINY = ModelConfig(n_layers=1, n_heads=2, d_e=8, d_f=16, d_s=4, n_max=8, n_classes=16)
SMALL = ModelConfig(n_layers=2, n_heads=4, d_e=16, d_f=32, d_s=4, n_max=20, n_classes=16)


def make_context(seed, n, bits=4, sigma2=0.1):
    t = Task(h=RngStream(seed).complex_normal((2, 2)), sigma2=sigma2)
    ctx = ContextSet(*sample_pairs(t.h, t.sigma2, Quantizer(bits=bits), C2, n, RngStream(seed, 1)))
    return t, ctx


def shared_tokens(config, context, ys):
    """One sequence for the S observations ``ys`` after the pilots of ``context``."""
    return build_tokens(config, context.xs[None], np.concatenate([context.ys, ys])[None], len(ys))


def tokens(config, context, y):
    """Token batch of one sequence: the pilot pairs of ``context``, then ``y``."""
    return shared_tokens(config, context, np.asarray(y, dtype=complex)[None])


def run_model(params, config, context, y):
    """Class probabilities (N+1, n_classes) and soft estimates (N+1, n_t),
    one row per received-signal position; the last row is the output for y."""
    probs, est = forward_batch(params, config, C2, tokens(config, context, y))
    return probs[:, 0, :].T, est[0]


def token_column(v, d_s=4):
    """The token column of one observation vector."""
    v = np.asarray(v, dtype=complex)
    return build_tokens(replace(TINY, d_s=d_s), np.zeros((1, 1, 1)), v[None, None, :])[:, 0, 0]


def hidden_states(params, config, tok):
    """Hidden sequence (d_e, B, T) entering the last layer's column
    selection: the embedded sequence of a one-layer model, or the output
    of the last layer but one (the input of the last ``_layer`` call)."""
    inputs = []
    layer = transformer._layer

    def spy(p, config, l, e, *args):
        inputs.append(e)
        return layer(p, config, l, e, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transformer, "_layer", spy)
        forward_graph(params, config, tok, C2)
    return inputs[-1]


def first_layer(e, params, config):
    """Layer 0 applied to a hidden sequence e (d_e, T): the input of the
    last layer of a two-layer model whose embedding is the identity and
    whose positional vectors are zero (its layer 1 repeats layer 0)."""
    two_layers = replace(config, n_layers=2, d_s=config.d_e)
    p = dict(params, embed=np.eye(config.d_e), pos=np.zeros_like(params["pos"]))
    p.update({k.replace("l0.", "l1."): v for k, v in params.items() if k.startswith("l0.")})
    return hidden_states(p, two_layers, e[:, None, :])[:, 0, :]


class TestModelConfig:
    """There is one model variant: at least one layer, causal attention,
    learned positions."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"n_layers": 0}, "n_layers must be >= 1, got 0"),
        ],
        ids=["0-layers"],
    )
    def test_other_variants_rejected(self, edit, message):
        with pytest.raises(ValueError, match=message):
            replace(TINY, **edit)

    def test_causal_and_positional_are_constants(self):
        """Causal attention and learned positions are class constants, not
        fields a caller can set."""
        assert ModelConfig.use_causal_mask is True and ModelConfig.use_positional is True
        assert not {"use_causal_mask", "use_positional"} & {f.name for f in fields(ModelConfig)}
        with pytest.raises(TypeError, match="use_causal_mask"):
            ModelConfig(use_causal_mask=False)


class TestRealify:
    """Token columns are [Re; Im] zero-padded to d_s."""

    def test_definition(self):
        np.testing.assert_array_equal(token_column(np.array([1 + 2j])), [1, 2, 0, 0])

    def test_zero(self):
        np.testing.assert_array_equal(token_column(np.zeros(2, complex)), np.zeros(4))

    def test_no_padding_when_equal(self):
        v = np.array([1 + 2j, 3 - 4j])
        np.testing.assert_array_equal(token_column(v), [1, 3, 2, -4])

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            token_column(np.ones(3, complex))


class TestEmbed:
    """The embedded sequence, read as the input of a one-layer model's layer."""

    def test_empty_context_single_token(self):
        params = init_params(TINY, RngStream(1))
        y = RngStream(2).complex_normal(2)
        empty = ContextSet(xs=np.zeros((0, 2)), ys=np.zeros((0, 2)))
        e = hidden_states(params, TINY, tokens(TINY, empty, y))
        assert e.shape == (TINY.d_e, 1, 1)
        want = params["embed"] @ token_column(y) + params["pos"][:, 0]
        np.testing.assert_allclose(e[:, 0, 0], want, atol=1e-12)

    def test_twenty_pairs_make_41_tokens(self):
        cfg = replace(SMALL, n_layers=1)
        params = init_params(cfg, RngStream(3))
        _, ctx = make_context(4, 20)
        y = RngStream(5).complex_normal(2)
        e = hidden_states(params, cfg, tokens(cfg, ctx, y))
        assert e.shape == (SMALL.d_e, 1, 41)

    def test_zero_embedding_without_positional(self):
        params = init_params(TINY, RngStream(6))
        params["embed"] = np.zeros_like(params["embed"])
        params["pos"] = np.zeros_like(params["pos"])
        _, ctx = make_context(7, 3)
        y = RngStream(8).complex_normal(2)
        np.testing.assert_array_equal(
            hidden_states(params, TINY, tokens(TINY, ctx, y)), np.zeros((8, 1, 7))
        )

    def test_context_too_long_rejected(self):
        _, ctx = make_context(10, TINY.n_max + 1)
        with pytest.raises(ValueError, match="n_max"):
            tokens(TINY, ctx, ctx.ys[0])

    def test_interleaving_order(self):
        _, ctx = make_context(11, 2)
        y = RngStream(12).complex_normal(2)
        tok = tokens(SMALL, ctx, y)[:, 0, :]
        np.testing.assert_allclose(tok[:, 0], token_column(ctx.ys[0]))
        np.testing.assert_allclose(tok[:, 1], token_column(ctx.xs[0]))
        np.testing.assert_allclose(tok[:, 2], token_column(ctx.ys[1]))
        np.testing.assert_allclose(tok[:, 3], token_column(ctx.xs[1]))
        np.testing.assert_allclose(tok[:, 4], token_column(y))


class TestAttentionLayer:
    def test_single_token_routes_values_through_output(self):
        """With one token the softmax is degenerate, so the attention branch
        equals W_O^T applied to the stacked per-head value projections."""
        cfg = TINY
        params = init_params(cfg, RngStream(13))
        params["l0.w1"] = np.zeros_like(params["l0.w1"])  # silence the FFN branch
        e = RngStream(14).normal((cfg.d_e, 1))
        out = first_layer(e, params, cfg)
        stacked = (params["l0.wv"].reshape(-1, cfg.d_e) @ e[:, 0]).reshape(-1)
        a = params["l0.wo"].T @ stacked
        np.testing.assert_allclose(out[:, 0], a + e[:, 0], atol=1e-12)

    def test_causal_mask_blocks_future(self):
        cfg = SMALL
        params = init_params(cfg, RngStream(15))
        e = RngStream(16).normal((cfg.d_e, 9))
        base = first_layer(e, params, cfg)
        e2 = e.copy()
        e2[:, 5:] += RngStream(17).normal((cfg.d_e, 4))
        pert = first_layer(e2, params, cfg)
        np.testing.assert_allclose(pert[:, :5], base[:, :5], atol=1e-12)
        assert not np.allclose(pert[:, 5:], base[:, 5:])


class TestForward:
    def test_shape_audit_all_context_lengths(self):
        params = init_params(TINY, RngStream(20))
        for n in range(TINY.n_max + 1):
            _, ctx = make_context(21 + n, n)
            y = RngStream(22, n).complex_normal(2)
            probs, est = run_model(params, TINY, ctx, y)
            assert probs.shape == (n + 1, 16)
            assert est.shape == (n + 1, 2)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_estimates_stay_in_convex_hull(self):
        params = init_params(SMALL, RngStream(23))
        _, ctx = make_context(24, 10)
        y = RngStream(25).complex_normal(2)
        _, est = run_model(params, SMALL, ctx, y)
        m = np.abs(C2.joint.real).max()
        assert np.all(np.abs(est.real) <= m + 1e-12)
        assert np.all(np.abs(est.imag) <= m + 1e-12)

    def test_fresh_init_is_nearly_symmetric(self):
        """Mean soft estimate over random inputs stays near zero at init."""
        params = init_params(SMALL, RngStream(26))
        rng = RngStream(27)
        ys = np.array([rng.derive(i).complex_normal(2) for i in range(1000)])[:, None, :]
        tok = build_tokens(SMALL, np.zeros((1000, 1, 2)), ys)
        _, est = forward_batch(params, SMALL, C2, tok)
        mean = np.mean(est[:, -1], axis=0)
        assert np.linalg.norm(mean) <= 0.1

    def test_causality_position_by_position(self):
        params = init_params(SMALL, RngStream(28))
        n = 6
        _, ctx = make_context(29, n)
        y = RngStream(30).complex_normal(2)
        base_probs, _ = run_model(params, SMALL, ctx, y)
        rng = RngStream(31)
        for i in range(n):
            # perturb everything after pair i; positions 0..i must not move
            xs = ctx.xs.copy()
            ys = ctx.ys.copy()
            xs[i:] = C2.joint[np.asarray(rng.derive(i).integers(0, 16, size=n - i))]
            ys[i:] += rng.derive(i, 1).complex_normal((n - i, 2))
            probs, _ = run_model(params, SMALL, ContextSet(xs=xs, ys=ys), y)
            np.testing.assert_allclose(probs[:i], base_probs[:i], atol=1e-12)

    def test_bit_identical_determinism(self):
        params = init_params(SMALL, RngStream(36))
        _, ctx = make_context(37, 5)
        y = RngStream(38).complex_normal(2)
        p1, e1 = run_model(params, SMALL, ctx, y)
        p2, e2 = run_model(params, SMALL, ctx, y)
        assert np.array_equal(p1, p2) and np.array_equal(e1, e2)


class TestSharedPrefix:
    """One sequence per task: the pilots at positions 0..2N-1, then every
    query observation at position 2N."""

    @pytest.mark.parametrize("t", [1, 2, 9, 41])
    def test_default_positions_give_the_causal_mask_bit_for_bit(self, t):
        want = np.triu(np.full((t, t), MASK_NEG), k=1)
        assert causal_mask(np.arange(t)).tobytes() == want.tobytes()

    def test_layout_and_visibility(self):
        _, ctx = make_context(41, 2)
        ys = RngStream(42).complex_normal((3, 2))
        tok = shared_tokens(SMALL, ctx, ys)
        assert tok.shape == (4, 1, 7)
        np.testing.assert_array_equal(tok[:, 0, :4], tokens(SMALL, ctx, ys[0])[:, 0, :4])
        for j in range(3):
            np.testing.assert_array_equal(tok[:, 0, 4 + j], token_column(ys[j]))
        visible = causal_mask(np.array([0, 1, 2, 3, 4, 4, 4])) == 0
        np.testing.assert_array_equal(visible[:4, :4], np.tril(np.ones((4, 4), bool)))
        assert not visible[:4, 4:].any()  # no pilot sees a query
        # nor one query another
        np.testing.assert_array_equal(visible[4:, 4:], np.eye(3, dtype=bool))
        assert visible[4:, :4].all()

    @pytest.mark.parametrize(
        "config, n, s, bits",
        [
            (TINY, 5, 4, 4),
            (SMALL, 5, 4, 4),
            (replace(SMALL, n_layers=3), 5, 4, None),
            (SMALL, 0, 4, 4),
            (SMALL, 20, 1, 4),
            (SMALL, 20, 64, None),
        ],
        ids=["1-layer", "2-layers", "3-layers-unquantized", "empty-context", "one-query",
             "headline-unquantized"],
    )
    def test_matches_one_sequence_per_query(self, config, n, s, bits):
        params = init_params(config, RngStream(43), scale=0.3)
        t, ctx = make_context(44, n, bits=bits)
        q = Quantizer(bits=bits)
        _, ys = sample_pairs(t.h, t.sigma2, q, C2, s, RngStream(45))
        _, est = forward_batch(params, config, C2, shared_tokens(config, ctx, ys), s)
        assert est.shape == (1, n + s, 2)
        # the pilots' read-out columns are those of the plain sequence
        plain = run_model(params, config, ctx, ys[0])[1]
        np.testing.assert_allclose(est[0, :n], plain[:n], rtol=0, atol=1e-12)
        want = np.array([run_model(params, config, ctx, y)[1][-1] for y in ys])
        np.testing.assert_allclose(est[0, n:], want, rtol=0, atol=1e-12)

    def test_checks_of_build_tokens_apply(self):
        _, ctx = make_context(46, TINY.n_max + 1)
        with pytest.raises(ValueError, match="n_max"):
            shared_tokens(TINY, ctx, ctx.ys[:2])
        with pytest.raises(ValueError, match="d_s"):
            shared_tokens(replace(TINY, d_s=2), ContextSet(ctx.xs[:2], ctx.ys[:2]), ctx.ys[:2])

    @pytest.mark.parametrize("xs_shape", [(3, 20, 2), (2, 19, 2)], ids=["batch", "too-few-slots"])
    def test_build_tokens_rejects_xs_that_do_not_fit_ys(self, xs_shape):
        """Pilot inputs of another batch size, or fewer than N of them, are
        named with both shapes, not left to numpy's broadcast."""
        named = rf"xs of shape \({', '.join(map(str, xs_shape))}\) .* ys of shape \(2, 21, 2\)"
        with pytest.raises(ValueError, match=named):
            build_tokens(ModelConfig(), np.zeros(xs_shape), np.zeros((2, 21, 2)))

    @pytest.mark.parametrize(
        "t, n_queries, message",
        [
            (11, 1, "10 pilot columns exceed 2[*]n_max=8"),
            (12, 2, "10 pilot columns exceed 2[*]n_max=8"),
            (9, 0, "n_queries must be in 1..9, got 0"),
            (9, 10, "n_queries must be in 1..9, got 10"),
        ],
        ids=["too-long", "too-long-shared", "no-query", "more-queries-than-columns"],
    )
    def test_forward_rejects_tokens_the_model_cannot_place(self, t, n_queries, message):
        config = replace(TINY, n_max=4)
        params = init_params(config, RngStream(47))
        with pytest.raises(ValueError, match=message):
            forward_batch(params, config, C2, np.zeros((config.d_s, 2, t)), n_queries)


class TestSoftEstimate:
    """The soft estimate is the probability-weighted constellation average."""

    def test_one_hot_recovers_constellation_point(self):
        probs = np.zeros(16)
        probs[9] = 1.0
        np.testing.assert_array_equal(probs @ C2.joint, C2.joint[9])

    def test_uniform_gives_zero(self):
        np.testing.assert_allclose(np.full(16, 1 / 16) @ C2.joint, np.zeros(2), atol=1e-15)

    def test_exact_posterior_reproduces_mmse(self):
        t, _ = make_context(39, 0)
        y = RngStream(40).complex_normal(2)
        probs = input_posterior(t, Quantizer(bits=None), C2, y)
        a = probs @ C2.joint
        b = mmse_known_task(t, Quantizer(bits=None), C2, y)
        np.testing.assert_allclose(a, b, atol=1e-12)
