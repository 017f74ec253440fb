import re
import sys
import threading

import numpy as np
import pytest

from icleq import channel, estimators, numerics
from icleq.channel import (
    ContextSet,
    Quantizer,
    Task,
    TaskDistributionSpec,
    log_likelihood,
    loglik_means,
    qam4_constellation,
    quantize,
    sample_pairs,
    sample_task,
)
from icleq.estimators import (
    MIN_CHANNEL_WEIGHT,
    DegenerateEvidenceError,
    _joint_input_posterior,
    bayes_mmse_continuous_mc,
    bayes_mmse_discrete,
    bayes_mmse_gaussian_exact,
    channel_log_posterior_weights,
    input_posterior,
    lmmse_known_task,
    mmse_known_task,
)
from icleq.numerics import logsumexp
from icleq.rng import RngStream

C2 = qam4_constellation(2)
SPEC22 = TaskDistributionSpec(2, 2, -10.0, -10.0)


def rand_task(seed, sigma2=0.1, n_r=2, n_t=2):
    h = RngStream(seed, 1000).complex_normal((n_r, n_t))
    return Task(h=h, sigma2=sigma2)


def pilots(t, q, c, n, rng):
    return ContextSet(*sample_pairs(t.h, t.sigma2, q, c, n, rng))


def empty_context(n_t, n_r):
    return ContextSet(xs=np.zeros((0, n_t)), ys=np.zeros((0, n_r)))


def log_evidence(h, sigma2, q, y):
    """log p(y | h) under the uniform input prior, up to the constant -log |X|."""
    t = Task(h=h, sigma2=sigma2)
    return logsumexp([log_likelihood(t, q, x, y) for x in C2.joint])


# every equalizer at either receiver; the conjugate oracle is unquantized only
KIND_BITS = [
    (kind, bits)
    for kind in ("mmse_known", "lmmse", "bayes_discrete", "bayes_mc", "bayes_exact")
    for bits in (4, None)
    if kind != "bayes_exact" or bits is None
]


def equalizer(kind, t, q, ctx):
    """The equalizer ``kind`` of task ``t`` as a function of the observations."""
    channels = RngStream(67).complex_normal((4, 2, 2))
    channels[0] = t.h
    return {
        "mmse_known": lambda y: mmse_known_task(t, q, C2, y),
        "lmmse": lambda y: lmmse_known_task(t, y),
        "bayes_discrete": lambda y: bayes_mmse_discrete(channels, t.sigma2, q, C2, ctx, y),
        "bayes_mc": lambda y: bayes_mmse_continuous_mc(
            t.sigma2, q, C2, ctx, y, 64, RngStream(68)
        )[0],
        "bayes_exact": lambda y: bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y),
        "input_posterior": lambda y: input_posterior(t, q, C2, y),
    }[kind]


class TestObservationShapes:
    """Every estimator takes one observation (n_r,) or a stack (n, n_r);
    row i of a stacked call equals the call on observation i."""

    @pytest.mark.parametrize("bits", [4, None])
    def test_stack_matches_rows(self, bits):
        q = Quantizer(bits=bits)
        t = rand_task(60)
        ctx = pilots(t, q, C2, 6, RngStream(61))
        _, ys = sample_pairs(t.h, t.sigma2, q, C2, 5, RngStream(62))
        estimators = {kind: equalizer(kind, t, q, ctx) for kind, b in KIND_BITS if b == bits}
        estimators["input_posterior"] = equalizer("input_posterior", t, q, ctx)
        for name, est in estimators.items():
            stacked = est(ys)
            rows = np.array([est(y) for y in ys])
            assert stacked.shape == rows.shape and rows.ndim == 2, name
            np.testing.assert_allclose(stacked, rows, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("kind, bits", KIND_BITS)
    def test_empty_stack(self, kind, bits):
        """An empty (0, n_r) stack gives an empty (0, n_t) estimate."""
        q = Quantizer(bits=bits)
        t = rand_task(65)
        ctx = pilots(t, q, C2, 6, RngStream(66))
        est = equalizer(kind, t, q, ctx)(np.zeros((0, 2), dtype=complex))
        assert est.shape == (0, 2) and est.dtype == complex


@pytest.mark.parametrize(
    "kind, bits, where",
    [
        (kind, bits, where)
        for kind, bits in KIND_BITS
        if kind != "lmmse"  # linear in y: no likelihood to reject NaN
        for where in ("pilot", "observation")
        if kind != "mmse_known" or where == "observation"  # it takes no pilots
    ],
)
def test_nan_observation_raises(kind, bits, where):
    """A NaN in a pilot's or a test observation's real or imaginary part
    raises ValueError at either receiver, instead of a NaN estimate or a
    numpy warning."""
    q = Quantizer(bits=bits)
    t = rand_task(69)
    ctx = pilots(t, q, C2, 6, RngStream(70))
    _, ys = sample_pairs(t.h, t.sigma2, q, C2, 3, RngStream(71))
    if where == "pilot":
        ys_ctx = ctx.ys.copy()
        ys_ctx[2, 1] = complex(ys_ctx[2, 1].real, np.nan)
        ctx = ContextSet(ctx.xs, ys_ctx)
    else:
        ys[1, 0] = complex(np.nan, ys[1, 0].imag)
    with pytest.raises(ValueError, match="NaN"):
        equalizer(kind, t, q, ctx)(ys)


@pytest.mark.parametrize(
    "kind, bits, shape",
    [
        ("mmse_known", 4, (3,)),
        ("mmse_known", None, (3,)),
        ("input_posterior", 4, (3,)),
        ("input_posterior", None, (3,)),
        ("lmmse", None, (1,)),
        ("bayes_exact", None, (1,)),
        ("bayes_mc", 4, ()),
        ("bayes_mc", None, ()),
    ],
)
def test_observations_off_the_channel_raise(kind, bits, shape):
    """An observation whose antenna count is not the channel's n_r raises
    ValueError naming its shape and the channel's; each of these cases once
    failed inside numpy, or gave an estimate silently."""
    q = Quantizer(bits=bits)
    t = rand_task(72)
    ctx = pilots(t, q, C2, 6, RngStream(73))
    y = np.resize(ctx.ys[0], shape)
    named = rf"observations of shape {re.escape(str(shape))} do not fit the \(\d+, 2, 2\) channel stack"
    with pytest.raises(ValueError, match=named):
        equalizer(kind, t, q, ctx)(y)


@pytest.mark.parametrize("kind, bits", [("weights", 4), ("weights", None), ("bayes_exact", None)])
def test_pilot_inputs_off_the_channel_raise(kind, bits):
    """3-antenna pilot inputs on a 2 x 2 channel raise ValueError naming
    both shapes; the pilot weights once returned finite values and the
    conjugate oracle failed inside numpy."""
    q = Quantizer(bits=bits)
    ctx = pilots(rand_task(74), q, C2, 5, RngStream(75))
    bad = ContextSet(qam4_constellation(3).joint[:5], ctx.ys)
    with pytest.raises(ValueError, match=r"pilot inputs of shape \(5, 3\) do not fit the \([18], 2, 2\)"):
        if kind == "weights":
            channel_log_posterior_weights(RngStream(76).complex_normal((8, 2, 2)), 0.1, q, bad)
        else:
            bayes_mmse_gaussian_exact(0.1, C2, bad, ctx.ys[0])


@pytest.mark.parametrize("sigma2", [0.0, -0.1, np.nan, np.inf])
@pytest.mark.parametrize(
    "kind, bits",
    [("task", None), ("weights", 4), ("weights", None)]
    + [(kind, bits) for kind, bits in KIND_BITS if kind.startswith("bayes")],
)
def test_noise_power_off_range_raises(kind, bits, sigma2):
    """A noise power that is not finite and > 0 raises ValueError naming
    it; a task once took inf, and the stack references returned NaN,
    failed inside numpy or found zero evidence."""
    q = Quantizer(bits=bits)
    t = rand_task(77)
    ctx = pilots(t, q, C2, 5, RngStream(78))
    channels = RngStream(79).complex_normal((4, 2, 2))
    call = {
        "task": lambda: Task(t.h, sigma2),
        "weights": lambda: channel_log_posterior_weights(channels, sigma2, q, ctx),
        "bayes_discrete": lambda: bayes_mmse_discrete(channels, sigma2, q, C2, ctx, ctx.ys[0]),
        "bayes_mc": lambda: bayes_mmse_continuous_mc(
            sigma2, q, C2, ctx, ctx.ys[0], 8, RngStream(80)
        ),
        "bayes_exact": lambda: bayes_mmse_gaussian_exact(sigma2, C2, ctx, ctx.ys[0]),
    }[kind]
    with pytest.raises(ValueError, match=f"sigma2 must be finite and > 0, got {sigma2}"):
        call()


@pytest.mark.parametrize("bits", [4, None])
def test_transposed_channel_matches_its_copy(bits):
    """A task takes its channel in any memory layout: a transposed view
    gives the channel and the estimates of its C-contiguous copy."""
    h = RngStream(81).complex_normal((2, 2)).T
    view, copy = Task(h, 0.1), Task(h.copy(), 0.1)
    assert view.h.flags.c_contiguous
    np.testing.assert_array_equal(view.h, copy.h)
    q = Quantizer(bits=bits)
    _, ys = sample_pairs(copy.h, 0.1, q, C2, 6, RngStream(82))
    for est in (lambda t: mmse_known_task(t, q, C2, ys), lambda t: lmmse_known_task(t, ys)):
        np.testing.assert_array_equal(est(view), est(copy))


class TestInputPosterior:
    def test_noiseless_identifiability(self):
        t = rand_task(1, sigma2=1e-9)
        x = C2.joint[6]
        probs = input_posterior(t, Quantizer(bits=None), C2, t.h @ x)
        assert probs[6] >= 0.999

    def test_uninformative_limit(self):
        t = rand_task(2, sigma2=1e12)
        y = np.array([0.3 + 0.1j, -0.2 + 0.5j])
        probs = input_posterior(t, Quantizer(bits=None), C2, y)
        np.testing.assert_allclose(probs, 1 / 16, atol=1e-6)

    def test_normalization(self):
        t = rand_task(3)
        rng = RngStream(33)
        for i in range(10):
            y = rng.derive(i).complex_normal(size=2)
            probs = input_posterior(t, Quantizer(bits=None), C2, y)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs >= 0)

    def test_matches_forward_simulation_oracle(self):
        """Conditional frequencies from 1e6 forward simulations reproduce
        the analytic posterior for the most likely observation (b = 2)."""
        q = Quantizer(bits=2)
        t = rand_task(4, sigma2=0.5)
        rng = RngStream(44)
        n = 1_000_000
        idx = np.asarray(rng.integers(0, 16, size=n))
        means = C2.joint[idx] @ t.h.T
        noise = rng.complex_normal(size=(n, 2)) * np.sqrt(t.sigma2)
        raw = means + noise
        li_re, _ = quantize(q, raw.real)
        li_im, _ = quantize(q, raw.imag)
        codes = (
            li_re[:, 0] + 4 * li_im[:, 0] + 16 * li_re[:, 1] + 64 * li_im[:, 1]
        )
        star = np.bincount(codes).argmax()
        sel = codes == star
        emp = np.bincount(idx[sel], minlength=16) / sel.sum()
        k = int(star)
        lv = q.levels()
        y_star = np.array(
            [
                lv[k % 4] + 1j * lv[(k // 4) % 4],
                lv[(k // 16) % 4] + 1j * lv[(k // 64) % 4],
            ]
        )
        ana = input_posterior(t, q, C2, y_star)
        tv = 0.5 * np.sum(np.abs(emp - ana))
        assert tv <= 0.01

    def test_entropy_decreases_with_snr(self):
        """Average input-posterior entropy is non-increasing in SNR; paired
        via common channel, input, and base-noise draws (b = 4)."""
        q = Quantizer(bits=4)
        rng = RngStream(55)
        n = 2000
        hs = rng.complex_normal(size=(n, 2, 2))
        idx = np.asarray(rng.integers(0, 16, size=n))
        w = rng.complex_normal(size=(n, 2))
        sigmas = [1.0, 0.3, 0.1, 0.03]
        avg_ent = []
        for s2 in sigmas:
            ents = []
            for i in range(n):
                t = Task(h=hs[i], sigma2=s2)
                raw = t.h @ C2.joint[idx[i]] + w[i] * np.sqrt(s2)
                _, re = quantize(q, raw.real)
                _, im = quantize(q, raw.imag)
                p = input_posterior(t, q, C2, re + 1j * im)
                p = np.clip(p, 1e-300, 1.0)
                ents.append(-np.sum(p * np.log(p)))
            avg_ent.append(np.mean(ents))
        assert all(a >= b for a, b in zip(avg_ent, avg_ent[1:]))


class TestMmseKnownTask:
    def test_uniform_posterior_gives_zero(self):
        t = rand_task(5, sigma2=1e12)
        x_hat = mmse_known_task(t, Quantizer(bits=None), C2, np.array([0.1 + 0j, 0.2 + 0j]))
        assert np.linalg.norm(x_hat) < 1e-4

    def test_noiseless_limit_recovers_input(self):
        t = rand_task(6, sigma2=1e-9)
        x = C2.joint[11]
        x_hat = mmse_known_task(t, Quantizer(bits=None), C2, t.h @ x)
        assert np.linalg.norm(x_hat - x) < 1e-3

    def test_rotation_equivariance(self):
        """Multiplying the channel by a 4-QAM-preserving diagonal unitary on
        the right rotates the posterior-mean output identically."""
        t = rand_task(7, sigma2=0.2)
        rng = RngStream(77)
        for trial in range(10):
            u = 1j ** np.asarray(rng.integers(0, 4, size=2))
            y = rng.derive(trial).complex_normal(size=2)
            base = mmse_known_task(t, Quantizer(bits=None), C2, y)
            rot_task = Task(h=t.h @ np.diag(u.conj()), sigma2=t.sigma2)
            got = mmse_known_task(rot_task, Quantizer(bits=None), C2, y)
            np.testing.assert_allclose(got, u * base, atol=1e-10)

    def test_beats_lmmse_on_average(self):
        """Paired comparison at b = 4, SNR 10 dB over 2000 draws."""
        q = Quantizer(bits=4)
        rng = RngStream(88)
        d = []
        for i in range(100):
            t = sample_task(SPEC22, rng.derive(i))
            ctx = pilots(t, q, C2, 20, rng.derive(i, 1))
            xs = C2.joint[np.asarray(rng.derive(i, 2).integers(0, 16, size=20))]
            noise = rng.derive(i, 3).complex_normal(size=(20, 2))
            raw = xs @ t.h.T + noise * np.sqrt(t.sigma2)
            _, re = quantize(q, raw.real)
            _, im = quantize(q, raw.imag)
            ys = re + 1j * im
            mm = mmse_known_task(t, q, C2, ys)
            lm = lmmse_known_task(t, ys)
            d.append(
                np.sum(np.abs(mm - xs) ** 2, axis=1)
                - np.sum(np.abs(lm - xs) ** 2, axis=1)
            )
            del ctx
        d = np.concatenate(d)
        se = d.std(ddof=1) / np.sqrt(d.size)
        assert d.mean() + 1.96 * se < 0


class TestLmmse:
    def test_printed_two_sigma_form(self):
        t = rand_task(8, sigma2=0.37)
        y = RngStream(9).complex_normal(size=2)
        want = np.linalg.solve(
            2 * t.sigma2 * np.eye(2) + t.h.conj().T @ t.h, t.h.conj().T @ y
        )
        np.testing.assert_allclose(lmmse_known_task(t, y), want, atol=1e-13)

    def test_identity_channel_reduction(self):
        t = Task(h=np.eye(2, dtype=complex), sigma2=0.25)
        y = np.array([1.0 + 2.0j, -0.5 + 0.1j])
        np.testing.assert_allclose(
            lmmse_known_task(t, y), y / (1 + 2 * t.sigma2), atol=1e-13
        )

    def test_zero_forcing_limit(self):
        t = rand_task(10, sigma2=1e-12)
        y = RngStream(11).complex_normal(size=2)
        np.testing.assert_allclose(
            lmmse_known_task(t, y), np.linalg.solve(t.h, y), atol=1e-6
        )


class TestChannelPosteriorWeights:
    def test_empty_context_keeps_prior(self):
        channels = RngStream(12).complex_normal((3, 2, 2))
        w = channel_log_posterior_weights(
            channels, 0.1, Quantizer(bits=4), empty_context(2, 2)
        )
        np.testing.assert_array_equal(w, np.zeros(3))

    @pytest.mark.parametrize("n_t", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 7])
    @pytest.mark.parametrize("bits", [4, None])
    def test_pilot_means_match_einsum(self, n_t, n, bits):
        """The weights equal those of pilot means formed by einsum, bit for
        bit (the einsum is the oracle only here)."""
        q = Quantizer(bits=bits)
        t = rand_task(18, n_t=n_t)
        ctx = pilots(t, q, qam4_constellation(n_t), n, RngStream(19, n_t))
        channels = RngStream(20, n_t).complex_normal((33, 2, n_t))
        means = np.einsum("mrt,nt->mnr", channels, ctx.xs)
        want = np.sum(loglik_means(q, means, t.sigma2, ctx.ys[None]), axis=1)
        got = channel_log_posterior_weights(channels, t.sigma2, q, ctx)
        assert np.array_equal(got, want)

    def test_reorder_invariance(self):
        q = Quantizer(bits=4)
        t = rand_task(13)
        ctx = pilots(t, q, C2, 10, RngStream(14))
        channels = RngStream(15).complex_normal((4, 2, 2))
        w = channel_log_posterior_weights(channels, t.sigma2, q, ctx)
        perm = RngStream(16)._gen.permutation(10)
        ctx2 = ContextSet(xs=ctx.xs[perm], ys=ctx.ys[perm])
        w2 = channel_log_posterior_weights(channels, t.sigma2, q, ctx2)
        np.testing.assert_allclose(w, w2, atol=1e-9)

    def test_posterior_consistency(self):
        """With N = 20 pilots at SNR 10 dB the true channel wins the
        posterior against a well-separated alternative."""
        q = Quantizer(bits=4)
        rng = RngStream(17)
        hits = 0
        trials = 200
        for i in range(trials):
            h1 = rng.derive(i, 0).complex_normal((2, 2))
            h2 = rng.derive(i, 1).complex_normal((2, 2))
            t = Task(h=h1, sigma2=0.1)
            ctx = pilots(t, q, C2, 20, rng.derive(i, 2))
            channels = np.stack([h1, h2])
            lw = channel_log_posterior_weights(channels, t.sigma2, q, ctx)
            w = np.exp(lw - logsumexp(lw))
            hits += w[0] >= 0.99
        assert hits >= 0.95 * trials


class TestBlockedPilotWeights:
    """The pilot weights walked in blocks of channels split over two cores
    equal the one-call formula bit for bit."""

    # channels per quantized block: _BLOCK below over 7 pilots x 4 real
    # dimensions; an unquantized block holds 3 to 12 (by the 7 pilots, or
    # the means of up to 7 distinct inputs), so 14 channels split, 3 do not
    ROWS = 3

    @pytest.mark.parametrize("m", [1, ROWS, 4 * ROWS + 2])
    @pytest.mark.parametrize("n_t", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 7])
    @pytest.mark.parametrize("bits", [4, None])
    def test_split_matches_one_call(self, monkeypatch, m, n_t, n, bits):
        q = Quantizer(bits=bits)
        t = rand_task(21, n_t=n_t)
        ctx = pilots(t, q, qam4_constellation(n_t), n, RngStream(22, n_t))
        channels = RngStream(23, n_t).complex_normal((m, 2, n_t))
        means = np.einsum("mrt,nt->mnr", channels, ctx.xs)
        want = loglik_means(q, means, t.sigma2, ctx.ys[None]).sum(axis=1)
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        monkeypatch.setattr(numerics, "_BLOCK", self.ROWS * 7 * 4)
        splits = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda *a: splits.append(1) or lanes(*a))
        got = channel_log_posterior_weights(channels, t.sigma2, q, ctx)
        assert np.array_equal(got, want)
        assert bool(splits) == (n > 0 and m > self.ROWS)

    def test_concurrent_callers(self, monkeypatch):
        """Callers on more threads than cores share the worker pool; each
        gets its own exact weights."""
        q = Quantizer(bits=4)
        t = rand_task(29)
        ctx = pilots(t, q, C2, 7, RngStream(30))
        stacks = [RngStream(31, i).complex_normal((14, 2, 2)) for i in range(6)]
        want = [channel_log_posterior_weights(h, t.sigma2, q, ctx) for h in stacks]
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        monkeypatch.setattr(numerics, "_BLOCK", self.ROWS * 7 * 4)
        bad = []

        def call(i):
            for _ in range(20):
                got = channel_log_posterior_weights(stacks[i], t.sigma2, q, ctx)
                if not np.array_equal(got, want[i]):
                    bad.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(stacks))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert bad == []


def quarter_turn(k):
    """Real dimension e -> (pi(e), s): the realified means of x = j^-k c on
    e are s times those of c on pi(e), read off a generic mean."""
    mu = np.array([1.0 + 3.0j, 2.0 + 4.0j])  # realified: 1, 2, 3, 4
    got = channel.realify_obs(mu * (-1j) ** k)
    return [(int(abs(v)) - 1, np.sign(v)) for v in got]


def canonical_turn(x):
    """The k of j^k x[0] in re > 0, im >= 0, for a 4-QAM input."""
    return next(k for k in range(4) if (x[0] * 1j**k).real > 0 and (x[0] * 1j**k).imag >= 0)


class TestDistinctPilotCells:
    """Pilots are evaluated on their canonical inputs j^k x, and pilots that
    share a canonical cell share one cell evaluation; the weights still
    equal those of the einsum means bit for bit."""

    # per pilot: joint input, then level per real dimension ("b" a middle
    # level, "a" the one below it, 0 and "top" the saturated extremes)
    PILOTS = [
        (0, ("b", "b", "a", "b")),
        (0, ("b", "b", "a", "b")),  # same input, same levels
        (0, ("a", "b", "a", "b")),  # same input, adjacent level on one dimension
        (0, ("b", "b", "a", "a")),
        (5, (0, "top", 0, "top")),  # saturated cells
        (5, (0, "top", 0, "top")),
        (5, ("top", 0, "top", 0)),
        (9, ("b", "a", "b", "a")),
        (9, ("top", 0, 0, "top")),
        (9, ("b", "a", "b", "a")),
    ]
    # every joint input, so every quarter turn, with middle and saturated levels
    ALL_TURNS = [(i, lv) for i in range(16) for lv in (("b", "a", "a", "b"), (0, "top", "b", "a"))]

    @classmethod
    def context(cls, q, pilots=None):
        pilots = cls.PILOTS if pilots is None else pilots
        mid = q.n_levels // 2
        name = {"a": mid - 1, "b": mid, "top": q.n_levels - 1, 0: 0}
        idx = np.array([[name[k] for k in levels] for _, levels in pilots])
        ri = channel.RANGE_LO + q.step * (idx + 0.5)
        xs = C2.joint[[i for i, _ in pilots]]
        return ContextSet(xs=xs, ys=ri[:, :2] + 1j * ri[:, 2:])

    @staticmethod
    def spy(monkeypatch):
        """Record the inputs passed to _pilot_means and the kernel's shapes."""
        inputs, cells = [], []
        pilot_means, kernel = estimators._pilot_means, estimators._log_cell_prob_std
        monkeypatch.setattr(
            estimators, "_pilot_means", lambda h, xs: inputs.append(xs) or pilot_means(h, xs)
        )
        monkeypatch.setattr(
            estimators, "_log_cell_prob_std", lambda a, b: cells.append(a.shape) or kernel(a, b)
        )
        return inputs, cells

    def test_cells_map_back_to_every_pilot(self, monkeypatch):
        """At either receiver the weights form the means of the 2 distinct
        canonical inputs of joints 0, 5 and 9 only; quantized, they evaluate
        each distinct (canonical input, dimension, level) cell once per
        channel.  Every pilot gets the log-likelihood of its own cells."""
        ctx = self.context(Quantizer(bits=4))
        channels = RngStream(32).complex_normal((13, 2, 2))
        inputs, cells = self.spy(monkeypatch)
        n = Quantizer(bits=4).n_levels
        turn = [canonical_turn(C2.joint[i]) for i, _ in self.PILOTS]
        canon = [tuple(C2.joint[i] * 1j**k) for (i, _), k in zip(self.PILOTS, turn)]
        joint = sorted(set(canon))
        assert len(joint) == 2
        level = {"a": n // 2 - 1, "b": n // 2, "top": n - 1, 0: 0}
        distinct = {
            (c, e, level[lv[d]] if s > 0 else n - 1 - level[lv[d]])
            for c, k, (_, lv) in zip(canon, turn, self.PILOTS)
            for d, (e, s) in enumerate(quarter_turn(k))
        }
        assert len(distinct) < ctx.ys.size * 2
        input_of = np.array([joint.index(c) for c in canon])
        means = channel.realify_obs(np.einsum("mrt,nt->mnr", channels, np.array(joint)))
        for q in (Quantizer(bits=4), Quantizer(bits=None)):
            inputs.clear()
            cells.clear()
            channel_log_posterior_weights(channels, 0.1, q, ctx)
            assert len(inputs) == 1 and len(inputs[0]) == len(joint)
            assert {tuple(x) for x in inputs[0]} == set(joint)
            assert cells == ([(len(distinct), 13)] if q.quantized else [])
            loglik, _ = estimators._pair_loglik(
                q, 0.1, input_of, np.array(turn), channel.realify_obs(ctx.ys)
            )
            got = loglik(means.transpose(1, 2, 0))  # (N, M)
            want = loglik_means(q, np.einsum("mrt,nt->mnr", channels, ctx.xs), 0.1, ctx.ys)
            assert np.array_equal(got, want.T)

    def test_sixteen_inputs_reach_pilot_means_as_four(self, monkeypatch):
        """Pilots of all 16 joint inputs pass only their 4 canonical inputs,
        each with its first symbol in re > 0, im >= 0."""
        q = Quantizer(bits=4)
        ctx = self.context(q, self.ALL_TURNS)
        channels = RngStream(34).complex_normal((13, 2, 2))
        inputs, _ = self.spy(monkeypatch)
        got = channel_log_posterior_weights(channels, 0.1, q, ctx)
        assert len(inputs) == 1 and len(inputs[0]) == 4
        assert np.all(inputs[0][:, 0].real > 0) and np.all(inputs[0][:, 0].imag >= 0)
        want = np.sum(loglik_means(q, np.einsum("mrt,nt->mnr", channels, ctx.xs), 0.1, ctx.ys),
                      axis=1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bits", [1, 4, channel.MAX_BITS, None])
    @pytest.mark.parametrize("split", [False, True])
    def test_all_four_turns_match_einsum_means(self, monkeypatch, bits, split):
        """Pilots of every turn, against means near zero (the middle cells
        straddle them), equal the einsum means' weights bit for bit."""
        q = Quantizer(bits=bits)
        ctx = self.context(Quantizer(bits=bits or 4), self.ALL_TURNS)
        assert {canonical_turn(x) for x in ctx.xs} == {0, 1, 2, 3}
        channels = RngStream(35).complex_normal((13, 2, 2))
        channels[0] *= 1e-3
        means = np.einsum("mrt,nt->mnr", channels, ctx.xs)
        sigma2s = (1e-4, 0.1, 3.0)
        want = [np.sum(loglik_means(q, means, s2, ctx.ys[None]), axis=1) for s2 in sigma2s]
        splits = []
        if split:
            monkeypatch.setattr(numerics, "_N_CORES", 2)
            monkeypatch.setattr(numerics, "_BLOCK", 2 * len(ctx) * 4)
            lanes = numerics._lanes
            monkeypatch.setattr(numerics, "_lanes", lambda *a: splits.append(1) or lanes(*a))
        for s2, w in zip(sigma2s, want):
            assert np.array_equal(channel_log_posterior_weights(channels, s2, q, ctx), w)
        assert len(splits) == (len(sigma2s) if split else 0)

    @pytest.mark.parametrize("bits", [1, 4, channel.MAX_BITS])
    @pytest.mark.parametrize("split", [False, True])
    def test_weights_match_einsum_means(self, monkeypatch, bits, split):
        q = Quantizer(bits=bits)
        ctx = self.context(q)
        channels = RngStream(32).complex_normal((13, 2, 2))
        channels[0] *= 1e-3  # means near zero: the middle cells straddle them
        means = np.einsum("mrt,nt->mnr", channels, ctx.xs)
        sigma2s = (1e-4, 0.1, 3.0)
        want = [np.sum(loglik_means(q, means, s2, ctx.ys[None]), axis=1) for s2 in sigma2s]
        splits = []
        if split:
            monkeypatch.setattr(numerics, "_N_CORES", 2)
            monkeypatch.setattr(numerics, "_BLOCK", 2 * len(ctx) * 4)
            lanes = numerics._lanes
            monkeypatch.setattr(numerics, "_lanes", lambda *a: splits.append(1) or lanes(*a))
        for s2, w in zip(sigma2s, want):
            assert np.array_equal(channel_log_posterior_weights(channels, s2, q, ctx), w)
        assert len(splits) == (len(sigma2s) if split else 0)

    def test_stack_between_the_two_block_sizes_still_splits(self, monkeypatch):
        """A block holds 2^16 pilot cells' worth of channels, not 2^16
        distinct cells' worth: the M = 1024 stack of the 4-bit headline
        point, whose 80 pilot cells count about 60 distinct ones, is split
        over the cores as before."""
        q = Quantizer(bits=4)
        t = rand_task(4, sigma2=0.1)
        ctx = pilots(t, q, C2, 20, RngStream(4, 7))
        lo, _ = channel.observation_cells(q, ctx.ys)
        distinct = len({(tuple(x), d, v) for x, row in zip(ctx.xs, lo) for d, v in enumerate(row)})
        m = 1024
        assert numerics._BLOCK // lo.size < m <= numerics._BLOCK // distinct
        channels = RngStream(33).complex_normal((m, 2, 2))
        want = channel_log_posterior_weights(channels, t.sigma2, q, ctx)
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        splits = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda *a: splits.append(1) or lanes(*a))
        got = channel_log_posterior_weights(channels, t.sigma2, q, ctx)
        assert splits and np.array_equal(got, want)


class TestWorkerThreads:
    """Split likelihoods run their blocks on the pool's threads, but the
    functions a profiler may wrap (whose span stack is not thread-safe) are
    called from the calling thread only."""

    HOOKED = [
        (estimators, "logsumexp"),
        (RngStream, "complex_normal"),
    ]

    @pytest.mark.parametrize("bits", [4, None])
    def test_hooked_functions_stay_on_calling_thread(self, monkeypatch, bits):
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        monkeypatch.setattr(numerics, "_BLOCK", 64)
        threads = {}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)

            return wrapper

        for owner, attr in self.HOOKED + [(estimators, "_pilot_means")]:
            monkeypatch.setattr(owner, attr, spy(attr, getattr(owner, attr)))
        q = Quantizer(bits=bits)
        t = rand_task(24)
        ctx = pilots(t, q, C2, 7, RngStream(25))
        _, ys = sample_pairs(t.h, t.sigma2, q, C2, 3, RngStream(26))
        bayes_mmse_continuous_mc(t.sigma2, q, C2, ctx, ys, 64, RngStream(27))
        channels = RngStream(28).complex_normal((40, 2, 2))
        bayes_mmse_discrete(channels, t.sigma2, q, C2, ctx, ys)
        main = threading.main_thread()
        hooked = {attr for _, attr in self.HOOKED}
        assert hooked <= threads.keys()
        assert all(threads[attr] == {main} for attr in hooked)
        assert threads["_pilot_means"] - {main}  # the split did use a worker


def joint_posterior_broadcast(channels, log_w, sigma2, q, constellation, y):
    """The test-observation posterior with one broadcast call of
    ``loglik_means`` on every (observation, channel, input) cell: the oracle
    of the blocked, distinct-cell path."""
    y = np.asarray(y, dtype=complex)
    keep = np.exp(log_w) > MIN_CHANNEL_WEIGHT
    if not np.any(keep):
        keep = log_w == log_w.max()
    means = constellation.joint @ np.swapaxes(channels[keep], -1, -2)  # (Mk, C, n_r)
    ll = loglik_means(q, means, sigma2, y[..., None, None, :])  # (..., Mk, C)
    ll = (ll + log_w[keep][:, None]).reshape(y.shape[:-1] + (-1,))
    norm = logsumexp(ll, axis=-1)
    probs = np.exp(ll - np.asarray(norm)[..., None])
    return probs.reshape(y.shape[:-1] + means.shape[:2]).sum(axis=-2)


class TestJointPosteriorCells:
    """The posterior over inputs evaluates each distinct (input, dimension,
    level) cell of the test observations once per channel, in blocks of
    channels that may run on the pool's threads; its probabilities equal the
    broadcast formula's bit for bit."""

    @staticmethod
    def case(q, y_shape, stack):
        t = rand_task(40)
        _, ys = sample_pairs(t.h, t.sigma2, q, C2, 6, RngStream(41))
        if q.quantized:  # saturated cells on every dimension
            _, (bottom, top) = quantize(q, np.array([-100.0, 100.0]))
            ys[:2] = [[bottom + 1j * top, top + 1j * bottom], [top + 1j * top, bottom + 1j * bottom]]
        if stack == "one":
            channels, log_w = t.h[None], np.zeros(1)
        else:  # 9 channels, 3 of them of weight below MIN_CHANNEL_WEIGHT
            channels = RngStream(42).complex_normal((9, 2, 2))
            channels[0] = t.h
            log_w = estimators._normalized(np.array([0.0, -40, -1, -50, -2, 0, -60, -3, -1]))
        return channels, log_w, t.sigma2, ys[0] if y_shape == "one" else ys

    @pytest.mark.parametrize("bits", [1, 4, channel.MAX_BITS, None])
    @pytest.mark.parametrize("y_shape", ["one", "stack"])
    @pytest.mark.parametrize("stack", ["one", "skipped"])
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_broadcast(self, monkeypatch, bits, y_shape, stack, split):
        q = Quantizer(bits=bits)
        channels, log_w, sigma2, y = self.case(q, y_shape, stack)
        want = joint_posterior_broadcast(channels, log_w, sigma2, q, C2, y)
        threads = set()
        if split:
            monkeypatch.setattr(numerics, "_N_CORES", 2)
            monkeypatch.setattr(numerics, "_BLOCK", 64)  # one channel per block

            def spy(fn):
                def wrapper(*args):
                    threads.add(threading.current_thread())
                    return fn(*args)

                return wrapper

            # the cell kernel serves the quantized receiver, the Gaussian
            # density the unquantized one
            for name in ("_log_cell_prob_std", "gauss_logpdf"):
                monkeypatch.setattr(estimators, name, spy(getattr(estimators, name)))
        got = _joint_input_posterior(channels, log_w, sigma2, q, C2, y)
        assert got.shape == np.shape(y)[:-1] + (16,)
        assert np.array_equal(got, want)
        # the 6 kept channels are split over the cores, one channel is not
        ran_on_worker = bool(threads - {threading.main_thread()})
        assert ran_on_worker == (split and stack == "skipped")


def unique_cells(q, col, y_ri):
    """``estimators._distinct_cells`` in its ``np.unique`` form: the distinct
    (row, level) keys sorted, each pair's cell their inverse index."""
    shape = np.broadcast(col, y_ri).shape
    lo, hi = channel.cell_bounds(q, channel._level_index(q, y_ri))
    lo, first, level = np.unique(lo, return_index=True, return_inverse=True)
    key, inv = np.unique(col * len(lo) + level.reshape(y_ri.shape), return_inverse=True)
    rows, level = np.divmod(key, len(lo))
    lo, hi = np.take(lo, level)[:, None], np.take(hi, np.take(first, level))[:, None]
    return rows, lo, hi, np.moveaxis(inv.reshape(shape), -1, 0)


class TestDenseCellKeys:
    """The quantized set-up of ``_pair_loglik`` ranks its (row, level) keys
    over their dense range; its rows, bounds and inverse equal the sorted
    ``np.unique`` form's, for the pilots and for the test pairs."""

    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_matches_unique(self, monkeypatch, bits):
        q = Quantizer(bits=bits)
        calls = []
        distinct = estimators._distinct_cells

        def spy(*args):
            calls.append((args, distinct(*args)))
            return calls[-1][1]

        monkeypatch.setattr(estimators, "_distinct_cells", spy)
        # repeated and saturated levels on every quarter turn
        pilots = TestDistinctPilotCells.PILOTS + TestDistinctPilotCells.ALL_TURNS
        ctx = TestDistinctPilotCells.context(q, pilots)
        channels, _, sigma2, y = TestJointPosteriorCells.case(q, "stack", "one")
        bayes_mmse_discrete(channels, sigma2, q, C2, ctx, y)
        assert [np.ndim(args[2]) for args, _ in calls] == [2, 3]  # pilots, then test pairs
        for args, got in calls:
            want = unique_cells(q, *args[1:])
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            rows, lo, hi, inv = got
            assert len(rows) < inv.size  # pairs share cells
            assert np.isneginf(lo).any() and np.isposinf(hi).any()


class TestHeadlineSizes:
    """At the sizes of the benchmark's references (N = 20 pilots at 10 dB,
    M = 1024 and 2^14 channels, 64 test observations) the blocked,
    channels-innermost likelihoods equal the one-call oracles bit for bit,
    on one core and split over two, with the default block size."""

    @staticmethod
    def count_blocks(monkeypatch):
        """Record each stack that spans more than one block."""
        calls = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda *a: calls.append(1) or lanes(*a))
        return calls

    @pytest.mark.parametrize("m", [1024, 1 << 14])
    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_pilot_weights_match_einsum(self, monkeypatch, m, bits, cores):
        q = Quantizer(bits=bits)
        t = rand_task(60, sigma2=0.1)
        ctx = pilots(t, q, C2, 20, RngStream(61))
        channels = RngStream(62, m).complex_normal((m, 2, 2))
        means = np.einsum("mrt,nt->mnr", channels, ctx.xs)
        want = np.sum(loglik_means(q, means, t.sigma2, ctx.ys[None]), axis=1)
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        blocks = self.count_blocks(monkeypatch)
        got = channel_log_posterior_weights(channels, t.sigma2, q, ctx)
        assert np.array_equal(got, want)
        # an unquantized block holds 2^16 / 20 channels: M = 1024 is one block
        assert bool(blocks) == (bits is not None or m > 1024)

    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_joint_posterior_keeping_every_channel(self, monkeypatch, bits, cores):
        """S = 64 observations against 1024 kept channels, the regime of a
        reference that keeps every channel.  The oracle runs one
        observation at a time (each row of the posterior is normalized on
        its own), which keeps its broadcast arrays small."""
        q = Quantizer(bits=bits)
        t = rand_task(63, sigma2=0.1)
        _, ys = sample_pairs(t.h, t.sigma2, q, C2, 64, RngStream(64))
        channels = RngStream(65).complex_normal((1024, 2, 2))
        channels[0] = t.h
        log_w = estimators._normalized(RngStream(66).uniform(-20.0, 0.0, size=1024))
        assert np.all(np.exp(log_w) > MIN_CHANNEL_WEIGHT)
        want = np.concatenate(
            [joint_posterior_broadcast(channels, log_w, t.sigma2, q, C2, y[None]) for y in ys]
        )
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        blocks = self.count_blocks(monkeypatch)
        got = _joint_input_posterior(channels, log_w, t.sigma2, q, C2, ys)
        assert got.shape == (64, 16)
        assert np.array_equal(got, want)
        assert blocks


class TestBayesMmseDiscrete:
    def test_single_channel_collapse(self):
        q = Quantizer(bits=3)
        t = rand_task(18)
        ctx = pilots(t, q, C2, 20, RngStream(19))
        channels = t.h[None]
        rng = RngStream(20)
        for i in range(5):
            y = ctx.ys[i]
            a = bayes_mmse_discrete(channels, t.sigma2, q, C2, ctx, y)
            b = mmse_known_task(t, q, C2, y)
            np.testing.assert_allclose(a, b, atol=1e-12)
        del rng

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 2)], ids=["empty", "not-a-stack"])
    def test_rejects_bad_channel_stack(self, shape):
        ctx = pilots(rand_task(26), Quantizer(bits=4), C2, 2, RngStream(27))
        with pytest.raises(ValueError, match="non-empty"):
            bayes_mmse_discrete(np.zeros(shape), 0.1, Quantizer(bits=4), C2, ctx, ctx.ys[0])

    @pytest.mark.parametrize("where", ["pilot inputs", "pilot observations", "observations"])
    def test_rejects_antenna_counts_off_the_stack(self, where):
        """Pilots or observations of another antenna count than the stack
        raise ValueError naming both shapes, at both mixtures; 3-antenna
        pilot inputs on a 2 x 2 stack once gave an estimate silently."""
        q = Quantizer(bits=4)
        ctx = pilots(rand_task(26), q, C2, 5, RngStream(27))
        xs, ys, y = ctx.xs, ctx.ys, ctx.ys[0]
        if where == "pilot inputs":
            xs = qam4_constellation(3).joint[:5]
        elif where == "pilot observations":
            ys = np.concatenate([ys, ys[:, :1]], axis=1)
        else:
            y = np.append(y, y[0])
        bad = ContextSet(xs, ys)
        shape = {"pilot inputs": xs, "pilot observations": ys, "observations": y}[where].shape
        channels = RngStream(28).complex_normal((8, 2, 2))
        named = rf"{where} of shape \({shape[0]},( {shape[-1]})?\) do not fit the \(8, 2, 2\) channel stack"
        with pytest.raises(ValueError, match=named):
            bayes_mmse_discrete(channels, 0.1, q, C2, bad, y)
        # the Monte-Carlo stack takes the pilots' antenna count
        with pytest.raises(ValueError, match=r"do not fit the \(16, [23], 2\) channel stack"):
            bayes_mmse_continuous_mc(0.1, q, C2, bad, y, 16, RngStream(29))

    def test_empty_context_mixes_prior_evenly(self):
        t = rand_task(21)
        h2 = RngStream(22).complex_normal((2, 2))
        channels = np.stack([t.h, h2])
        y = RngStream(23).complex_normal(size=2)
        got = bayes_mmse_discrete(channels, 0.1, Quantizer(bits=None), C2, empty_context(2, 2), y)
        a = mmse_known_task(Task(h=t.h, sigma2=0.1), Quantizer(bits=None), C2, y)
        b = mmse_known_task(Task(h=h2, sigma2=0.1), Quantizer(bits=None), C2, y)
        # without pilots each channel is weighted by the evidence p(y | h) alone
        ev = np.exp([log_evidence(h, 0.1, Quantizer(bits=None), y) for h in (t.h, h2)])
        np.testing.assert_allclose(got, (ev[0] * a + ev[1] * b) / ev.sum(), atol=1e-12)

    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("n_pilots", [0, 1, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_joint_enumeration(self, bits, n_pilots, m):
        """Posterior mean over every (channel, input) pair, each weighted by
        its pilot likelihood times p(y | x, h), built from the scalar
        log_likelihood at 10 dB."""
        q = Quantizer(bits=bits)
        sigma2 = 0.1
        rng = RngStream(90).derive(m, n_pilots)
        channels = rng.derive(0).complex_normal((m, 2, 2))
        t = Task(h=channels[0], sigma2=sigma2)
        ctx = pilots(t, q, C2, n_pilots, rng.derive(1))
        _, ys = sample_pairs(t.h, sigma2, q, C2, 4, rng.derive(2))
        got = bayes_mmse_discrete(channels, sigma2, q, C2, ctx, ys)
        tasks = [Task(h=h, sigma2=sigma2) for h in channels]
        pilot_ll = [
            sum(log_likelihood(tm, q, x, y) for x, y in zip(ctx.xs, ctx.ys)) for tm in tasks
        ]
        for y, g in zip(ys, got):
            logp = np.array(
                [
                    [lp + log_likelihood(tm, q, x, y) for x in C2.joint]
                    for tm, lp in zip(tasks, pilot_ll)
                ]
            )  # (channel, input)
            p = np.exp(logp - logsumexp(logp))
            np.testing.assert_allclose(g, p.sum(axis=0) @ C2.joint, rtol=0, atol=1e-12)

    def test_skips_channels_of_negligible_weight(self):
        """A channel whose normalized pilot weight is at most
        MIN_CHANNEL_WEIGHT leaves the input posterior unchanged."""
        q = Quantizer(bits=4)
        t = rand_task(29)
        channels = np.stack([t.h, RngStream(30).complex_normal((2, 2))])
        # observed through the skipped channel, so that keeping it would show
        _, ys = sample_pairs(channels[1], t.sigma2, q, C2, 4, RngStream(31))
        log_w = np.array([0.0, np.log(MIN_CHANNEL_WEIGHT)])
        got = _joint_input_posterior(channels, log_w, t.sigma2, q, C2, ys)
        np.testing.assert_allclose(got, input_posterior(t, q, C2, ys), rtol=0, atol=1e-15)

    def test_concentrates_on_true_channel(self):
        q = Quantizer(bits=4)
        rng = RngStream(24)
        t = Task(h=rng.complex_normal((2, 2)), sigma2=0.01)
        others = rng.complex_normal((7, 2, 2))
        channels = np.concatenate([t.h[None], others])
        ctx = pilots(t, q, C2, 20, rng.derive(1))
        y = ctx.ys[0]
        a = bayes_mmse_discrete(channels, t.sigma2, q, C2, ctx, y)
        b = mmse_known_task(t, q, C2, y)
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestBayesMmseContinuousMc:
    @pytest.mark.parametrize("bits", [4, None])
    def test_equals_discrete_over_drawn_channels(self, bits):
        """The IS estimate is the discrete-prior estimate over the channels
        it drew, with the same pruning."""
        q = Quantizer(bits=bits)
        t = rand_task(35)
        ctx = pilots(t, q, C2, 3, RngStream(36))
        _, ys = sample_pairs(t.h, t.sigma2, q, C2, 5, RngStream(37))
        est, _ = bayes_mmse_continuous_mc(t.sigma2, q, C2, ctx, ys, 64, RngStream(38))
        channels = RngStream(38).complex_normal(size=(64, 2, 2))
        want = bayes_mmse_discrete(channels, t.sigma2, q, C2, ctx, ys)
        np.testing.assert_array_equal(est, want)

    def test_symmetry_without_context(self):
        rng = RngStream(25)
        y = rng.complex_normal(size=2)
        est, ess = bayes_mmse_continuous_mc(
            0.5, Quantizer(bits=None), C2, empty_context(2, 2), y, 2**14, rng.derive(1)
        )
        assert np.mean(np.abs(est)) <= 0.05
        assert ess > 2**13  # uniform weights without evidence

    def test_k_equal_one_degenerates_to_single_channel(self):
        rng = RngStream(26)
        t = rand_task(27)
        ctx = pilots(t, Quantizer(bits=None), C2, 4, rng)
        y = rng.complex_normal(size=2)
        draw_rng = rng.derive(9)
        est, ess = bayes_mmse_continuous_mc(
            t.sigma2, Quantizer(bits=None), C2, ctx, y, 1, draw_rng
        )
        h = RngStream(26).derive(9).complex_normal(size=(1, 2, 2))[0]
        want = mmse_known_task(Task(h=h, sigma2=t.sigma2), Quantizer(bits=None), C2, y)
        np.testing.assert_allclose(est, want, atol=1e-12)
        assert ess == 1.0

    def test_error_shrinks_with_k(self):
        """IS error against the conjugate oracle decreases from k=2^10 to 2^14."""
        rng = RngStream(28)
        errs = {10: [], 14: []}
        for trial in range(12):
            t = sample_task(SPEC22, rng.derive(trial))
            ctx = pilots(t, Quantizer(bits=None), C2, 4, rng.derive(trial, 1))
            y = ctx.ys[0]
            ref = bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y)
            for lk in errs:
                est, _ = bayes_mmse_continuous_mc(
                    t.sigma2, Quantizer(bits=None), C2, ctx, y, 2**lk, rng.derive(trial, 2, lk)
                )
                errs[lk].append(np.linalg.norm(est - ref))
        assert np.mean(errs[14]) < np.mean(errs[10])


class TestGaussianExactOracle:
    def test_empty_context_is_symmetric(self):
        y = RngStream(29).complex_normal(size=2)
        est = bayes_mmse_gaussian_exact(0.5, C2, empty_context(2, 2), y)
        # prior predictive variance is identical for all candidates, so the
        # posterior depends on y only through the means; symmetry of the
        # constellation keeps the estimate small
        prior_est = bayes_mmse_gaussian_exact(
            1e9, C2, empty_context(2, 2), y
        )
        assert np.linalg.norm(prior_est) < 1e-3
        assert np.all(np.isfinite(est.view(float)))

    def test_concentrates_to_known_task_mmse(self):
        rng = RngStream(30)
        t = Task(h=rng.complex_normal((2, 2)), sigma2=0.01)
        ctx = pilots(t, Quantizer(bits=None), C2, 64, rng.derive(1))
        ys = rng.derive(2).complex_normal(size=(10, 2))
        for y in ys:
            a = bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y)
            b = mmse_known_task(t, Quantizer(bits=None), C2, y)
            assert np.linalg.norm(a - b) < 1e-2

    def test_rejects_quantized_inputs(self):
        with pytest.raises(ValueError):
            bayes_mmse_gaussian_exact(
                0.1,
                C2,
                empty_context(2, 2),
                np.zeros(2, dtype=complex),
                quantizer=Quantizer(bits=4),
            )

    def test_rotation_equivariance_through_context(self):
        rng = RngStream(31)
        t = rand_task(32, sigma2=0.2)
        ctx = pilots(t, Quantizer(bits=None), C2, 6, rng)
        y = rng.complex_normal(size=2)
        base = bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y)
        u = np.array([1j, -1.0])
        ctx_rot = ContextSet(xs=ctx.xs * u[None, :], ys=ctx.ys)
        got = bayes_mmse_gaussian_exact(t.sigma2, C2, ctx_rot, y)
        np.testing.assert_allclose(got, u * base, atol=1e-10)

    def test_matches_quadrature_oracle(self):
        """Brute-force Gauss-Hermite integration over the channel for an
        N_t = 1, N_r = 2 system agrees with the conjugate closed form."""
        c1 = qam4_constellation(1)
        rng = RngStream(34)
        sigma2 = 0.5
        t = Task(h=rng.complex_normal((2, 1)), sigma2=sigma2)
        ctx = pilots(t, Quantizer(bits=None), c1, 3, rng.derive(1))
        y = rng.derive(2).complex_normal(size=2)

        nodes, weights = np.polynomial.hermite.hermgauss(150)
        hu, hv = np.meshgrid(nodes, nodes, indexing="ij")
        w2 = np.outer(weights, weights)
        hgrid = (hu + 1j * hv).ravel()  # prior CN(0,1): h = u + iv, u,v ~ e^{-t^2}
        wgrid = w2.ravel()

        def row_integral(r, x_c):
            # product of pilot likelihoods and the test likelihood at h
            ll = np.zeros_like(hgrid, dtype=float)
            for i in range(len(ctx)):
                ll += -np.abs(ctx.ys[i, r] - ctx.xs[i, 0] * hgrid) ** 2 / sigma2
            ll += -np.abs(y[r] - x_c * hgrid) ** 2 / sigma2
            return np.sum(wgrid * np.exp(ll))

        post = np.array(
            [row_integral(0, xc[0]) * row_integral(1, xc[0]) for xc in c1.joint]
        )
        post = post / post.sum()
        want = post @ c1.joint
        got = bayes_mmse_gaussian_exact(sigma2, c1, ctx, y)
        np.testing.assert_allclose(got, want, atol=1e-3)


class TestNonFinitePilots:
    """A NaN or infinite pilot observation gives the same error whatever
    the quarter turn of its input, at either receiver."""

    JOINTS = [0, 5, 15, 9]  # first symbols in turns 0, 1, 2 and 3

    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("pilot", range(4))
    def test_error_is_independent_of_the_turn(self, bits, bad, part, pilot):
        q = Quantizer(bits=bits)
        ys = np.full((4, 2), 0.25 + 0.75j)
        # complex(re, im), not re + 1j * im: 0 * inf would make the other part NaN
        v = ys[pilot, 1]
        ys[pilot, 1] = complex(bad, v.imag) if part == "re" else complex(v.real, bad)
        ctx = ContextSet(xs=C2.joint[self.JOINTS], ys=ys)
        channels = RngStream(43).complex_normal((4, 2, 2))
        y = np.array([0.25 - 0.25j, -0.75 + 0.25j])
        if np.isnan(bad):
            message = "cannot quantize NaN" if bits else "observation is NaN"
            error = pytest.raises(ValueError, match=message)
        elif bits:
            error = pytest.raises(ValueError, match="not on a quantizer output level")
        else:
            error = pytest.raises(DegenerateEvidenceError, match="pilots")
        with error:
            bayes_mmse_discrete(channels, 0.1, q, C2, ctx, y)


class TestDegenerateEvidence:
    def test_all_zero_likelihood_raises(self):
        # an off-grid observation is caught earlier; force degeneracy with an
        # impossible unquantized observation at absurd distance and tiny noise
        t = Task(h=np.eye(2, dtype=complex) * 1e-3, sigma2=1e-300)
        y = np.array([1e200 + 0j, 0j])
        with pytest.raises((DegenerateEvidenceError, FloatingPointError)):
            input_posterior(t, Quantizer(bits=None), C2, y)

    def test_mixtures_raise_on_impossible_observation(self):
        t = Task(h=np.eye(2, dtype=complex) * 1e-3, sigma2=1e-300)
        y = np.array([1e200 + 0j, 0j])
        ctx = empty_context(2, 2)
        channels = np.stack([t.h, 2 * t.h])
        with pytest.raises(DegenerateEvidenceError):
            bayes_mmse_discrete(channels, t.sigma2, Quantizer(bits=None), C2, ctx, y)
        with pytest.raises(DegenerateEvidenceError):
            bayes_mmse_continuous_mc(t.sigma2, Quantizer(bits=None), C2, ctx, y, 16, RngStream(39))

    @pytest.mark.parametrize("where", ["pilot", "observation"])
    def test_exact_oracle_raises_on_infinite_observation(self, where):
        t = rand_task(41)
        ctx = pilots(t, Quantizer(bits=None), C2, 3, RngStream(42))
        y = np.zeros(2, dtype=complex)
        if where == "pilot":
            ctx = ContextSet(ctx.xs, np.where(np.arange(3)[:, None] == 1, np.inf, ctx.ys))
        else:
            y[0] = complex(0.0, -np.inf)
        with pytest.raises(DegenerateEvidenceError):
            bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y)

    def test_mixtures_raise_on_impossible_pilots(self):
        t = Task(h=np.eye(2, dtype=complex) * 1e-3, sigma2=1e-300)
        ctx = ContextSet(xs=C2.joint[:1], ys=np.array([[1e200 + 0j, 0j]]))
        y = np.zeros(2, dtype=complex)
        channels = np.stack([t.h, 2 * t.h])
        with pytest.raises(DegenerateEvidenceError, match="pilots"):
            bayes_mmse_discrete(channels, t.sigma2, Quantizer(bits=None), C2, ctx, y)
        with pytest.raises(DegenerateEvidenceError, match="pilots"):
            bayes_mmse_continuous_mc(t.sigma2, Quantizer(bits=None), C2, ctx, y, 16, RngStream(40))
