import numpy as np
import pytest

from icleq.channel import (
    UNQUANTIZED,
    ContextSet,
    Quantizer,
    Task,
    TaskDistributionSpec,
    empty_context,
    log_likelihood,
    qam4_constellation,
    quantize,
    sample_pairs,
    sample_task,
)
from icleq.estimators import (
    ChannelPrior,
    DegenerateEvidenceError,
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


def log_evidence(h, sigma2, q, y):
    """log p(y | h) under the uniform input prior, up to the constant -log |X|."""
    t = Task(h=h, sigma2=sigma2)
    return logsumexp([log_likelihood(t, q, x, y) for x in C2.joint])


class TestObservationShapes:
    """Every estimator takes one observation (n_r,) or a stack (n, n_r);
    row i of a stacked call equals the call on observation i."""

    @pytest.mark.parametrize("bits", [4, None])
    def test_stack_matches_rows(self, bits):
        q = Quantizer(bits=bits)
        t = rand_task(60)
        ctx = pilots(t, q, C2, 6, RngStream(61))
        _, ys, _ = sample_pairs(t.h, t.sigma2, q, C2, 5, RngStream(62))
        prior = ChannelPrior.discrete(RngStream(63).complex_normal((4, 2, 2)))
        estimators = {
            "input_posterior": lambda y: input_posterior(t, q, C2, y),
            "mmse_known": lambda y: mmse_known_task(t, q, C2, y),
            "lmmse": lambda y: lmmse_known_task(t, y),
            "bayes_discrete": lambda y: bayes_mmse_discrete(prior, t.sigma2, q, C2, ctx, y),
            "bayes_mc": lambda y: bayes_mmse_continuous_mc(
                t.sigma2, q, C2, ctx, y, 256, RngStream(64)
            )[0],
        }
        if bits is None:
            estimators["bayes_exact"] = lambda y: bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y)
        for name, est in estimators.items():
            stacked = est(ys)
            rows = np.array([est(y) for y in ys])
            assert stacked.shape == rows.shape and rows.ndim == 2, name
            np.testing.assert_allclose(stacked, rows, atol=1e-12, err_msg=name)


class TestInputPosterior:
    def test_noiseless_identifiability(self):
        t = rand_task(1, sigma2=1e-9)
        x = C2.joint[6]
        probs = input_posterior(t, UNQUANTIZED, C2, t.h @ x)
        assert probs[6] >= 0.999

    def test_uninformative_limit(self):
        t = rand_task(2, sigma2=1e12)
        y = np.array([0.3 + 0.1j, -0.2 + 0.5j])
        probs = input_posterior(t, UNQUANTIZED, C2, y)
        np.testing.assert_allclose(probs, 1 / 16, atol=1e-6)

    def test_normalization(self):
        t = rand_task(3)
        rng = RngStream(33)
        for i in range(10):
            y = rng.derive(i).complex_normal(size=2)
            probs = input_posterior(t, UNQUANTIZED, C2, y)
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
        x_hat = mmse_known_task(t, UNQUANTIZED, C2, np.array([0.1 + 0j, 0.2 + 0j]))
        assert np.linalg.norm(x_hat) < 1e-4

    def test_noiseless_limit_recovers_input(self):
        t = rand_task(6, sigma2=1e-9)
        x = C2.joint[11]
        x_hat = mmse_known_task(t, UNQUANTIZED, C2, t.h @ x)
        assert np.linalg.norm(x_hat - x) < 1e-3

    def test_rotation_equivariance(self):
        """Multiplying the channel by a 4-QAM-preserving diagonal unitary on
        the right rotates the posterior-mean output identically."""
        t = rand_task(7, sigma2=0.2)
        rng = RngStream(77)
        for trial in range(10):
            u = 1j ** np.asarray(rng.integers(0, 4, size=2))
            y = rng.derive(trial).complex_normal(size=2)
            base = mmse_known_task(t, UNQUANTIZED, C2, y)
            rot_task = Task(h=t.h @ np.diag(u.conj()), sigma2=t.sigma2)
            got = mmse_known_task(rot_task, UNQUANTIZED, C2, y)
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
        prior = ChannelPrior.discrete(RngStream(12).complex_normal((3, 2, 2)))
        w = channel_log_posterior_weights(
            prior.channels, 0.1, Quantizer(bits=4), empty_context(2, 2)
        )
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_reorder_invariance(self):
        q = Quantizer(bits=4)
        t = rand_task(13)
        ctx = pilots(t, q, C2, 10, RngStream(14))
        prior = ChannelPrior.discrete(RngStream(15).complex_normal((4, 2, 2)))
        w = channel_log_posterior_weights(prior.channels, t.sigma2, q, ctx)
        perm = RngStream(16)._gen.permutation(10)
        ctx2 = ContextSet(xs=ctx.xs[perm], ys=ctx.ys[perm])
        w2 = channel_log_posterior_weights(prior.channels, t.sigma2, q, ctx2)
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
            prior = ChannelPrior.discrete(np.stack([h1, h2]))
            lw = channel_log_posterior_weights(prior.channels, t.sigma2, q, ctx)
            w = np.exp(lw - logsumexp(lw))
            hits += w[0] >= 0.99
        assert hits >= 0.95 * trials


class TestBayesMmseDiscrete:
    def test_single_channel_collapse(self):
        q = Quantizer(bits=3)
        t = rand_task(18)
        ctx = pilots(t, q, C2, 20, RngStream(19))
        prior = ChannelPrior.discrete(t.h[None])
        rng = RngStream(20)
        for i in range(5):
            y = ctx.ys[i]
            a = bayes_mmse_discrete(prior, t.sigma2, q, C2, ctx, y)
            b = mmse_known_task(t, q, C2, y)
            np.testing.assert_allclose(a, b, atol=1e-12)
        del rng

    def test_empty_context_mixes_prior_evenly(self):
        t = rand_task(21)
        h2 = RngStream(22).complex_normal((2, 2))
        prior = ChannelPrior.discrete(np.stack([t.h, h2]))
        y = RngStream(23).complex_normal(size=2)
        got = bayes_mmse_discrete(prior, 0.1, UNQUANTIZED, C2, empty_context(2, 2), y)
        a = mmse_known_task(Task(h=t.h, sigma2=0.1), UNQUANTIZED, C2, y)
        b = mmse_known_task(Task(h=h2, sigma2=0.1), UNQUANTIZED, C2, y)
        # without pilots each channel is weighted by the evidence p(y | h) alone
        ev = np.exp([log_evidence(h, 0.1, UNQUANTIZED, y) for h in (t.h, h2)])
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
        _, ys, _ = sample_pairs(t.h, sigma2, q, C2, 4, rng.derive(2))
        got = bayes_mmse_discrete(ChannelPrior.discrete(channels), sigma2, q, C2, ctx, ys)
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

    def test_concentrates_on_true_channel(self):
        q = Quantizer(bits=4)
        rng = RngStream(24)
        t = Task(h=rng.complex_normal((2, 2)), sigma2=0.01)
        others = rng.complex_normal((7, 2, 2))
        prior = ChannelPrior.discrete(np.concatenate([t.h[None], others]))
        ctx = pilots(t, q, C2, 20, rng.derive(1))
        y = ctx.ys[0]
        a = bayes_mmse_discrete(prior, t.sigma2, q, C2, ctx, y)
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
        _, ys, _ = sample_pairs(t.h, t.sigma2, q, C2, 5, RngStream(37))
        est, _ = bayes_mmse_continuous_mc(t.sigma2, q, C2, ctx, ys, 64, RngStream(38))
        channels = RngStream(38).complex_normal(size=(64, 2, 2))
        want = bayes_mmse_discrete(
            ChannelPrior.discrete(channels), t.sigma2, q, C2, ctx, ys, prune_tol=1e-13
        )
        np.testing.assert_array_equal(est, want)

    def test_symmetry_without_context(self):
        rng = RngStream(25)
        y = rng.complex_normal(size=2)
        est, ess = bayes_mmse_continuous_mc(
            0.5, UNQUANTIZED, C2, empty_context(2, 2), y, 2**14, rng.derive(1)
        )
        assert np.mean(np.abs(est)) <= 0.05
        assert ess > 2**13  # uniform weights without evidence

    def test_k_equal_one_degenerates_to_single_channel(self):
        rng = RngStream(26)
        t = rand_task(27)
        ctx = pilots(t, UNQUANTIZED, C2, 4, rng)
        y = rng.complex_normal(size=2)
        draw_rng = rng.derive(9)
        est, ess = bayes_mmse_continuous_mc(
            t.sigma2, UNQUANTIZED, C2, ctx, y, 1, draw_rng
        )
        h = RngStream(26).derive(9).complex_normal(size=(1, 2, 2))[0]
        want = mmse_known_task(Task(h=h, sigma2=t.sigma2), UNQUANTIZED, C2, y)
        np.testing.assert_allclose(est, want, atol=1e-12)
        assert ess == 1.0

    def test_error_shrinks_with_k(self):
        """IS error against the conjugate oracle decreases from k=2^10 to 2^14."""
        rng = RngStream(28)
        errs = {10: [], 14: []}
        for trial in range(12):
            t = sample_task(SPEC22, rng.derive(trial))
            ctx = pilots(t, UNQUANTIZED, C2, 4, rng.derive(trial, 1))
            y = ctx.ys[0]
            ref = bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y)
            for lk in errs:
                est, _ = bayes_mmse_continuous_mc(
                    t.sigma2, UNQUANTIZED, C2, ctx, y, 2**lk, rng.derive(trial, 2, lk)
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
        ctx = pilots(t, UNQUANTIZED, C2, 64, rng.derive(1))
        ys = rng.derive(2).complex_normal(size=(10, 2))
        for y in ys:
            a = bayes_mmse_gaussian_exact(t.sigma2, C2, ctx, y)
            b = mmse_known_task(t, UNQUANTIZED, C2, y)
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
        ctx = pilots(t, UNQUANTIZED, C2, 6, rng)
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
        ctx = pilots(t, UNQUANTIZED, c1, 3, rng.derive(1))
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


class TestDegenerateEvidence:
    def test_all_zero_likelihood_raises(self):
        # an off-grid observation is caught earlier; force degeneracy with an
        # impossible unquantized observation at absurd distance and tiny noise
        t = Task(h=np.eye(2, dtype=complex) * 1e-3, sigma2=1e-300)
        y = np.array([1e200 + 0j, 0j])
        with pytest.raises((DegenerateEvidenceError, FloatingPointError)):
            input_posterior(t, UNQUANTIZED, C2, y)

    def test_mixtures_raise_on_impossible_observation(self):
        t = Task(h=np.eye(2, dtype=complex) * 1e-3, sigma2=1e-300)
        y = np.array([1e200 + 0j, 0j])
        ctx = empty_context(2, 2)
        prior = ChannelPrior.discrete(np.stack([t.h, 2 * t.h]))
        with pytest.raises(DegenerateEvidenceError):
            bayes_mmse_discrete(prior, t.sigma2, UNQUANTIZED, C2, ctx, y)
        with pytest.raises(DegenerateEvidenceError):
            bayes_mmse_continuous_mc(t.sigma2, UNQUANTIZED, C2, ctx, y, 16, RngStream(39))

    def test_mixtures_raise_on_impossible_pilots(self):
        t = Task(h=np.eye(2, dtype=complex) * 1e-3, sigma2=1e-300)
        ctx = ContextSet(xs=C2.joint[:1], ys=np.array([[1e200 + 0j, 0j]]))
        y = np.zeros(2, dtype=complex)
        prior = ChannelPrior.discrete(np.stack([t.h, 2 * t.h]))
        with pytest.raises(DegenerateEvidenceError, match="pilots"):
            bayes_mmse_discrete(prior, t.sigma2, UNQUANTIZED, C2, ctx, y)
        with pytest.raises(DegenerateEvidenceError, match="pilots"):
            bayes_mmse_continuous_mc(t.sigma2, UNQUANTIZED, C2, ctx, y, 16, RngStream(40))
