import itertools
import sys
import threading

from fractions import Fraction

import numpy as np
import pytest

from icleq import channel, numerics
from icleq.channel import (
    ContextSet,
    Quantizer,
    Task,
    TaskDistributionSpec,
    cell_bounds,
    log_likelihood,
    observation_cells,
    qam4_constellation,
    quantize,
    sample_pairs,
    sample_task,
)
from icleq.estimators import _joint_input_posterior
from icleq.numerics import logsumexp
from icleq.rng import RngStream


def joint_index(c, xs):
    """Index into ``c.joint`` of every input vector in xs (..., n_t); each
    must equal exactly one joint input."""
    hits = np.all(xs[..., None, :] == c.joint, axis=-1)
    assert np.all(hits.sum(axis=-1) == 1)
    return np.argmax(hits, axis=-1)


class TestSampleTask:
    def test_degenerate_db_range_pins_sigma2(self):
        spec = TaskDistributionSpec(2, 2, -10.0, -10.0)
        rng = RngStream(11)
        for i in range(20):
            t = sample_task(spec, rng.derive(i))
            assert abs(t.sigma2 - 0.1) < 1e-12

    def test_channel_second_moment(self):
        spec = TaskDistributionSpec(2, 2, 0.0, 0.0)
        rng = RngStream(12)
        h2 = np.array(
            [np.abs(sample_task(spec, rng.derive(i)).h) ** 2 for i in range(100_000)]
        )
        assert abs(h2.mean() - 1.0) < 0.02

    def test_distinct_streams_distinct_channels(self):
        spec = TaskDistributionSpec(2, 2, -10.0, 0.0)
        rng = RngStream(13)
        a = sample_task(spec, rng.derive(0))
        b = sample_task(spec, rng.derive(1))
        assert not np.allclose(a.h, b.h)


class TestQuantizer:
    def test_midrise_4bit(self):
        q = Quantizer(bits=4)
        idx, val = quantize(q, 0.1)
        assert (idx, val) == (8, 0.25)

    def test_saturation(self):
        q = Quantizer(bits=4)
        idx, val = quantize(q, 100.0)
        assert (idx, val) == (15, 3.75)

    def test_one_bit(self):
        q = Quantizer(bits=1)
        idx, val = quantize(q, -0.3)
        assert (idx, val) == (0, -2.0)

    def test_unquantized_passthrough(self):
        idx, val = quantize(Quantizer(bits=None), 1.2345)
        assert idx == -1 and val == 1.2345

    def test_cell_bounds_examples(self):
        assert cell_bounds(Quantizer(bits=1), 0) == (-np.inf, 0.0)
        assert cell_bounds(Quantizer(bits=4), 8) == (0.0, 0.5)
        assert cell_bounds(Quantizer(bits=2), 3) == (2.0, np.inf)

    def test_cell_bounds_out_of_range(self):
        with pytest.raises(ValueError):
            cell_bounds(Quantizer(bits=2), 4)

    @pytest.mark.parametrize(
        "bits, message",
        [(0, "bits must be >= 1, got 0"), (53, "bits must be <= 52, got 53"),
         (64, "bits must be <= 52, got 64")],
    )
    def test_resolution_out_of_range_rejected(self, bits, message):
        with pytest.raises(ValueError, match=message):
            Quantizer(bits=bits)

    def test_finest_resolution_round_trips(self):
        """At 52 bits every value lands in its cell, and its level quantizes
        back to the same cell."""
        q = Quantizer(bits=52)
        v = RngStream(15).uniform(-5, 5, size=10_000)
        idx, val = quantize(q, v)
        lo, hi = cell_bounds(q, idx)
        assert np.all((lo <= v) & (v < hi))
        assert np.all((lo <= val) & (val < hi))
        assert np.array_equal(quantize(q, val)[0], idx)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_cells_tile_the_line(self, bits):
        q = Quantizer(bits=bits)
        bounds = [cell_bounds(q, k) for k in range(q.n_levels)]
        assert bounds[0][0] == -np.inf and bounds[-1][1] == np.inf
        for (lo_a, hi_a), (lo_b, hi_b) in zip(bounds, bounds[1:]):
            assert hi_a == lo_b
            assert lo_a < hi_a

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_quantize_lands_in_own_cell(self, bits):
        q = Quantizer(bits=bits)
        v = RngStream(14, bits).uniform(-10, 10, size=100_000)
        idx, _ = quantize(q, v)
        for k in range(q.n_levels):
            lo, hi = cell_bounds(q, k)
            sel = v[idx == k]
            assert np.all(sel >= lo) and np.all(sel < hi)


class TestQuarterTurnSymmetry:
    """The grid is symmetric about 0 and the pilot means turn with their
    input exactly, the two facts that let the Bayesian references evaluate
    a pilot's likelihood on its canonical 4-QAM input."""

    @pytest.mark.parametrize("bits", [1, 4, 16, channel.MAX_BITS])
    def test_mirrored_level_has_mirrored_cell(self, bits):
        q = Quantizer(bits=bits)
        n = q.n_levels
        i = np.unique(np.concatenate([[0, 1, n // 2 - 1, n // 2, n - 2, n - 1],
                                      RngStream(16, bits).integers(0, n, size=1000)]))
        lo, hi = cell_bounds(q, i)
        mlo, mhi = cell_bounds(q, n - 1 - i)
        assert np.array_equal(mlo, -hi) and np.array_equal(mhi, -lo)
        # the negated output level is the mirrored level
        level = channel.RANGE_LO + q.step * (i + 0.5)
        idx, val = quantize(q, -level)
        assert np.array_equal(idx, n - 1 - i) and np.array_equal(val, -level)

    @pytest.mark.parametrize("n_t", [1, 2, 3])
    def test_pilot_means_turn_with_the_input(self, n_t):
        """The means of j^k x are those of x turned by j^k, bit for bit, for
        any symbol values: j (re, im) = (-im, re), by exact sign flips."""
        from icleq.estimators import _pilot_means

        rng = RngStream(17, n_t)
        channels = rng.complex_normal((500, 2, n_t))
        xs = np.concatenate([qam4_constellation(n_t).joint, rng.complex_normal((16, n_t))])
        means = _pilot_means(channels, xs)  # (N, [re, im], M)
        re, im = means[:, :2], means[:, 2:]
        x_re, x_im = xs.real, xs.imag
        for k in (1, 2, 3):
            x_re, x_im = -x_im, x_re  # one more quarter turn
            re, im = -im, re
            turned = np.empty(xs.shape, dtype=complex)
            turned.real, turned.imag = x_re, x_im
            got = _pilot_means(channels, turned)
            assert np.array_equal(got, np.concatenate([re, im], axis=1)), k


class TestConstellation:
    def test_size_and_uniqueness(self):
        c = qam4_constellation(2)
        assert c.joint.shape == (16, 2)
        assert len({tuple(np.round(v, 12)) for v in c.joint}) == 16

    def test_unit_power_exact_rational(self):
        """Average joint energy is exactly 1: check in rational arithmetic.

        Each coordinate is (+-1 +-1j) / sqrt(2 n_t), so every squared
        magnitude is the rational 2 / (2 n_t) and the mean over the joint
        set is n_t * (1 / n_t) = 1 exactly.
        """
        for n_t in (1, 2, 3):
            energy = Fraction(0)
            for signs in itertools.product([1, -1], repeat=2 * n_t):
                for a in range(n_t):
                    re, im = signs[2 * a], signs[2 * a + 1]
                    energy += Fraction(re * re + im * im, 2 * n_t)
            assert energy / (4**n_t) == 1
            c = qam4_constellation(n_t)
            got = np.mean(np.sum(np.abs(c.joint) ** 2, axis=1))
            assert abs(got - 1.0) < 1e-15

    def test_lexicographic_order(self):
        c = qam4_constellation(2)
        s = c.per_antenna
        # antenna 0 is the most significant digit
        np.testing.assert_allclose(c.joint[0], [s[0], s[0]])
        np.testing.assert_allclose(c.joint[1], [s[0], s[1]])
        np.testing.assert_allclose(c.joint[4], [s[1], s[0]])
        np.testing.assert_allclose(c.joint[15], [s[3], s[3]])

    def test_per_antenna_sign_convention(self):
        c = qam4_constellation(2)
        signs = np.sign(np.stack([c.per_antenna.real, c.per_antenna.imag], axis=1))
        np.testing.assert_array_equal(signs, [[1, 1], [1, -1], [-1, 1], [-1, -1]])


class TestApplyChannel:
    def _task(self, sigma2=0.1):
        h = RngStream(15).complex_normal((2, 2))
        return Task(h=h, sigma2=sigma2)

    def test_noiseless_unquantized_limit(self):
        t = self._task(sigma2=1e-30)
        c = qam4_constellation(2)
        xs, ys = sample_pairs(t.h, t.sigma2, Quantizer(bits=None), c, 16, RngStream(16))
        np.testing.assert_allclose(ys, xs @ t.h.T, atol=1e-12)

    def test_noise_power(self):
        t = self._task(sigma2=0.25)
        c = qam4_constellation(2)
        _, ys = sample_pairs(t.h, t.sigma2, Quantizer(bits=None), c, 200, RngStream(17))
        xs, big = sample_pairs(t.h, t.sigma2, Quantizer(bits=None), c, 100_000, RngStream(18))
        err = big - xs @ t.h.T
        power = np.mean(np.sum(np.abs(err) ** 2, axis=1))
        assert abs(power - t.n_r * t.sigma2) < 0.02 * t.n_r * t.sigma2
        assert ys.shape == (200, 2)

    def test_quantized_outputs_on_grid(self):
        t = self._task()
        c = qam4_constellation(2)
        q = Quantizer(bits=4)
        levels = q.levels()
        _, ys = sample_pairs(t.h, t.sigma2, q, c, 50, RngStream(19))
        for v in np.concatenate([ys.real, ys.imag]).ravel():
            assert np.min(np.abs(levels - v)) < 1e-12

    def test_stacked_channels_get_their_own_noise_power(self):
        """A (B, n_r, n_t) stack with one noise power per channel."""
        c = qam4_constellation(2)
        hs = RngStream(20).complex_normal((3, 2, 2))
        s2 = np.array([0.1, 1.0, 10.0])
        xs, ys = sample_pairs(hs, s2, Quantizer(bits=None), c, 4000, RngStream(21))
        idx = joint_index(c, xs)
        assert xs.shape == (3, 4000, 2) and ys.shape == (3, 4000, 2) and idx.shape == (3, 4000)
        np.testing.assert_array_equal(xs, c.joint[idx])
        err = ys - np.einsum("brt,bnt->bnr", hs, xs)
        power = np.mean(np.sum(np.abs(err) ** 2, axis=2), axis=1)
        np.testing.assert_allclose(power, 2 * s2, rtol=0.1)

    @pytest.mark.parametrize("bits", [None, 4])
    @pytest.mark.parametrize(
        "sigma2", [-0.1, np.nan, np.inf, np.array([0.1, -0.1, 1.0])],
        ids=["-0.1", "nan", "inf", "one_negative_entry"],
    )
    def test_noise_power_off_range_rejected(self, bits, sigma2):
        """A negative, NaN or infinite noise power, also one entry of a
        per-channel array, raises ValueError naming it; it once gave NaN or
        saturated observations."""
        hs = RngStream(22).complex_normal((3, 2, 2))
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0, got"):
            sample_pairs(hs, sigma2, Quantizer(bits=bits), qam4_constellation(2), 3, RngStream(23))


class TestLogLikelihood:
    def test_total_probability_enumeration(self):
        """Sum over every possible quantized observation equals 1."""
        c = qam4_constellation(2)
        rng = RngStream(20)
        for bits in (1, 2):
            q = Quantizer(bits=bits)
            t = sample_task(TaskDistributionSpec(2, 2, -10, -10), rng.derive(bits))
            x = c.joint[int(rng.derive(bits, 1).integers(0, 16))]
            lv = q.levels()
            grids = np.meshgrid(*([lv] * 4), indexing="ij")
            flat = [g.ravel() for g in grids]
            ys = np.stack([flat[0] + 1j * flat[1], flat[2] + 1j * flat[3]], axis=1)
            ll = np.array([log_likelihood(t, q, x, y) for y in ys])
            assert abs(np.exp(logsumexp(ll)) - 1.0) < 1e-9

    def test_unquantized_density_peak(self):
        c = qam4_constellation(2)
        t = Task(h=RngStream(21).complex_normal((2, 2)), sigma2=0.2)
        x = c.joint[7]
        got = log_likelihood(t, Quantizer(bits=None), x, t.h @ x)
        want = 2 * t.n_r * np.log(1.0 / np.sqrt(np.pi * t.sigma2))
        assert abs(got - want) < 1e-12

    def test_one_bit_sign_flip_symmetry(self):
        c = qam4_constellation(2)
        q = Quantizer(bits=1)
        t = Task(h=RngStream(22).complex_normal((2, 2)), sigma2=0.3)
        xs, ys = sample_pairs(t.h, t.sigma2, q, c, 1, RngStream(23))
        x, y = xs[0], ys[0]
        assert abs(log_likelihood(t, q, x, y) - log_likelihood(t, q, -x, -y)) < 1e-12

    def test_off_grid_observation_rejected(self):
        c = qam4_constellation(2)
        q = Quantizer(bits=2)
        t = Task(h=np.eye(2, dtype=complex), sigma2=0.1)
        with pytest.raises(ValueError):
            log_likelihood(t, q, c.joint[0], np.array([0.17 + 1j, 1 + 1j]))

    def test_quantized_converges_to_density_at_fine_resolution(self):
        """At b = 10 the cell mass approaches density * cell volume."""
        c = qam4_constellation(2)
        q = Quantizer(bits=10)
        t = Task(h=RngStream(24).complex_normal((2, 2)), sigma2=0.5)
        xs, ys = sample_pairs(t.h, t.sigma2, q, c, 20, RngStream(25))
        for x, y in zip(xs, ys):
            lq = log_likelihood(t, q, x, y)
            lu = log_likelihood(t, Quantizer(bits=None), x, y)
            want = lu + 2 * t.n_r * np.log(q.step)
            assert abs(lq - want) < 1e-3 * abs(want)


class TestObservationCells:
    @pytest.mark.parametrize("bits", [32, 40, channel.MAX_BITS])
    def test_off_grid_value_rejected_at_fine_resolution(self, bits):
        """Half a step is below 1e-9 from 32 bits on: only an exact match
        with a level is accepted."""
        with pytest.raises(ValueError, match="not on a quantizer output level"):
            observation_cells(Quantizer(bits=bits), [0.1234567 + 0.7654321j])

    @pytest.mark.parametrize("bits", [1, 4, channel.MAX_BITS])
    def test_every_sampled_output_accepted(self, bits):
        """Every output of the sampler, saturated ones included, lies in
        the cell it names."""
        q = Quantizer(bits=bits)
        hs = RngStream(188).complex_normal((3, 2, 2))
        _, ys = sample_pairs(hs, np.array([1e-4, 0.1, 30.0]), q, qam4_constellation(2), 500,
                             RngStream(189))
        lo, hi = observation_cells(q, ys)
        y_ri = np.concatenate([ys.real, ys.imag], axis=-1)
        assert lo.shape == hi.shape == (3, 500, 4)
        assert np.all((lo <= y_ri) & (y_ri < hi))
        assert np.isneginf(lo).any() and np.isposinf(hi).any()


def cell_inputs(lo_shape, means_shape, rng):
    """Test observations of uniformly drawn 2-bit levels (half of them
    extreme, with an infinite bound) against wide-spread channels, so that
    some cells sit far in a tail.

    ``lo_shape`` is the shape of the observations' cells (..., 2 n_r) and
    ``means_shape`` that of the stack's realified means (M, 4^n_t, 2 n_r).
    Returns the channels, their uniform log weights and the observations.
    """
    m, c, d = means_shape
    n_t = int(np.log2(c)) // 2
    lo, _ = cell_bounds(Quantizer(bits=2), rng.integers(0, 4, size=lo_shape))
    ri = np.where(np.isneginf(lo), -3.0, lo + 1.0)  # the level of each cell
    channels = 6.0 * rng.complex_normal((m, d // 2, n_t))
    return channels, np.full(m, -np.log(m)), ri[..., : d // 2] + 1j * ri[..., d // 2 :]


class TestCellSplit:
    """The cell likelihood of test observations against a channel stack,
    walked in blocks split over the cores, is bit-identical to one unsplit
    call, for any number of cores and blocks."""

    # one observation (4,) or a stack of S (S, 4) against M channels with
    # 4 or 16 joint inputs; 48, 64 and 144 cells are below, at and across a
    # block of 64
    LAYOUTS = [
        ((4,), (3, 4, 4)),
        ((4,), (4, 4, 4)),
        ((4,), (9, 4, 4)),
        ((1, 4), (3, 16, 4)),
        ((2, 4), (2, 16, 4)),
        ((3, 4), (3, 16, 4)),
    ]

    @staticmethod
    def posterior(channels, log_w, y):
        return _joint_input_posterior(
            channels, log_w, 0.1, Quantizer(bits=2), qam4_constellation(channels.shape[2]), y
        )

    @pytest.mark.parametrize("cores", [1, 2, 5])
    @pytest.mark.parametrize("lo_shape, means_shape", LAYOUTS)
    def test_bit_identical_to_unsplit(self, monkeypatch, cores, lo_shape, means_shape):
        channels, log_w, y = cell_inputs(lo_shape, means_shape, RngStream(184))
        want = self.posterior(channels, log_w, y)
        assert np.all(np.isfinite(want))  # finite far into the tails
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        monkeypatch.setattr(numerics, "_BLOCK", 64)
        assert np.array_equal(self.posterior(channels, log_w, y), want)

    def test_default_block_size(self, monkeypatch):
        """64 test observations of 32 channels span two default blocks."""
        channels, log_w, y = cell_inputs((64, 4), (32, 16, 4), RngStream(187))
        assert 32 * 64 * 16 * 4 == 2 * numerics._BLOCK
        monkeypatch.setattr(numerics, "_N_CORES", 1)
        want = self.posterior(channels, log_w, y)
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        assert np.array_equal(self.posterior(channels, log_w, y), want)

    def test_concurrent_callers(self, monkeypatch):
        """Callers on several threads share the worker pool; each gets its
        own exact result."""
        inputs = [cell_inputs((2, 4), (3, 16, 4), RngStream(188, i)) for i in range(6)]
        want = [self.posterior(*args) for args in inputs]
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        monkeypatch.setattr(numerics, "_BLOCK", 64)
        bad = []

        def call(i):
            for _ in range(20):
                if not np.array_equal(self.posterior(*inputs[i]), want[i]):
                    bad.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


def pilots(t, q, c, n, rng):
    return ContextSet(*sample_pairs(t.h, t.sigma2, q, c, n, rng))


class TestSampleContext:
    def _setup(self):
        c = qam4_constellation(2)
        t = Task(h=RngStream(26).complex_normal((2, 2)), sigma2=0.1)
        return c, t

    def test_empty(self):
        c, t = self._setup()
        ctx = pilots(t, Quantizer(bits=None), c, 0, RngStream(27))
        assert len(ctx) == 0

    def test_paper_context_length_and_uniform_marginal(self):
        c, t = self._setup()
        ctx = pilots(t, Quantizer(bits=4), c, 20, RngStream(28))
        assert len(ctx) == 20
        big = pilots(t, Quantizer(bits=4), c, 100_000, RngStream(29))
        counts = np.bincount(joint_index(c, big.xs), minlength=16)
        expected = len(big) / 16
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # chi-square with 15 dof: 99.9th percentile ~ 37.7
        assert chi2 < 37.7

    def test_determinism(self):
        c, t = self._setup()
        a = pilots(t, Quantizer(bits=3), c, 10, RngStream(30, 5))
        b = pilots(t, Quantizer(bits=3), c, 10, RngStream(30, 5))
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)
