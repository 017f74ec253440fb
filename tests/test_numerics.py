import json
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf, log_ndtr
from scipy.special import logsumexp as scipy_logsumexp

from icleq import numerics
from icleq.channel import Constellation, Quantizer, qam4_constellation, sample_pairs
from icleq.numerics import (
    _log_cell_prob_std,
    _logdiffexp,
    hermitian,
    logsumexp,
    solve_hpd,
)
from icleq.rng import RngStream

# Frozen oracle values, computed with mpmath at 60 significant digits:
#   Phi(1.96)                 = 0.97500210485177956586
#   log(Phi(9) - Phi(8))      = -35.013618593437148117
#   log(Phi(31) - Phi(30))    = -454.32124395634325204
#   log(Phi(37.8)-Phi(37.5))  = -707.66900165397526425   (prob ~ 4.6e-308)
PHI_196 = 0.97500210485177956586
LOG_CELL_8_9 = -35.013618593437148117
LOG_CELL_30_31 = -454.32124395634325204
LOG_CELL_NEAR_UNDERFLOW = -707.66900165397526425


def noiseless(h, constellation, n, seed):
    """Noiseless unquantized channel uses: ys is exactly the product H x."""
    return sample_pairs(h, 0.0, Quantizer(bits=None), constellation, n, RngStream(seed))


class TestComplexLinalg:
    """The complex channel product inside :func:`sample_pairs`."""

    def test_identity_product(self):
        xs, ys = noiseless(np.eye(2), qam4_constellation(2), 8, 0)
        np.testing.assert_array_equal(ys, xs)

    def test_i_squared(self):
        one_j = Constellation(n_t=1, per_antenna=np.array([1j]), joint=np.array([[1j]]))
        _, ys = noiseless(np.array([[1j]]), one_j, 1, 0)
        np.testing.assert_allclose(ys, [[-1.0 + 0j]])

    def test_random_pair_matches_triple_loop(self):
        """One channel and a stack of channels, against an explicit loop."""
        rng = RngStream(1)
        c = qam4_constellation(2)
        for shape in ((2, 2), (3, 2, 2)):
            h = rng.complex_normal(size=shape)
            xs, ys = noiseless(h, c, 5, 2)
            ref = np.zeros(ys.shape, dtype=complex)
            for *lead, i, r in np.ndindex(ys.shape):
                for k in range(2):
                    ref[(*lead, i, r)] += h[(*lead, r, k)] * xs[(*lead, i, k)]
            np.testing.assert_allclose(ys, ref, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            noiseless(np.zeros((2, 3)), qam4_constellation(2), 4, 0)

    def test_hermitian_real_diagonal(self):
        d = np.diag([1.0, 2.0]).astype(complex)
        np.testing.assert_array_equal(hermitian(d), d)

    def test_hermitian_conjugates(self):
        np.testing.assert_array_equal(hermitian(np.array([[1j]])), np.array([[-1j]]))

    def test_hermitian_involution(self):
        a = RngStream(2).complex_normal(size=(3, 2))
        np.testing.assert_array_equal(hermitian(hermitian(a)), a)


class TestSolveHpd:
    def test_identity(self):
        b = RngStream(3).complex_normal(size=(3, 2))
        np.testing.assert_allclose(solve_hpd(np.eye(3), b), b)

    def test_scaled_identity(self):
        np.testing.assert_allclose(solve_hpd(2 * np.eye(2), np.eye(2)), 0.5 * np.eye(2))

    def test_random_hpd_residual(self):
        rng = RngStream(4)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            g = rng.complex_normal(size=(n, n))
            a = g @ g.conj().T + n * np.eye(n)
            b = rng.complex_normal(size=(n, 2))
            x = solve_hpd(a, b)
            res = np.linalg.norm(a @ x - b)
            bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert res <= bound

    def test_residual_bound_many_systems(self):
        """Residual contract over 1000 random HPD systems of size <= 8."""
        rng = RngStream(5)
        for trial in range(1000):
            n = int(rng.integers(1, 9))
            g = rng.complex_normal(size=(n, n))
            a = g @ g.conj().T + 0.1 * np.eye(n)
            b = rng.complex_normal(size=(n, 1))
            x = solve_hpd(a, b)
            res = np.linalg.norm(a @ x - b)
            bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert res <= bound, f"trial {trial}"

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))


def cells(a, b):
    """The kernel on cells of their own bounds ``(a, b)``: the two
    broadcast bound arrays stacked as bound rows 0 and 1."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return _log_cell_prob_std(np.stack([a, b]), 0, 1)


def normal_cdf(x):
    """Standard normal CDF as the mass of the cell (-inf, x]."""
    return np.exp(cells(-np.inf, x))


class TestGaussCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_reflection_identity(self):
        x = np.linspace(-10, 10, 2001)
        np.testing.assert_allclose(normal_cdf(-x) + normal_cdf(x), 1.0, atol=1e-14)

    def test_against_mpmath_value(self):
        assert abs(normal_cdf(1.96) - PHI_196) <= 1e-14

    def test_monotone_on_dense_grid(self):
        x = np.linspace(-12, 12, 50_001)
        assert np.all(np.diff(normal_cdf(x)) >= 0)


class TestLogGaussCellProb:
    """The cell kernel on standardized bounds (bound - mean) / std."""

    def test_total_probability(self):
        assert cells(-np.inf, np.inf) == 0.0

    def test_median_cell(self):
        assert abs(cells(-np.inf, 0.0) - np.log(0.5)) < 1e-15

    def test_far_tail_against_oracle(self):
        got = cells(8.0, 9.0)
        assert abs(got - LOG_CELL_8_9) <= 1e-8 * abs(LOG_CELL_8_9)

    def test_very_far_tail(self):
        got = cells(30.0, 31.0)
        assert abs(got - LOG_CELL_30_31) <= 1e-8 * abs(LOG_CELL_30_31)

    def test_near_underflow_stays_finite(self):
        got = cells(37.5, 37.8)
        assert np.isfinite(got)
        assert abs(got - LOG_CELL_NEAR_UNDERFLOW) <= 1e-8 * abs(LOG_CELL_NEAR_UNDERFLOW)

    def test_left_tail_mirrors_right(self):
        r = cells(8.0, 9.0)
        l = cells(-9.0, -8.0)
        assert abs(r - l) < 1e-12 * abs(r)

    def test_adjacent_cells_sum_to_union(self):
        rng = RngStream(6)
        for _ in range(200):
            mean = rng.uniform(-3, 3)
            std = rng.uniform(0.1, 2.0)
            lo = rng.uniform(-6, 5)
            mid = lo + rng.uniform(1e-3, 2.0)
            hi = mid + rng.uniform(1e-3, 2.0)
            lo, mid, hi = ((v - mean) / std for v in (lo, mid, hi))
            a = cells(lo, mid)
            b = cells(mid, hi)
            u = cells(lo, hi)
            assert abs(np.exp(a) + np.exp(b) - np.exp(u)) <= 1e-12

    def test_infinite_bounds_stay_legal(self):
        got = cells([-np.inf, 0.0], [0.0, np.inf])
        np.testing.assert_array_equal(got, [np.log(0.5), np.log(0.5)])


def masked_log_cell_prob_std(a, b):
    """The cell kernel as it was before the reflection: same-side cells
    gathered by two boolean masks, right cells through upper-tail log-CDFs;
    the reflected kernel's oracle."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.empty(a.shape, dtype=float)
    right = a >= 0.0
    left = b <= 0.0
    mid = ~(right | left)
    if np.any(right):
        out[right] = _logdiffexp(log_ndtr(-a[right]), log_ndtr(-b[right]))
    if np.any(left):
        out[left] = _logdiffexp(log_ndtr(b[left]), log_ndtr(a[left]))
    if np.any(mid):
        am, bm = a[mid], b[mid]
        out[mid] = np.log(0.5 * (erf(bm / np.sqrt(2.0)) - erf(am / np.sqrt(2.0))))
    return out


def edge_cells():
    """Every ordered pair of edge bounds (+-inf, +-0.0, tails beyond +-38,
    tiny magnitudes), plus cells 1e-300 wide at and around zero and one ulp
    wide in the far tails."""
    edges = [
        -np.inf, -1e300, -40.0, -38.5, -37.5, -9.0, -1.0, -1e-300, -0.0,
        0.0, 1e-300, 1.0, 9.0, 37.5, 38.5, 40.0, 1e300, np.inf,
    ]
    pairs = [(lo, hi) for lo in edges for hi in edges if lo < hi]
    pairs += [(-0.0, 1e-300), (0.0, 1e-300), (-1e-300, 0.0), (-1e-300, -0.0),
              (-1e-300, 1e-300), (-5e-301, 5e-301), (2e-300, 3e-300), (-3e-300, -2e-300)]
    pairs += [(x, np.nextafter(x, np.inf)) for x in (-39.0, -38.0, 38.0, 39.0)]
    lo, hi = np.array(pairs).T
    return lo, hi


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {(w.category, str(w.message)) for w in caught}


class TestReflectedCellKernel:
    """The kernel on shared bound rows equals the masked one bit for bit
    and warns about nothing the masked one does not."""

    def test_shared_bound_rows(self):
        """Cells that share bound rows, as adjacent quantizer cells do, get
        the values of their own two bounds, whatever the shape of the
        cells' index arrays."""
        rng = RngStream(11)
        bounds = np.concatenate([[-np.inf], np.sort(rng.uniform(-4, 4, size=9)), [np.inf]])
        means = np.concatenate([rng.uniform(-5, 5, size=200), bounds[1:-1], [0.0, -0.0]])
        z = (bounds[:, None] - means) / 0.3  # means on a bound give z = 0
        lo = np.array([0, 1, 2, 2, 5, 9, 0, 3])
        hi = np.array([1, 2, 3, 4, 6, 10, 10, 9])
        got, warned = recorded(_log_cell_prob_std, z, lo, hi)
        want, want_warned = recorded(masked_log_cell_prob_std, z[lo], z[hi])
        assert np.array_equal(got, want)
        assert warned <= want_warned
        got = _log_cell_prob_std(z, lo.reshape(2, 4), hi.reshape(2, 4))
        assert np.array_equal(got, want.reshape(2, 4, -1))

    def test_random_bounds(self):
        rng = RngStream(8)
        centre = 20.0 * rng.normal(size=(50, 40))
        width = 10.0 ** rng.uniform(-3, 1, size=centre.shape)
        a, b = centre - width, centre + width
        got, _ = recorded(cells, a, b)
        assert got.shape == a.shape
        assert np.array_equal(got, masked_log_cell_prob_std(a, b))

    def test_edge_cases(self):
        a, b = edge_cells()
        want, want_warned = recorded(masked_log_cell_prob_std, a, b)
        got, got_warned = recorded(cells, a, b)
        assert np.array_equal(got, want)
        assert got_warned <= want_warned
        assert np.isneginf(want).any()  # underflowing cells are among the cases

    def test_straddling_cells_emit_no_warning(self):
        """The discarded log-CDF difference of a straddling cell 1e-300 wide
        divides by zero; the kernel must not warn about it."""
        a, b = np.array([-1e-300, -5e-301]), np.array([1e-300, 5e-301])
        got, warned = recorded(cells, a, b)
        assert warned == set()
        assert np.array_equal(got, masked_log_cell_prob_std(a, b))

    def test_scalar_and_broadcast_bounds(self):
        assert np.array_equal(cells(-1.0, 2.0), masked_log_cell_prob_std(-1.0, 2.0))
        b = np.array([[0.5, 3.0], [-0.0, np.inf]])
        assert np.array_equal(cells(-np.inf, b), masked_log_cell_prob_std(-np.inf, b))
        a = np.asfortranarray(np.array([[-2.0, 1.0, 0.5], [-0.1, 3.0, -4.0]]))
        assert np.array_equal(cells(a, a + 1.0), masked_log_cell_prob_std(a, a + 1.0))


class TestMirroredCells:
    """The kernel gives a cell mirrored about the mean, (-b, -a), exactly the
    value of (a, b): the quantized likelihood of a quarter-turned pilot
    rests on it."""

    @pytest.mark.parametrize(
        "side", ["left", "right", "straddling", "infinite", "zero", "tail", "edge"]
    )
    def test_each_kind_of_cell(self, side):
        rng = RngStream(10)
        x = rng.uniform(0.0, 6.0, size=(2, 2000))
        lo, hi = np.sort(x, axis=0)
        a, b = {
            "left": (-hi, -lo),
            "right": (lo, hi),
            "straddling": (-lo, hi),
            "infinite": (np.full_like(lo, -np.inf), np.concatenate([-lo[:1000], lo[1000:]])),
            "zero": (np.concatenate([-lo[:1000], np.zeros(1000)]),
                     np.concatenate([np.zeros(1000), hi[1000:]])),
            "tail": (30.0 + lo, 30.0 + hi),
            "edge": edge_cells(),
        }[side]
        assert np.array_equal(cells(-b, -a), cells(a, b))


def overwriting_log_cell_prob_std(a, b):
    """The cell kernel as it was before the bounds were shared: each cell
    right of the mean reflected to (-b, -a), log-CDFs for every cell, then
    the straddling cells overwritten by the erf difference."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    right = a >= 0.0
    u = np.where(right, -b, a)
    v = np.where(right, -a, b)
    with np.errstate(divide="ignore"):
        out = np.asarray(_logdiffexp(log_ndtr(v), log_ndtr(u)))
    mid = np.flatnonzero(v > 0.0)
    if mid.size:
        s = 0.5 * (erf(np.take(v, mid) / np.sqrt(2.0)) - erf(np.take(u, mid) / np.sqrt(2.0)))
        np.put(out, mid, np.log(s))
    return out


class TestCellKernelSubsets:
    """The max/min pair of each cell's ``log_ndtr(-|z|)`` values equals the
    reflection's pair, so the kernel equals the reflected kernel that
    overwrites the straddling cells, bit for bit and without a warning the
    reflected kernel does not give."""

    @staticmethod
    def check(a, b):
        want, want_warned = recorded(overwriting_log_cell_prob_std, a, b)
        got, got_warned = recorded(cells, a, b)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got_warned <= want_warned

    @pytest.mark.parametrize("kind", ["straddling", "same-side", "mixed"])
    def test_random_cells(self, kind):
        rng = RngStream(9)
        width = 10.0 ** rng.uniform(-6, 1, size=(30, 40))
        if kind == "straddling":
            a = -width * rng.uniform(0.01, 0.99, size=width.shape)
        elif kind == "same-side":
            offset = 30.0 * np.abs(rng.normal(size=width.shape))
            a = np.where(rng.uniform(size=width.shape) < 0.5, -offset - width, offset)
        else:
            a = 5.0 * rng.normal(size=width.shape) - width / 2
        b = a + width
        straddles = (a < 0.0) & (b > 0.0)
        assert {"straddling": straddles.all(), "same-side": not straddles.any(),
                "mixed": 0 < straddles.sum() < straddles.size}[kind]
        self.check(a, b)

    def test_infinite_signed_zero_and_zero_bounds(self):
        self.check(*edge_cells())
        lo = np.array([-np.inf, -np.inf, -0.0, 0.0, -1.0, -0.0, 0.0, -np.inf, -2.0])
        hi = np.array([0.0, -0.0, np.inf, np.inf, 0.0, 1.0, 1.0, np.inf, -0.0])
        self.check(lo, hi)
        self.check(lo[:4], hi[:4])  # no cell straddles

    def test_nan_bounds_give_nan(self):
        a = np.array([-1.0, np.nan, 0.5, -1.0, np.nan, -2.0])
        b = np.array([1.0, 1.0, np.nan, np.nan, np.nan, -1.0])
        got = cells(a, b)
        assert np.array_equal(got, overwriting_log_cell_prob_std(a, b), equal_nan=True)
        assert np.isnan(got[1:5]).all()

    @pytest.mark.parametrize("a, b", [(-1.0, 2.0), (0.0, 1.0), (-np.inf, -0.0), (3.0, np.inf)])
    def test_zero_dimensional(self, a, b):
        self.check(np.float64(a), np.float64(b))
        self.check(np.array(a), np.array(b))

    def test_broadcast_bounds(self):
        b = np.array([[0.5, 3.0, -0.0], [-1.0, np.inf, 0.0]])
        self.check(-np.inf, b)
        self.check(np.array([-2.0, -0.5, 0.0])[:, None], np.array([0.25, 1.0, 6.0]))
        a = np.asfortranarray(np.array([[-2.0, 1.0, 0.5], [-0.1, 3.0, -4.0]]))
        self.check(a, a + 1.0)
        self.check(a[:, ::2], (a + 0.3)[:, ::2])


class TestLogSumExp:
    def test_singleton(self):
        assert logsumexp([2.5]) == 2.5

    def test_pair_of_zeros(self):
        assert abs(logsumexp([0.0, 0.0]) - np.log(2.0)) < 1e-15

    def test_no_underflow(self):
        assert abs(logsumexp([-1000.0, -1000.0]) - (-1000.0 + np.log(2.0))) < 1e-12

    def test_shift_invariance(self):
        rng = RngStream(7)
        v = rng.normal(size=50)
        base = logsumexp(v)
        for shift in (1.0, -17.5, 1e3, -1e3):
            got = logsumexp(v + shift)
            assert abs(got - (base + shift)) <= 2 * np.spacing(abs(base) + abs(shift))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            logsumexp([])

    @pytest.mark.parametrize("empty", [np.zeros((3, 0)), np.zeros((0, 4))])
    @pytest.mark.parametrize("axis", [None, -1])
    def test_empty_2d_raises(self, empty, axis):
        with pytest.raises(ValueError, match="empty"):
            logsumexp(empty, axis=axis)

    EDGES = ["plain", "ties", "neg_inf", "pos_inf", "nan", "neg_inf_rows", "fortran", "strided"]
    FILLS = {"neg_inf": -np.inf, "pos_inf": np.inf, "nan": np.nan}

    @classmethod
    def inputs(cls, edge):
        """40 seeded 1-D and 2-D inputs over five decades of scale, each
        with the edge case ``edge``."""
        g = np.random.default_rng(31 + cls.EDGES.index(edge))
        for n in range(40):
            shape = tuple(int(k) for k in g.integers(1, 50, 1 + n % 2))
            a = g.normal(size=shape) * 10.0 ** g.uniform(-2, 3)
            if edge == "ties":  # small integers: several entries at the max
                a = np.floor(g.uniform(-3.0, 2.0, shape))
            elif edge in cls.FILLS:
                a[g.random(shape) < 0.2] = cls.FILLS[edge]
            elif edge == "neg_inf_rows":  # whole 2-D rows; every other 1-D input
                a[g.random(shape[0]) < 0.5 if a.ndim == 2 else n % 4 == 0] = -np.inf
            elif edge == "fortran":
                a = np.asfortranarray(a)
            elif edge == "strided":
                a = np.repeat(a, 2, axis=-1)[..., ::2]
            yield a

    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (got, want)

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("axis", [None, -1])
    def test_matches_scipy_bit_for_bit(self, edge, axis):
        """scipy >= 1.15's rounding: the max and its ties out of the sum,
        log1p of the rest's normalized sum, the naive sum where that is not
        finite."""
        for a in self.inputs(edge):
            with np.errstate(all="ignore"):
                want = scipy_logsumexp(a, axis=axis)
            self.assert_same_bits(logsumexp(a, axis=axis), want)

    @pytest.mark.parametrize("v", [2.5, -1e300, 0.0, -np.inf, np.inf, np.nan])
    def test_zero_d_matches_scipy(self, v):
        got = logsumexp(np.float64(v))
        assert type(got) is float
        with np.errstate(all="ignore"):
            self.assert_same_bits(got, scipy_logsumexp(np.float64(v)))


class TestPairwiseSum:
    """Whole-row adds reproduce numpy's own sum of each row of a
    C-contiguous (R, n) array, bit for bit: below 8 terms, through the 8
    accumulators, and across the split into halves above 128 terms."""

    @staticmethod
    def rows(r, n, seed):
        """Entries of either sign over 16 decades, with +-0, +-inf and NaN
        mixed in; in row 0 only zeros of either sign, in row 1 only -0.0."""
        rng = np.random.default_rng([seed, r, n])
        a = 10.0 ** rng.uniform(-8.0, 8.0, size=(r, n)) * rng.choice([-1.0, 1.0], size=(r, n))
        special = rng.uniform(size=(r, n)) < 0.05
        a[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(special.sum()))
        if r > 1:
            a[0] = rng.choice([0.0, -0.0], size=n)
            a[1] = -0.0
        return a

    @pytest.mark.parametrize("r", [1, 3, 1000])
    def test_matches_numpy_row_sums(self, r):
        for n in range(1, 301):
            a = self.rows(r, n, 7)
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, overflow
                want = np.sum(a, axis=-1)
                got = numerics._pairwise_sum(a.T, n)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True), n
            finite = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite])), n

    def test_zero_rows_sum_to_positive_zero(self):
        """numpy starts every sum from +0.0, so no sum of zeros is -0.0."""
        for n in (1, 2, 7, 8, 20, 129):
            got = numerics._pairwise_sum(np.full((n, 4), -0.0), n)
            assert np.array_equal(got, np.zeros(4)) and not np.signbit(got).any()

    def test_terms_from_a_generator_and_rows_left_intact(self):
        """The terms may come lazily; array rows passed in are not written."""
        a = self.rows(5, 150, 8)
        a[np.isnan(a) | np.isinf(a)] = 1.0
        before = a.copy()
        want = np.sum(a, axis=-1)
        for rows in (a.T, (row.copy() for row in a.T)):
            assert np.array_equal(numerics._pairwise_sum(rows, 150), want)
        assert np.array_equal(a, before, equal_nan=True)


class TestLanes:
    @pytest.mark.parametrize("cores", [2, 3, 5])
    @pytest.mark.parametrize("rows", [64, 100, 320])
    def test_cuts_fall_at_multiples_of_the_unit(self, monkeypatch, cores, rows):
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        out, starts = np.empty(rows), []

        def fn(i, j):
            starts.append((i, j - i))
            out[i:j] = np.arange(i, j)

        numerics._lanes(fn, rows, unit=32)
        assert np.array_equal(out, np.arange(rows))
        assert len(starts) == min(cores, rows // 32)
        assert all(i % 32 == 0 and n >= 32 for i, n in starts)

    def test_fewer_than_two_units_run_inline(self, monkeypatch):
        monkeypatch.setattr(numerics, "_N_CORES", 5)
        calls = []
        numerics._lanes(lambda i, j: calls.append((i, j)), 63, unit=32)
        assert calls == [(0, 63)]

    def test_waits_for_every_block_before_raising(self, monkeypatch):
        """The calling thread's block raises at once; the call re-raises
        that first exception only after the worker's block has finished."""
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        caller = threading.get_ident()
        done = threading.Event()
        out = np.zeros(2)

        def fn(i, j):
            if threading.get_ident() == caller:
                raise RuntimeError("first block")
            time.sleep(0.2)
            out[i:j] = 1.0
            done.set()
            raise ValueError("second block")

        with pytest.raises(RuntimeError, match="first block"):
            numerics._lanes(fn, 2)
        assert done.is_set()

    def test_nested_call_runs_inline(self):
        """A split call made from inside a block of another runs inline: on
        two cores the pool's one worker would otherwise wait for a block
        queued behind its own.  Run in a subprocess, so a hang fails by its
        timeout; the result equals the inline one."""
        code = textwrap.dedent(
            """
            import json, sys
            sys.path.insert(0, sys.argv[1])
            import numpy as np
            from icleq import numerics
            numerics._N_CORES = 2
            out = np.zeros((2, 16))
            def outer(i, j):
                for r in range(i, j):
                    def fill(a, b):
                        out[r, a:b] = 16 * r + np.arange(a, b)
                    numerics._lanes(fill, 16)
            numerics._lanes(outer, 2)
            print(json.dumps(out.ravel().tolist()))
            """
        )
        src = str(Path(numerics.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == list(range(32))
