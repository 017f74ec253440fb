import numpy as np
import pytest

from icleq.channel import UNQUANTIZED, Constellation, qam4_constellation, sample_pairs
from icleq.numerics import (
    hermitian,
    log_gauss_cell_prob,
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
    return sample_pairs(h, 0.0, UNQUANTIZED, constellation, n, RngStream(seed))


class TestComplexLinalg:
    """The complex channel product inside :func:`sample_pairs`."""

    def test_identity_product(self):
        xs, ys, _ = noiseless(np.eye(2), qam4_constellation(2), 8, 0)
        np.testing.assert_array_equal(ys, xs)

    def test_i_squared(self):
        one_j = Constellation(n_t=1, per_antenna=np.array([1j]), joint=np.array([[1j]]))
        _, ys, _ = noiseless(np.array([[1j]]), one_j, 1, 0)
        np.testing.assert_allclose(ys, [[-1.0 + 0j]])

    def test_random_pair_matches_triple_loop(self):
        """One channel and a stack of channels, against an explicit loop."""
        rng = RngStream(1)
        c = qam4_constellation(2)
        for shape in ((2, 2), (3, 2, 2)):
            h = rng.complex_normal(size=shape)
            xs, ys, _ = noiseless(h, c, 5, 2)
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


def normal_cdf(x):
    """Standard normal CDF as the mass of the cell (-inf, x]."""
    return np.exp(log_gauss_cell_prob(-np.inf, x, 0.0, 1.0))


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
    def test_total_probability(self):
        assert log_gauss_cell_prob(-np.inf, np.inf, 3.7, 0.2) == 0.0

    def test_median_cell(self):
        assert abs(log_gauss_cell_prob(-np.inf, 1.5, 1.5, 2.0) - np.log(0.5)) < 1e-15

    def test_far_tail_against_oracle(self):
        got = log_gauss_cell_prob(8.0, 9.0, 0.0, 1.0)
        assert abs(got - LOG_CELL_8_9) <= 1e-8 * abs(LOG_CELL_8_9)

    def test_very_far_tail(self):
        got = log_gauss_cell_prob(30.0, 31.0, 0.0, 1.0)
        assert abs(got - LOG_CELL_30_31) <= 1e-8 * abs(LOG_CELL_30_31)

    def test_near_underflow_stays_finite(self):
        got = log_gauss_cell_prob(37.5, 37.8, 0.0, 1.0)
        assert np.isfinite(got)
        assert abs(got - LOG_CELL_NEAR_UNDERFLOW) <= 1e-8 * abs(LOG_CELL_NEAR_UNDERFLOW)

    def test_left_tail_mirrors_right(self):
        r = log_gauss_cell_prob(8.0, 9.0, 0.0, 1.0)
        l = log_gauss_cell_prob(-9.0, -8.0, 0.0, 1.0)
        assert abs(r - l) < 1e-12 * abs(r)

    def test_adjacent_cells_sum_to_union(self):
        rng = RngStream(6)
        for _ in range(200):
            mean = rng.uniform(-3, 3)
            std = rng.uniform(0.1, 2.0)
            lo = rng.uniform(-6, 5)
            mid = lo + rng.uniform(1e-3, 2.0)
            hi = mid + rng.uniform(1e-3, 2.0)
            a = log_gauss_cell_prob(lo, mid, mean, std)
            b = log_gauss_cell_prob(mid, hi, mean, std)
            u = log_gauss_cell_prob(lo, hi, mean, std)
            assert abs(np.exp(a) + np.exp(b) - np.exp(u)) <= 1e-12

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            log_gauss_cell_prob(1.0, 1.0, 0.0, 1.0)


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
