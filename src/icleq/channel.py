"""Quantized MIMO forward model: constellations, tasks, pilot contexts.

A fading task is a pair ``(H, sigma2)``.  The receiver observes
``y = Q_b(H x + z)`` where ``z`` is circularly-symmetric complex Gaussian
noise with per-antenna power ``sigma2`` (each real dimension has variance
``sigma2 / 2``) and ``Q_b`` is a saturating mid-rise uniform quantizer on
``[-4, 4]`` applied separately to in-phase and quadrature components.
``Quantizer(bits=None)`` disables quantization.

The exact observation likelihood under this model is what all Bayesian
reference equalizers are built on: for finite ``b`` the probability of a
received sample is the Gaussian mass of its quantization cell, with the
two extreme cells extending to infinity (the quantizer saturates).
:func:`loglik_means` is its one-call form, quantized or not;
:func:`icleq.estimators._pair_loglik` evaluates the same likelihood for
both receivers over channel stacks in blocks, each distinct cell once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import _log_cell_prob_std
from .rng import RngStream

__all__ = [
    "Quantizer",
    "Constellation",
    "Task",
    "TaskDistributionSpec",
    "ContextSet",
    "sample_task",
    "quantize",
    "cell_bounds",
    "sample_pairs",
    "log_likelihood",
]


# ---------------------------------------------------------------------------
# quantizer
# ---------------------------------------------------------------------------


RANGE_LO = -4.0
RANGE_HI = 4.0
MAX_BITS = 52  # the finest resolution whose levels quantize back to their own cells


@dataclass(frozen=True)
class Quantizer:
    """Mid-rise uniform quantizer with ``2**bits`` levels on
    [RANGE_LO, RANGE_HI], 1 <= bits <= MAX_BITS; ``bits=None`` is a
    pass-through (unquantized receiver)."""

    bits: int | None

    def __post_init__(self):
        bound = self.bits_bound(self.bits)
        if bound is not None:
            raise ValueError(f"bits must be {bound}, got {self.bits}")

    @staticmethod
    def bits_bound(bits: int | None) -> str | None:
        """The bound a resolution breaks (">= 1" or "<= 52"), or None."""
        if bits is None or 1 <= bits <= MAX_BITS:
            return None
        return ">= 1" if bits < 1 else f"<= {MAX_BITS}"

    @property
    def quantized(self) -> bool:
        return self.bits is not None

    @property
    def n_levels(self) -> int:
        if self.bits is None:
            raise ValueError("unquantized: no levels")
        return 1 << self.bits

    @property
    def step(self) -> float:
        return (RANGE_HI - RANGE_LO) / self.n_levels

    def levels(self) -> np.ndarray:
        """All output levels, midpoints of the cells."""
        k = np.arange(self.n_levels)
        return RANGE_LO + self.step * (k + 0.5)


def quantize(q: Quantizer, v):
    """Quantize real value(s): returns ``(level_index, level_value)``.

    Mid-rise rule with saturation: values outside the range clamp to the
    extreme levels.  Unquantized mode returns ``(-1, v)`` unchanged.  A
    quantized NaN raises ValueError.
    """
    v = np.asarray(v, dtype=float)
    if not q.quantized:
        idx = np.full(v.shape, -1, dtype=int)
        if v.ndim == 0:
            return -1, float(v)
        return idx, v.copy()
    if np.any(np.isnan(v)):
        raise ValueError("cannot quantize NaN")
    step = q.step
    idx = np.clip(np.floor((v - RANGE_LO) / step), 0, q.n_levels - 1).astype(int)
    val = RANGE_LO + step * (idx + 0.5)
    if v.ndim == 0:
        return int(idx), float(val)
    return idx, val


def cell_bounds(q: Quantizer, level_index):
    """Quantization cell of a level: ``[lo, hi)``; the extreme cells are
    half-open to -inf / +inf because the quantizer saturates.

    A scalar index gives two floats; an index array gives two arrays of its
    shape.
    """
    if not q.quantized:
        raise ValueError("unquantized: no cells")
    idx = np.asarray(level_index)
    if np.any((idx < 0) | (idx >= q.n_levels)):
        raise ValueError(f"level index {level_index} out of range [0, {q.n_levels})")
    step = q.step
    lo = RANGE_LO + idx * step
    hi = lo + step
    lo = np.where(idx == 0, -np.inf, lo)
    hi = np.where(idx == q.n_levels - 1, np.inf, hi)
    if idx.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


# ---------------------------------------------------------------------------
# constellation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constellation:
    """Per-antenna alphabet and the enumerated joint input set.

    ``joint`` holds all ``len(per_antenna) ** n_t`` input vectors in
    lexicographic order by per-antenna symbol index (antenna 0 is the most
    significant digit).  The fixed order is what the soft classifier head
    and the checkpoints rely on.
    """

    n_t: int
    per_antenna: np.ndarray
    joint: np.ndarray = field(repr=False)

    @property
    def n_joint(self) -> int:
        return self.joint.shape[0]

    def real_joint(self) -> np.ndarray:
        """Joint inputs realified: shape (2 * n_t, n_joint), [Re; Im] rows."""
        return np.concatenate([self.joint.real.T, self.joint.imag.T], axis=0)


def qam4_constellation(n_t: int) -> Constellation:
    """Per-antenna 4-QAM with unit total average power.

    Symbols are ``(+-1 +-1j) / sqrt(2 n_t)`` ordered (+,+), (+,-), (-,+),
    (-,-) in (re, im) sign, so the uniform joint set has E||x||^2 = 1.
    """
    scale = 1.0 / np.sqrt(2.0 * n_t)
    per = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * scale
    m = per.size
    n = m**n_t
    digits = (np.arange(n)[:, None] // (m ** np.arange(n_t - 1, -1, -1))[None, :]) % m
    joint = per[digits]
    mean_energy = float(np.mean(np.sum(np.abs(joint) ** 2, axis=1)))
    assert abs(mean_energy - 1.0) < 1e-12
    return Constellation(n_t=n_t, per_antenna=per, joint=joint)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _noise_power(sigma2) -> float:
    """``sigma2`` as a float; ValueError naming it unless it is finite and > 0."""
    s = float(sigma2)
    if not 0.0 < s < np.inf:  # NaN fails both comparisons
        raise ValueError(f"sigma2 must be finite and > 0, got {sigma2}")
    return s


@dataclass(frozen=True)
class Task:
    """One equalization task: channel matrix plus noise power."""

    h: np.ndarray
    sigma2: float

    def __post_init__(self):
        h = np.ascontiguousarray(self.h, dtype=complex)
        object.__setattr__(self, "h", h)
        if h.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
        if not np.all(np.isfinite(h)):
            raise ValueError("channel matrix must be finite")
        object.__setattr__(self, "sigma2", _noise_power(self.sigma2))

    @property
    def n_r(self) -> int:
        return self.h.shape[0]

    @property
    def n_t(self) -> int:
        return self.h.shape[1]


# widest task noise power in |dB|: every equalizer is finite there (the
# conjugate oracle's 1/sigma2 overflows near -3077 dB), far past any real SNR
MAX_ABS_DB = 300


@dataclass(frozen=True)
class TaskDistributionSpec:
    """Task law: i.i.d. CN(0,1) channel entries, noise power log-uniform
    (uniform in dB) over ``[sigma2_db_min, sigma2_db_max]``."""

    n_t: int
    n_r: int
    sigma2_db_min: float
    sigma2_db_max: float

    def __post_init__(self):
        if min(self.n_t, self.n_r) < 1:
            raise ValueError(f"n_t and n_r must be >= 1, got {self.n_t} and {self.n_r}")
        if not np.isfinite([self.sigma2_db_min, self.sigma2_db_max]).all():
            raise ValueError(
                f"noise bounds must be finite, got [{self.sigma2_db_min}, {self.sigma2_db_max}] dB"
            )
        for name in ("sigma2_db_min", "sigma2_db_max"):
            db = getattr(self, name)
            if not abs(db) <= MAX_ABS_DB:
                raise ValueError(f"{name} = {db} dB is outside [-{MAX_ABS_DB}, {MAX_ABS_DB}] dB")
        if self.sigma2_db_min > self.sigma2_db_max:
            raise ValueError("sigma2_db_min must be <= sigma2_db_max")


def sample_task(spec: TaskDistributionSpec, rng: RngStream) -> Task:
    h = rng.complex_normal(size=(spec.n_r, spec.n_t))
    u = rng.uniform(spec.sigma2_db_min, spec.sigma2_db_max)
    return Task(h=h, sigma2=float(10.0 ** (u / 10.0)))


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------


def _quantize_complex(q: Quantizer, z: np.ndarray) -> np.ndarray:
    if not q.quantized:
        return z
    _, re = quantize(q, z.real)
    _, im = quantize(q, z.imag)
    return re + 1j * im


@dataclass(frozen=True)
class ContextSet:
    """N pilot pairs from one task."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=complex)
        ys = np.asarray(self.ys, dtype=complex)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] != ys.shape[0]:
            raise ValueError("xs, ys must be (n, n_t) and (n, n_r)")

    def __len__(self) -> int:
        return self.xs.shape[0]


def sample_pairs(
    h: np.ndarray,
    sigma2,
    q: Quantizer,
    constellation: Constellation,
    n: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. channel uses: the input index, then the noise, then
    ``y = Q_b(H x + z)``; returns ``(xs, ys)``.

    ``h`` is one channel (n_r, n_t) or a stack (B, n_r, n_t), with ``sigma2``
    a scalar or one noise power per channel.  Outputs gain the leading
    axes of ``h``: xs (..., n, n_t), ys (..., n, n_r).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    h = np.asarray(h, dtype=complex)
    lead = h.shape[:-2]
    xs = constellation.joint[rng.integers(0, constellation.n_joint, size=lead + (n,))]
    z = rng.complex_normal(size=lead + (n, h.shape[-2]))
    z = z * np.sqrt(np.asarray(sigma2, dtype=float))[..., None, None]
    ys = _quantize_complex(q, xs @ np.swapaxes(h, -1, -2) + z)
    return xs, ys


# ---------------------------------------------------------------------------
# observation likelihood
# ---------------------------------------------------------------------------


def realify_obs(z: np.ndarray) -> np.ndarray:
    """Complex (..., n) -> real (..., 2n), real parts then imaginary parts."""
    return np.concatenate([z.real, z.imag], axis=-1)


def observation_cells(q: Quantizer, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantization cells of received values, per real dimension.

    ``y`` is complex (..., n_r) with components on the output grid; returns
    ``(lo, hi)`` arrays of shape (..., 2 n_r) with +-inf on the extreme cells.
    Raises ValueError for any component that is not a quantizer output level.
    """
    return cell_bounds(q, _level_index(q, realify_obs(np.asarray(y, dtype=complex))))


def _level_index(q: Quantizer, v: np.ndarray) -> np.ndarray:
    """The level indices of real components ``v``, each of which must be a
    quantizer output level (ValueError otherwise)."""
    idx, levels = quantize(q, v)
    if not np.all(levels == v):  # levels are dyadic, so exact up to MAX_BITS
        raise ValueError("value not on a quantizer output level")
    return idx


def gauss_logpdf(y_ri, means_ri, sigma2: float) -> np.ndarray:
    """Gaussian log densities of real components ``y_ri`` about
    ``means_ri`` (variance ``sigma2 / 2``), elementwise: the unquantized
    counterpart of a cell's log-probability (a density, so it may exceed 0)."""
    with np.errstate(over="ignore"):  # distant observations overflow to -inf
        d2 = np.subtract(y_ri, means_ri)
        np.square(d2, out=d2)
        d2 /= sigma2
        return np.subtract(-0.5 * np.log(np.pi * sigma2), d2, out=d2)


def loglik_means(q: Quantizer, means: np.ndarray, sigma2: float, y: np.ndarray):
    """Log-likelihood of observations ``y`` for noiseless means ``H x``.

    ``means`` and ``y`` are complex arrays broadcastable to a common
    (..., n_r) shape; the return value sums over the 2 n_r real dimensions.
    One call on every broadcast cell, the reference of the blocked form in
    :mod:`icleq.estimators`.
    """
    means_ri = realify_obs(np.asarray(means, dtype=complex))
    if q.quantized:
        lo, hi = observation_cells(q, y)
        std = np.sqrt(sigma2 / 2.0)
        return np.sum(_log_cell_prob_std((lo - means_ri) / std, (hi - means_ri) / std), axis=-1)
    y_ri = realify_obs(np.asarray(y, dtype=complex))
    return np.sum(gauss_logpdf(y_ri, means_ri, sigma2), axis=-1)


def log_likelihood(task: Task, q: Quantizer, x: np.ndarray, y: np.ndarray) -> float:
    """Exact observation log-likelihood log P(y | x, task) under the
    (possibly quantized) forward model."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (task.n_t,) or y.shape != (task.n_r,):
        raise ValueError("x, y must have shapes (n_t,), (n_r,)")
    return float(loglik_means(q, task.h @ x, task.sigma2, y))
