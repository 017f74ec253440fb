"""Reference equalizers: exact MMSE, LMMSE, and Bayesian channel-prior MMSE.

Four estimators of the transmitted vector x from a received y:

* :func:`mmse_known_task` - posterior mean over the finite joint input set
  when the channel and noise power are known (the optimal equalizer).
* :func:`lmmse_known_task` - the linear MMSE solution derived under a
  Gaussian input assumption, ignoring the quantizer.
* :func:`bayes_mmse_discrete` - channel unknown but drawn from a known
  finite set: posterior mean under the joint posterior over (channel,
  input) given the pilots and y.
* :func:`bayes_mmse_continuous_mc` - channel prior is the true continuous
  CN(0,1) law; the same joint posterior mean is approximated by
  self-normalized importance sampling with the prior as proposal.

:func:`bayes_mmse_gaussian_exact` closes the loop for validation: with an
unquantized receiver the CN(0,1) prior is conjugate, so the full posterior
predictive over inputs is available in closed form.

Every estimator takes one observation ``y`` of shape (n_r,) or a stack of
shape (n, n_r), and returns estimates of shape (n_t,) or (n, n_t); an
empty stack gives an empty estimate.  A NaN pilot or observation raises
ValueError at either receiver (except in the linear :func:`lmmse_known_task`).
An antenna count off the channel raises ValueError naming the array and
both shapes (:func:`_check_fit`, where each array is consumed), and a noise
power that is not finite and > 0 raises one naming ``sigma2``; every input
posterior is normalized by :func:`_input_probs`.

All posterior arithmetic runs in the log domain; quantized pilot
likelihoods at high SNR underflow otherwise.  At either receiver the
pilot weights and the test-observation posterior share one likelihood of
(input, observation) pairs over channel stacks, :func:`_pair_loglik`,
walked in blocks of channels split over the cores.  Its arrays keep the
channels innermost: it gathers whole rows of channels and sums them over
real dimensions, and the pilot weights over pilots, with whole-row adds
in numpy's own order (:func:`icleq.numerics._pairwise_sum`), so every
value equals the one-call formula of :mod:`icleq.channel`.  The noise is
circularly symmetric and the quantizer grid symmetric about 0, so a
pilot (x, y) has the likelihood of (j^k x, j^k y) on every channel: the
pilot weights evaluate each pilot on its canonical input j^k x (first
symbol in re > 0, im >= 0), at most 4^(n_t - 1) of the 4^n_t 4-QAM
inputs, bit for bit.  The test-observation posterior keeps its matmul
means, which are not rotation-exact, and passes every pair at turn 0.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    Constellation,
    ContextSet,
    Quantizer,
    Task,
    _level_index,
    _noise_power,
    cell_bounds,
    gauss_logpdf,
    realify_obs,
)
from .numerics import (
    _by_blocks,
    _log_cell_prob_std,
    _pairwise_sum,
    hermitian,
    logsumexp,
    solve_hpd,
)
from .rng import RngStream

__all__ = [
    "DegenerateEvidenceError",
    "input_posterior",
    "mmse_known_task",
    "lmmse_known_task",
    "channel_log_posterior_weights",
    "bayes_mmse_discrete",
    "bayes_mmse_continuous_mc",
    "bayes_mmse_gaussian_exact",
]


MIN_CHANNEL_WEIGHT = 1e-13  # channels of at most this normalized pilot weight are skipped


class DegenerateEvidenceError(ValueError):
    """Zero evidence: every candidate input has zero likelihood for the
    observation, or every channel has zero likelihood for the pilots."""


# ---------------------------------------------------------------------------
# joint channel-and-input posterior
# ---------------------------------------------------------------------------


def _normalized(log_w: np.ndarray) -> np.ndarray:
    """Log channel weights shifted to sum to 1 in the linear domain."""
    total = logsumexp(log_w)
    if np.isneginf(total):
        raise DegenerateEvidenceError("pilots have zero likelihood under every channel")
    return log_w - total


def _input_probs(ll: np.ndarray) -> np.ndarray:
    """The log-likelihoods ``ll`` of an observation's candidate inputs, on
    the last axis, normalized to probabilities that sum to 1; an
    observation with zero likelihood for every input raises
    DegenerateEvidenceError."""
    norm = logsumexp(ll, axis=-1)
    if np.any(np.isneginf(norm)):
        raise DegenerateEvidenceError("observation has zero likelihood for all inputs")
    return np.exp(ll - np.asarray(norm)[..., None])


def _check_fit(stack: tuple, **arrays) -> None:
    """Raise ValueError naming the array and both shapes unless the last
    axis of each array fits the (M, n_r, n_t) channel stack of shape
    ``stack``: n_t for an array named ``*_inputs``, n_r for the others."""
    _, n_r, n_t = stack
    for name, a in arrays.items():
        shape = np.shape(a)
        if not shape or shape[-1] != (n_t if name.endswith("inputs") else n_r):
            name = name.replace("_", " ")
            raise ValueError(f"{name} of shape {shape} do not fit the {stack} channel stack")


# (re, im) signs of j^k z, once the parts of z are swapped when k is odd
_QUARTER = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
# the turn k that brings z into re > 0, im >= 0 (0 for z = 0), indexed by
# the class (0 zero, 1 positive, 2 negative) of re z, then of im z
_TURN = np.array([[0, 3, 1], [0, 0, 1], [2, 3, 2]])


def _canonical_inputs(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical inputs ``j^k xs[n]`` (N, n_t) and the turns k (N,)
    that bring each input's first symbol into re > 0, im >= 0.

    Formed by swapping and negating real and imaginary parts, which is
    exact; a complex product by j would turn 0 * inf into NaN.
    """
    ri = np.ascontiguousarray(xs).view(float).reshape(len(xs), -1, 2)  # (N, n_t, [re, im])
    side = (ri[:, 0] > 0) + 2 * (ri[:, 0] < 0)
    turn = _TURN[side[:, 0], side[:, 1]]
    ri = np.where(turn[:, None, None] % 2 == 1, ri[..., ::-1], ri) * _QUARTER[turn][:, None]
    return ri.view(complex)[..., 0], turn


def _pair_loglik(q: Quantizer, sigma2: float, input_of: np.ndarray, turn, y_ri: np.ndarray):
    """The log-likelihood of pairs (x, y) at either receiver: x = j^-k c,
    c the distinct input ``input_of`` and k = ``turn``, and y realified
    as ``y_ri`` (..., 2 n_r); the three broadcast to the pairs' shape.

    Returns ``(loglik, width)``.  ``loglik`` maps a block's realified
    means of the distinct inputs, channels innermost (Nu, 2 n_r, channels)
    or (Nu * 2 n_r, channels), to the pairs' log-likelihoods (*pairs,
    channels), bit for bit as :func:`icleq.channel.loglik_means` on each
    pair's own means; ``width`` is the elements per channel of its widest
    array, the row size of :func:`icleq.numerics._by_blocks`.  The noise is
    circularly symmetric and the quantizer grid is symmetric about 0, so
    the factor of real dimension e is that of c on dimension pi_k(e)
    observed as s_k(e) y_e (pi_k swaps the re and im halves when k is odd;
    s_k(e) is the sign of e's part of j^-k), and exactly so: c's mean
    there is s_k(e) times x's, a negated level's cell is the mirrored cell
    (-hi, -lo), and a negated Gaussian residual has the same square.  Each
    dimension's factors are whole rows of channels gathered by
    ``np.take(..., axis=0)``, summed over e in the pair's own order by
    :func:`icleq.numerics._pairwise_sum`.  Unquantized, the densities are
    formed one dimension at a time, so the widest array is (*pairs,
    channels) or the means.  Quantized, a pair's cell on e is fixed by its
    row (c, pi_k(e)) of the means and its level, so the distinct cells and
    the distinct (row, bound) pairs that bound them are found once here
    (:func:`_distinct_cells`).  A block standardizes each distinct bound
    once per channel, as (bound - mean) / std; the kernel forms each cell
    from its two bound rows, and each cell is gathered to every pair.  The
    blocks keep 2 n_r elements per pair and channel for the cell kernel's
    temporaries.
    """
    d = y_ri.shape[-1]
    k = np.arange(4)[:, None]  # per turn k (rows) and dimension e: pi_k(e) and s_k(e)
    dim = (np.arange(d) + d // 2 * (k & 1)) % d
    sign = np.repeat(_QUARTER[-k[:, 0] % 4], d // 2, axis=-1)
    col, y_ri = input_of[..., None] * d + dim[turn], y_ri * sign[turn]
    shape = np.broadcast(col, y_ri).shape  # (*pairs, 2 n_r)
    pairs = int(np.prod(shape[:-1]))
    if not q.quantized:
        if np.isnan(y_ri).any():
            raise ValueError("observation is NaN")

        def loglik(means):
            means = means.reshape(-1, means.shape[-1])
            terms = (
                gauss_logpdf(y_ri[..., e, None], np.take(means, col[..., e], axis=0), sigma2)
                for e in range(d)
            )
            return _pairwise_sum(terms, d)

        return loglik, max(pairs, d * (int(np.max(input_of)) + 1))
    rows, bound, lo, hi, inv = _distinct_cells(q, col, y_ri)
    bound, std = bound[:, None], np.sqrt(sigma2 / 2.0)

    def loglik(means):
        z = np.take(means.reshape(-1, means.shape[-1]), rows, axis=0)
        np.subtract(bound, z, out=z)
        z /= std
        cells = _log_cell_prob_std(z, lo, hi)
        return _pairwise_sum((np.take(cells, i, axis=0) for i in inv), d)

    return loglik, pairs * d


def _distinct_cells(q: Quantizer, col: np.ndarray, y_ri: np.ndarray):
    """The distinct cells of the pairs of :func:`_pair_loglik`, quantized,
    and their distinct bounds: a pair's cell on e is read from row
    ``col[..., e]`` of the means and bounded by the cell of ``y_ri[...,
    e]``, the two broadcast to (*pairs, 2 n_r).  Returns each distinct
    (row, bound) pair's row ``rows`` (nb,) and bound value ``bound`` (nb,),
    sorted by (row, bound); each distinct cell's lower and upper bound
    index ``lo``, ``hi`` (n,) among them, the cells sorted by (row,
    level); and the index ``inv`` (2 n_r, *pairs) of each pair's cell
    among the cells.

    A cell's key is row * levels + level, with the distinct quantizer
    level indices numbered in order.  Every row and level is taken, so the
    keys fill a dense range of (rows x levels) integers: flags over that
    range give the sorted distinct keys and their ranks, as ``np.unique``
    would with ``return_inverse``, without its sort.  The cells' bounds,
    interleaved in that order, are then sorted by (row, bound), and a
    (row, bound) pair repeats only as the upper bound of a cell and the
    lower bound of the next cell on its row at the adjacent level: one
    float, as the grid is dyadic.  Dropping the repeats leaves the
    distinct pairs, each ranked by a running count.
    """
    levels, level = np.unique(_level_index(q, y_ri), return_inverse=True)
    keys = col * len(levels) + level.reshape(y_ri.shape)
    seen = np.zeros((int(np.max(col)) + 1) * len(levels), dtype=bool)
    seen[keys] = True
    rank = np.cumsum(seen) - 1
    row, level = np.divmod(np.flatnonzero(seen), len(levels))
    level = np.take(levels, level)
    new = np.ones((len(row), 2), dtype=bool)  # per cell: its lower, upper bound is no repeat
    new[1:, 0] = (row[1:] != row[:-1]) | (level[1:] != level[:-1] + 1)
    lo, hi = (np.cumsum(new) - 1).reshape(-1, 2).T.copy()
    bound = np.stack(cell_bounds(q, level), axis=-1)[new]
    rows = np.repeat(row, 2)[new.ravel()]
    return rows, bound, lo, hi, np.moveaxis(np.take(rank, keys), -1, 0).copy()


def _joint_input_posterior(
    channels: np.ndarray,
    log_w: np.ndarray,
    sigma2: float,
    q: Quantizer,
    constellation: Constellation,
    y: np.ndarray,
) -> np.ndarray:
    """P(x | y) over the joint input set, rows (..., n_joint) summing to 1.

    ``log_w`` holds the channels' normalized log weights (:func:`_normalized`).
    ``exp(log_w[m]) * p(y | x, h_m)`` is normalized jointly over channel and
    input, then summed over channels.  Channels of weight at most
    ``MIN_CHANNEL_WEIGHT`` are skipped (the largest, at least 1/M, passes).
    The S x C (observation, input) pairs go through :func:`_pair_loglik`
    at turn 0 in blocks of kept channels, like the pilots, at either
    receiver; the S observations are realified (and checked, and their
    cells found) once, before they are paired with the C inputs.  The
    log-likelihoods come out (S, C, Mk), channels innermost, and are
    turned to (S, Mk, C) before the normalization.
    """
    y = np.asarray(y, dtype=complex)
    _check_fit(channels.shape, constellation_inputs=constellation.joint, observations=y)
    keep = np.exp(log_w) > MIN_CHANNEL_WEIGHT
    # a matmul, not _pilot_means: about 30% of the means would round
    # differently, and the pinned rows and sweep digests rest on these
    means = realify_obs(constellation.joint @ np.swapaxes(channels[keep], -1, -2))
    mk, c, d = means.shape  # (Mk, C, 2 n_r)
    obs = realify_obs(y.reshape(-1, y.shape[-1]))  # (S, 2 n_r)
    if not len(obs):
        return np.zeros(y.shape[:-1] + (c,))
    loglik, width = _pair_loglik(q, sigma2, np.arange(c), 0, obs[:, None])  # pairs (S, C)
    ll = np.empty((len(obs), c, mk))  # filled through its (Mk, S, C) view
    _by_blocks(
        lambda m: loglik(np.moveaxis(m, 0, -1)).transpose(2, 0, 1),
        ll.transpose(2, 0, 1),
        means,
        row_size=width,
    )
    ll = (ll.transpose(0, 2, 1) + log_w[keep][:, None]).reshape(y.shape[:-1] + (-1,))
    return _input_probs(ll).reshape(y.shape[:-1] + (mk, c)).sum(axis=-2)


# ---------------------------------------------------------------------------
# known-task MMSE and LMMSE
# ---------------------------------------------------------------------------


def input_posterior(
    task: Task, q: Quantizer, constellation: Constellation, y: np.ndarray
) -> np.ndarray:
    """Posterior over the joint input set given y, uniform input prior;
    rows (..., n_joint) sum to 1."""
    return _joint_input_posterior(task.h[None], np.zeros(1), task.sigma2, q, constellation, y)


def mmse_known_task(
    task: Task, q: Quantizer, constellation: Constellation, y: np.ndarray
) -> np.ndarray:
    """Posterior-mean equalizer for a known task (exact MMSE)."""
    return input_posterior(task, q, constellation, y) @ constellation.joint


def lmmse_known_task(task: Task, y: np.ndarray) -> np.ndarray:
    """Linear MMSE under a Gaussian input model, quantizer ignored.

    x_hat = (sigma2 * n_t * I + H^H H)^{-1} H^H y, applied to y as received.
    """
    h, n_t = task.h, task.n_t
    y = np.asarray(y, dtype=complex)
    _check_fit(h[None].shape, observations=y)
    a = task.sigma2 * n_t * np.eye(n_t) + hermitian(h) @ h
    rhs = hermitian(h) @ (y.T if y.ndim == 2 else y)
    x = solve_hpd(a, rhs)
    return x.T if y.ndim == 2 else x


# ---------------------------------------------------------------------------
# Bayesian channel-prior references
# ---------------------------------------------------------------------------


def _pilot_means(channels: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Noiseless pilot means, realified, channels innermost:
    ``means[n, :, m]`` holds the real parts then the imaginary parts of
    ``channels[m] @ xs[n]``, shape (N, 2 n_r, M).

    The values of ``np.einsum("mrt,nt->mnr", channels, xs)`` bit for bit, in
    a third of its time: the products are summed over t in t order from 0,
    in real arithmetic, into the (input x real dimension, channel) rows
    that :func:`_pair_loglik` gathers, with no transposing copy (numpy's
    complex multiply of arrays and a matmul both round differently).  Turning an
    input by j^k turns its means by j^k exactly, whatever the symbols: a
    quarter turn only swaps and negates the products.  A mean depends only
    on its own channel and input, so the caller passes the distinct
    canonical pilot inputs alone, and one block of channels at a time, so
    the temporaries stay within a block.
    """
    m, n_r, n_t = channels.shape
    h = channels.transpose(2, 1, 0)  # (n_t, n_r, M)
    hr, hi = np.ascontiguousarray(h.real), np.ascontiguousarray(h.imag)
    xr, xi = xs.real.T[..., None, None], xs.imag.T[..., None, None]  # (n_t, N, 1, 1)
    means, (p, q) = np.zeros((len(xs), 2, n_r, m)), np.empty((2, len(xs), n_r, m))
    re, im = means[:, 0], means[:, 1]
    for t in range(n_t):
        np.multiply(hr[t], xr[t], out=p)
        re += np.subtract(p, np.multiply(hi[t], xi[t], out=q), out=p)
        np.multiply(hr[t], xi[t], out=p)
        im += np.add(p, np.multiply(hi[t], xr[t], out=q), out=p)
    return means.reshape(len(xs), 2 * n_r, m)


def channel_log_posterior_weights(
    channels: np.ndarray, sigma2: float, q: Quantizer, context: ContextSet
) -> np.ndarray:
    """Unnormalized log posterior weight of each channel of an (M, n_r, n_t)
    stack given the context: prior uniform over the stack, likelihood the
    product over context pairs.  Caller normalizes (e.g. via logsumexp).

    The stack is walked in cache-sized blocks of channels, split over the
    cores; each block forms its pilot means and sums its log-likelihood
    over the real dimensions, then over the pilots, channels innermost
    (bit-identical to one call of :func:`icleq.channel.loglik_means` on
    all the means).  Each pilot is written as its canonical input j^k x
    and turn k (:func:`_canonical_inputs`); at either receiver a block
    forms the means of the distinct canonical inputs only, and
    :func:`_pair_loglik` expands them to every pilot (quantized, it
    standardizes each distinct bound of the canonical cells once per
    channel).  Quantized
    blocks are sized by the pilots' cell count (N x 2 n_r per channel), so
    the cuts do not depend on how many cells repeat; unquantized blocks by
    the pilots (N per channel) unless the means of the distinct inputs
    are wider, so they hold about 2 n_r times as many channels.
    """
    _check_fit(channels.shape, pilot_inputs=context.xs, pilot_observations=context.ys)
    sigma2 = _noise_power(sigma2)  # one noise power for the whole stack
    m = len(channels)
    if len(context) == 0:
        return np.zeros(m)
    xs, turn = _canonical_inputs(context.xs)
    rows = xs.view(np.dtype((np.void, xs.itemsize * xs.shape[1])))
    _, first, input_of = np.unique(rows.reshape(-1), return_index=True, return_inverse=True)
    inputs = xs[first]
    loglik, width = _pair_loglik(q, sigma2, input_of, turn, realify_obs(context.ys))

    def block(h):
        return _pairwise_sum(loglik(_pilot_means(h, inputs)), len(context))

    return _by_blocks(block, np.empty(m), channels, row_size=width)


def bayes_mmse_discrete(
    channels: np.ndarray,
    sigma2: float,
    q: Quantizer,
    constellation: Constellation,
    context: ContextSet,
    y: np.ndarray,
) -> np.ndarray:
    """MMSE equalizer under a uniform prior over a non-empty (M, n_r, n_t)
    stack of channels: posterior mean under the joint posterior over
    (channel, input) given the pilots and y, skipping the channels of
    pilot weight at most ``MIN_CHANNEL_WEIGHT``."""
    channels = np.asarray(channels, dtype=complex)
    if channels.ndim != 3 or channels.shape[0] == 0:
        raise ValueError("discrete prior needs a non-empty (M, n_r, n_t) stack")
    lw = _normalized(channel_log_posterior_weights(channels, sigma2, q, context))
    return _joint_input_posterior(channels, lw, sigma2, q, constellation, y) @ constellation.joint


def bayes_mmse_continuous_mc(
    sigma2: float,
    q: Quantizer,
    constellation: Constellation,
    context: ContextSet,
    y: np.ndarray,
    k: int,
    rng: RngStream,
) -> tuple[np.ndarray, float]:
    """Importance-sampling approximation of the continuous-prior MMSE.

    Draws ``k`` channels from the CN(0,1) prior (the proposal), weights them
    by the context likelihood, and returns the posterior mean under the
    joint posterior over (drawn channel, input) given the pilots and y.
    Also returns the effective sample size 1 / sum(w^2) of the pilot
    weights; a small ESS means the context has concentrated the posterior
    far from the prior and the estimate is noisy.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    channels = rng.complex_normal(size=(k, context.ys.shape[1], constellation.n_t))
    lw = _normalized(channel_log_posterior_weights(channels, sigma2, q, context))
    est = _joint_input_posterior(channels, lw, sigma2, q, constellation, y) @ constellation.joint
    return est, float(1.0 / np.sum(np.exp(lw) ** 2))


# ---------------------------------------------------------------------------
# conjugate oracle (unquantized only)
# ---------------------------------------------------------------------------


def _gaussian_predictive_stats(
    sigma2: float, constellation: Constellation, context: ContextSet
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean (n_joint, n_r) and variance (n_joint,) of the next
    observation for each candidate input, channel rows marginalized under
    their CN(0, I) prior and the unquantized pilot evidence."""
    a = context.xs  # (N, n_t), rows x_i^T
    n_t = constellation.n_t
    prec = np.eye(n_t) + hermitian(a) @ a / sigma2
    cov = solve_hpd(prec, np.eye(n_t))
    mu = cov @ (hermitian(a) @ context.ys) / sigma2  # (n_t, n_r); zeros with no pilots
    joint = constellation.joint
    pred_mean = joint @ mu  # (n_joint, n_r)
    quad = np.einsum("cj,jk,ck->c", joint, cov, joint.conj())
    pred_var = sigma2 + quad.real  # (n_joint,)
    return pred_mean, pred_var


def bayes_mmse_gaussian_exact(
    sigma2: float,
    constellation: Constellation,
    context: ContextSet,
    y: np.ndarray,
    quantizer: Quantizer | None = None,
) -> np.ndarray:
    """Exact continuous-prior MMSE for the unquantized model.

    Per receive antenna the channel row has a CN(0, I) prior conjugate to
    the Gaussian pilot likelihood, so the posterior predictive of y given
    each candidate input is Gaussian in closed form; the input posterior
    and its mean follow by enumeration.  An infinite pilot or observation
    raises DegenerateEvidenceError, as in the channel-stack references.
    """
    if quantizer is not None and quantizer.quantized:
        raise ValueError("conjugate oracle requires unquantized observations")
    sigma2 = _noise_power(sigma2)
    y = np.asarray(y, dtype=complex)
    _check_fit((1, context.ys.shape[1], constellation.n_t), pilot_inputs=context.xs, observations=y)
    if np.any(np.isnan(y)) or np.any(np.isnan(context.ys)):
        raise ValueError("observation is NaN")
    if np.any(np.isinf(context.ys)):
        raise DegenerateEvidenceError("pilots have zero likelihood under every channel")
    if not y.size:
        return np.zeros(y.shape[:-1] + (constellation.n_t,), dtype=complex)
    pred_mean, pred_var = _gaussian_predictive_stats(sigma2, constellation, context)
    d2 = np.sum(np.abs(y[..., None, :] - pred_mean) ** 2, axis=-1)  # (..., n_joint)
    ll = -y.shape[-1] * np.log(np.pi * pred_var) - d2 / pred_var
    return _input_probs(ll) @ constellation.joint
