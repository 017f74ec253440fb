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
shape (n, n_r), and returns estimates of shape (n_t,) or (n, n_t).

All posterior arithmetic runs in the log domain; quantized pilot
likelihoods at high SNR underflow otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Constellation, ContextSet, Quantizer, Task, loglik_means
from .numerics import hermitian, logsumexp, solve_hpd
from .rng import RngStream

__all__ = [
    "ChannelPrior",
    "DegenerateEvidenceError",
    "input_posterior",
    "mmse_known_task",
    "lmmse_known_task",
    "channel_log_posterior_weights",
    "bayes_mmse_discrete",
    "bayes_mmse_continuous_mc",
    "bayes_mmse_gaussian_exact",
]


class DegenerateEvidenceError(ValueError):
    """Zero evidence: every candidate input has zero likelihood for the
    observation, or every channel has zero likelihood for the pilots."""


@dataclass(frozen=True)
class ChannelPrior:
    """Uniform discrete channel prior over a stored set of channel matrices."""

    channels: np.ndarray

    @classmethod
    def discrete(cls, channels) -> "ChannelPrior":
        ch = np.asarray(channels, dtype=complex)
        if ch.ndim != 3 or ch.shape[0] == 0:
            raise ValueError("discrete prior needs a non-empty (M, n_r, n_t) stack")
        return cls(channels=ch)


# ---------------------------------------------------------------------------
# joint channel-and-input posterior
# ---------------------------------------------------------------------------


def _joint_input_posterior(
    channels: np.ndarray,
    log_w: np.ndarray,
    sigma2,
    q: Quantizer,
    constellation: Constellation,
    y: np.ndarray,
    prune_tol: float = 0.0,
) -> np.ndarray:
    """P(x | y) over the joint input set, rows (..., n_joint) summing to 1.

    ``exp(log_w[m]) * p(y | x, h_m)`` is normalized jointly over channel and
    input, then summed over channels.  Channels whose normalized weight is at
    most ``prune_tol`` are skipped (the largest is kept if none passes).
    """
    y = np.asarray(y, dtype=complex)
    total = logsumexp(log_w)
    if np.isneginf(total):
        raise DegenerateEvidenceError("pilots have zero likelihood under every channel")
    log_w = log_w - total
    keep = np.exp(log_w) > prune_tol
    if not np.any(keep):
        keep = log_w == log_w.max()
    means = constellation.joint @ np.swapaxes(channels[keep], -1, -2)  # (Mk, C, n_r)
    ll = loglik_means(q, means, sigma2, y[..., None, None, :])  # (..., Mk, C)
    ll = (ll + log_w[keep][:, None]).reshape(y.shape[:-1] + (-1,))
    norm = logsumexp(ll, axis=-1)
    if np.any(np.isneginf(norm)):
        raise DegenerateEvidenceError("observation has zero likelihood for all inputs")
    probs = np.exp(ll - np.asarray(norm)[..., None])
    return probs.reshape(y.shape[:-1] + means.shape[:2]).sum(axis=-2)


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
    a = task.sigma2 * n_t * np.eye(n_t) + hermitian(h) @ h
    y = np.asarray(y, dtype=complex)
    rhs = hermitian(h) @ (y.T if y.ndim == 2 else y)
    x = solve_hpd(a, rhs)
    return x.T if y.ndim == 2 else x


# ---------------------------------------------------------------------------
# Bayesian channel-prior references
# ---------------------------------------------------------------------------


def channel_log_posterior_weights(
    channels: np.ndarray, sigma2, q: Quantizer, context: ContextSet
) -> np.ndarray:
    """Unnormalized log posterior weight of each channel of an (M, n_r, n_t)
    stack given the context: prior uniform over the stack, likelihood the
    product over context pairs.  Caller normalizes (e.g. via logsumexp)."""
    m = channels.shape[0]
    if len(context) == 0:
        return np.zeros(m)
    means = np.einsum("mrt,nt->mnr", channels, context.xs)  # (M, N, n_r)
    ll = loglik_means(q, means, sigma2, context.ys[None, :, :])  # (M, N)
    return np.sum(ll, axis=1)


def bayes_mmse_discrete(
    prior: ChannelPrior,
    sigma2: float,
    q: Quantizer,
    constellation: Constellation,
    context: ContextSet,
    y: np.ndarray,
    prune_tol: float = 0.0,
) -> np.ndarray:
    """MMSE equalizer under a uniform prior over stored channels: posterior
    mean under the joint posterior over (channel, input) given the pilots
    and y (exact)."""
    lw = channel_log_posterior_weights(prior.channels, sigma2, q, context)
    probs = _joint_input_posterior(prior.channels, lw, sigma2, q, constellation, y, prune_tol)
    return probs @ constellation.joint


def bayes_mmse_continuous_mc(
    sigma2: float,
    q: Quantizer,
    constellation: Constellation,
    context: ContextSet,
    y: np.ndarray,
    k: int,
    rng: RngStream,
    prune_tol: float = 1e-13,
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
    n_r = np.shape(y)[-1]
    channels = rng.complex_normal(size=(k, n_r, constellation.n_t))
    lw = channel_log_posterior_weights(channels, sigma2, q, context)
    probs = _joint_input_posterior(channels, lw, sigma2, q, constellation, y, prune_tol)
    ess = float(1.0 / np.sum(np.exp(lw - logsumexp(lw)) ** 2))
    return probs @ constellation.joint, ess


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
    if len(context):
        mu = cov @ (hermitian(a) @ context.ys) / sigma2  # (n_t, n_r)
    else:
        mu = np.zeros((n_t, context.ys.shape[1]), dtype=complex)
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
    and its mean follow by enumeration.
    """
    if quantizer is not None and quantizer.quantized:
        raise ValueError("conjugate oracle requires unquantized observations")
    y = np.asarray(y, dtype=complex)
    pred_mean, pred_var = _gaussian_predictive_stats(sigma2, constellation, context)
    d2 = np.sum(np.abs(y[..., None, :] - pred_mean) ** 2, axis=-1)  # (..., n_joint)
    ll = -y.shape[-1] * np.log(np.pi * pred_var) - d2 / pred_var
    norm = logsumexp(ll, axis=-1)
    probs = np.exp(ll - np.asarray(norm)[..., None])
    return probs @ constellation.joint
