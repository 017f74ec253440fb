"""Complex linear algebra and tail-stable Gaussian probability primitives.

All statistical computation in the package runs in binary64.  The Gaussian
cell probabilities needed by the quantized observation likelihood are the
numerically delicate part: at high SNR or fine quantization a cell can sit
many standard deviations from the mean, where a naive CDF difference
cancels catastrophically.  The kernel :func:`_log_cell_prob_std`, on bounds
standardized as ``(bound - mean) / std``, reflects every cell right of the
mean to the left, where the mass is a difference of
two lower-tail log-CDFs (``scipy.special.log_ndtr``) that stays finite far
into the tail, and only uses a direct erf difference when the cell
straddles the mean.  Each cell goes through one of the two formulas, so
every special-function value computed is used; the likelihoods of a
channel stack call the kernel once per distinct cell (pilots or test
observations that share an input and a level share their cell on every
channel, see :func:`icleq.estimators._pair_loglik`).  The kernel is
exactly symmetric: the mirrored cell ``(-b, -a)`` gets the value of
``(a, b)`` bit for bit (the reflection maps both to the same lower-tail
arguments, and erf is odd), which lets a pilot be evaluated on its
quarter-turned 4-QAM input.

The likelihoods of a channel stack keep the channels innermost: each
array is a stack of whole rows of channels, and their sums over real
dimensions and over pilots add whole rows in numpy's own pairwise order
(:func:`_pairwise_sum`), so they equal ``np.sum`` over a contiguous axis
bit for bit.

Work on large arrays is split over the cores in the process's CPU
affinity by one shared thread pool, :func:`_lanes`, which cuts a range of
rows into one block per core (at multiples of a row unit when asked).
Its users: the likelihoods of a channel stack, which walk their block in
cache-sized pieces (:func:`_by_blocks`); and each transformer layer's
forward and hand-written VJP, which run its per-token work as one lane
per core over blocks of batch rows, then its weight gradients as whole
products, one lane per core (:mod:`icleq.transformer`).  A lane
allocates its own arrays and may keep them: each forward lane of a layer
keeps its state until the VJP's lane of the same rows has read it.
Every other step of the model runs on the calling thread.  numpy, scipy
and BLAS release the interpreter lock, and every split is bit-identical
to one call.  A split call made from inside a block runs inline.

:func:`logsumexp` normalizes the Bayesian references' weights and
posteriors.  It reproduces the rounding of scipy >= 1.15's
``scipy.special.logsumexp`` in plain numpy, without calling scipy, so
the pinned results do not depend on which scipy release is installed.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import erf, log_ndtr

__all__ = [
    "hermitian",
    "solve_hpd",
    "logsumexp",
]


if hasattr(os, "sched_getaffinity"):
    _N_CORES = len(os.sched_getaffinity(0))
else:
    _N_CORES = os.cpu_count() or 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_lane = threading.local()  # .on: this thread runs a block of _lanes

_BLOCK = 1 << 16  # elements per block of _by_blocks: a block's temporaries stay in cache


def _forget_pool() -> None:
    """A forked child inherits the pool object but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _lanes(fn, rows: int, unit: int = 1) -> None:
    """``fn(i, j)`` on blocks ``[i, j)`` of ``range(rows)``, one block per
    core; the calling thread runs the first block.

    Every cut falls at a multiple of ``unit`` rows (the last block takes
    the remainder), so fewer than two units run inline as ``fn(0, rows)``.
    A call made from inside a block of another split call also runs
    inline: the pool's workers may all be busy with the outer blocks, so
    a nested block queued behind them would never start.
    ``fn`` may allocate, and may keep what it allocates for a later call
    (a transformer layer's forward lanes keep their state for its VJP's
    lanes).  Under the raised trim threshold of :mod:`icleq._malloc` a
    worker thread's malloc arena keeps its high-water mark, and each step
    reuses it.  If a block raises, the call still waits for every other
    block before it re-raises the first block's exception.
    """
    global _pool
    parts = min(_N_CORES, rows // unit)
    if parts <= 1 or getattr(_in_lane, "on", False):
        fn(0, rows)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_N_CORES - 1, thread_name_prefix="icleq-rows")
    cuts = [unit * (rows // unit * i // parts) for i in range(parts)] + [rows]
    futures = [_pool.submit(_lane, fn, i, j) for i, j in zip(cuts[1:], cuts[2:])]
    try:
        _lane(fn, cuts[0], cuts[1])
    finally:
        for f in futures:
            f.exception()  # waits for the block; raises nothing
    for f in futures:
        f.result()


def _lane(fn, i: int, j: int) -> None:
    """One block of :func:`_lanes`, flagged on its thread while it runs."""
    _in_lane.on = True
    try:
        fn(i, j)
    finally:
        _in_lane.on = False


def _by_blocks(fn, out: np.ndarray, *args: np.ndarray, row_size: int) -> np.ndarray:
    """``out[i:j] = fn(*(a[i:j] for a in args))`` for blocks of rows
    (leading axis) of ``out`` and ``args``, each of ``_BLOCK // row_size``
    rows, where ``row_size`` is the elements per row of ``fn``'s widest
    array: no temporary of a block exceeds ``_BLOCK`` elements, so a
    block's temporaries stay in cache.  (A channel stack's likelihood
    passes channels as rows and keeps them innermost in its own arrays;
    its ``fn`` returns the block's results with the channels moved to the
    leading axis.)

    Inputs of one block or less run on the calling thread; larger ones are
    split over the cores by :func:`_lanes`, each core walking its share
    one block at a time.  ``fn`` must treat rows independently.
    """
    rows = max(1, _BLOCK // row_size)

    def walk(i, j):
        for k in range(i, j, rows):
            end = min(k + rows, j)
            out[k:end] = fn(*(a[k:end] for a in args))

    if len(out) <= rows:
        walk(0, len(out))
    else:
        _lanes(walk, len(out))
    return out


def _pairwise_sum(rows, n: int) -> np.ndarray:
    """The sum of ``n`` arrays of one shape, taken from the iterable
    ``rows`` in order, in numpy's own order of summing ``n`` contiguous
    terms: ``_pairwise_sum(a.T, n)`` equals ``np.sum(a, axis=-1)`` of a
    C-contiguous (R, n) array ``a`` bit for bit, the sign of zero included.

    numpy starts each sum from +0.0 and adds the pairwise sum of the terms:
    fewer than 8 terms in order; up to 128 terms into 8 accumulators (term
    i into accumulator i mod 8), which are then added as a balanced tree
    before the remaining n mod 8 terms; more than 128 terms as the sums of
    two halves cut at a multiple of 8.  Here every add is on whole arrays,
    so a sum over a leading axis of channel rows is a few vector adds.
    """
    rows = iter(rows)
    if n == 1:
        return next(rows) + 0.0
    out = _pairwise(rows, n)
    out += 0.0  # the reduction's +0.0 start: turns a sum of -0.0 into +0.0
    return out


def _pairwise(rows, n: int) -> np.ndarray:
    """numpy's pairwise sum of the next ``n`` >= 2 rows, as a new array."""
    if n < 8:
        out = next(rows) + next(rows)
        for _ in range(n - 2):
            out += next(rows)
        return out
    if n <= 128:
        acc = [next(rows) for _ in range(8)]
        for k in range(1, n // 8):
            acc = [np.add(a, next(rows), out=a if k > 1 else None) for a in acc]
        own = n >= 16  # the accumulators are new arrays, not the caller's rows
        p = [np.add(acc[i], acc[i + 1], out=acc[i] if own else None) for i in (0, 2, 4, 6)]
        out = np.add(p[0], p[1], out=p[0])
        out += np.add(p[2], p[3], out=p[2])
        for _ in range(n % 8):
            out += next(rows)
        return out
    half = n // 2 - n // 2 % 8
    out = _pairwise(rows, half)
    out += _pairwise(rows, n - half)
    return out


def hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive definite ``a``.

    Uses a Cholesky factorization; a non-positive-definite pivot raises
    ``numpy.linalg.LinAlgError``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got {a.shape}")
    try:
        c, low = cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"matrix is not positive definite: {exc}") from exc
    return cho_solve((c, low), b, check_finite=False)


def _logdiffexp(la, lb):
    """log(exp(la) - exp(lb)) for la >= lb, elementwise."""
    with np.errstate(invalid="ignore"):
        d = np.where(np.isneginf(la), 0.0, lb - la)
    return la + np.log1p(-np.exp(d))


def _log_cell_prob_std(a, b):
    """log(Phi(b) - Phi(a)) for standardized bounds a < b (entries may be inf).

    Same-side cells go through lower-tail log-CDFs so the result stays
    finite far into the tails: a cell right of the mean is reflected to
    ``(-b, -a)``, which has the same mass.  Cells straddling zero use a
    cancellation-free erf difference of opposite signs instead.  Each cell
    runs through one of the two formulas only; the two subsets are gathered
    by integer indices.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    right = a >= 0.0
    u = np.where(right, -b, a)
    v = np.where(right, -a, b)
    straddle = v > 0.0
    mid = np.flatnonzero(straddle)
    with np.errstate(divide="ignore"):  # same-side cells of equal log-CDFs: log(0)
        if not mid.size:
            return np.asarray(_logdiffexp(log_ndtr(v), log_ndtr(u)))
        side = np.flatnonzero(~straddle)  # not v <= 0: a NaN bound must land in one subset
        out = np.empty(v.shape)
        np.put(out, side, _logdiffexp(log_ndtr(np.take(v, side)), log_ndtr(np.take(u, side))))
    s = 0.5 * (erf(np.take(v, mid) / np.sqrt(2.0)) - erf(np.take(u, mid) / np.sqrt(2.0)))
    np.put(out, mid, np.log(s))
    return out


def logsumexp(v, axis=None):
    """log(sum(exp(v))) over ``axis`` (every axis if None); shift-invariant,
    tolerates -inf entries.

    The arithmetic of scipy >= 1.15's ``scipy.special.logsumexp`` on real
    input, bit for bit, without its array-API dispatch: the max m and the
    count c of entries equal to it are taken out of the sum, s = sum of
    exp(v - m) over the rest (a copy in ``v``'s memory order, so the sum
    runs in the same order) divided by c unless it is 0, and the result is
    log1p(s) + log(c) + m.  Where that is not finite (an infinite max, all
    -inf, NaN) the naive log(sum(exp(v))) is taken instead.
    """
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.size == 0:
        raise ValueError("logsumexp of empty input")
    axis = tuple(range(a.ndim)) if axis is None else axis
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    count = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    rest = np.array(a, copy=True)
    rest[at_top] = -np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(rest - top), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / count)
        out = np.log1p(s) + np.log(count) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)), out)
    out = np.squeeze(out, axis=axis)
    if out.ndim == 0:
        return float(out)
    return out
