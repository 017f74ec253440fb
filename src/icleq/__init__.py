"""In-context-learning MIMO equalization with exact Bayesian references."""

from . import _malloc

_malloc.tune()

from .channel import (
    Constellation,
    ContextSet,
    Quantizer,
    Task,
    TaskDistributionSpec,
    cell_bounds,
    log_likelihood,
    qam4_constellation,
    quantize,
    sample_pairs,
    sample_task,
)
from .numerics import (
    hermitian,
    logsumexp,
    solve_hpd,
)
from .rng import RngStream

__all__ = [
    "Constellation",
    "ContextSet",
    "Quantizer",
    "RngStream",
    "Task",
    "TaskDistributionSpec",
    "cell_bounds",
    "hermitian",
    "log_likelihood",
    "logsumexp",
    "qam4_constellation",
    "quantize",
    "sample_pairs",
    "sample_task",
    "solve_hpd",
]

__version__ = "0.1.0"
