"""Pre-training across fading tasks: loss, gradients, Adam, checkpoints.

The task set is sampled once from the task distribution and frozen; every
step draws tasks uniformly with replacement from it and generates fresh
pilot contexts and test pairs through the channel (the channel of a task
never changes, its noise and pilots do).  The objective is the squared
error of the soft symbol estimate at every received-signal position, one
prediction per context length 0..N.

Gradients are exact reverse-mode derivatives in binary64, from the
model's hand-written vector-Jacobian product
(:func:`icleq.transformer.forward_graph`).  Each transformer layer runs
over the cores in lanes of batch rows, then its weight gradients as
whole products, one lane per core, only in ways that are bit-identical
to one thread, so a (config, seed) pair reproduces parameters bit for
bit at any core count, at a fixed BLAS thread count: the BLAS thread
count changes the last bits of a product.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar
from zipfile import BadZipFile

import numpy as np

from .channel import (
    Constellation,
    Quantizer,
    TaskDistributionSpec,
    qam4_constellation,
    realify_obs,
    sample_pairs,
)
from .rng import RngStream
from .transformer import (
    ModelConfig,
    build_tokens,
    forward_graph,
    init_params,
    param_shapes,
)

__all__ = [
    "TrainConfig",
    "TrainBatch",
    "PretrainTaskSet",
    "AdamState",
    "batch_loss",
    "gradient",
    "adam_step",
    "pretrain",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "GraphNumericsError",
    "TrainingDivergedError",
]

log = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    pass


class GraphNumericsError(RuntimeError):
    """A loss or gradient came out non-finite; the message says where."""


# Adam's settings
ADAM = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8, "clip_norm": 1.0}


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on, seed included."""

    model: ModelConfig = field(default_factory=ModelConfig)
    tasks: TaskDistributionSpec = field(
        default_factory=lambda: TaskDistributionSpec(2, 2, -10.0, -10.0)
    )
    bits: int | None = 4
    m_tasks: int = 4096
    n_context: int = 20
    batch_size: int = 64
    n_steps: int = 50_000
    lr: float = 1e-4
    warmup_steps: int = 1000
    # a constant, not a field: the loss covers every received-signal position
    loss_positions: ClassVar[str] = "all_y"
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.m_tasks < 1 or self.batch_size < 1:
            raise ValueError("m_tasks and batch_size must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not np.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if not (np.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale}")
        Quantizer(self.bits)  # checks the resolution's range
        for name in ("n_steps", "warmup_steps", "n_context"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_context > self.model.n_max:
            raise ValueError(
                f"n_context={self.n_context} exceeds the model's n_max={self.model.n_max}"
            )
        m, t = self.model, self.tasks
        if m.d_s < 2 * max(t.n_t, t.n_r) or m.n_classes != 4**t.n_t:
            raise ValueError(
                f"a model with d_s={m.d_s}, n_classes={m.n_classes} "
                f"cannot read n_t={t.n_t}, n_r={t.n_r} tasks"
            )

    @property
    def quantizer(self) -> Quantizer:
        return Quantizer(bits=self.bits)


@dataclass(frozen=True)
class PretrainTaskSet:
    """The frozen pre-training tasks, reproducible from (spec, seed)."""

    hs: np.ndarray  # (M, n_r, n_t)
    sigma2s: np.ndarray  # (M,)

    @classmethod
    def sample(cls, spec: TaskDistributionSpec, m: int, rng: RngStream) -> "PretrainTaskSet":
        hs = rng.complex_normal((m, spec.n_r, spec.n_t))
        u = np.atleast_1d(rng.uniform(spec.sigma2_db_min, spec.sigma2_db_max, size=m))
        return cls(hs=hs, sigma2s=10.0 ** (u / 10.0))

    def __len__(self) -> int:
        return self.hs.shape[0]


@dataclass(frozen=True)
class TrainBatch:
    """Packed batch: interleaved tokens plus realified targets.

    ``targets`` is (2 n_t, B, N+1); slot i holds the input paired with the
    i-th received-signal position, the test input last.
    """

    tokens: np.ndarray
    targets: np.ndarray

    @classmethod
    def from_arrays(cls, config: ModelConfig, xs: np.ndarray, ys: np.ndarray) -> "TrainBatch":
        tokens = build_tokens(config, xs, ys)
        targets = np.moveaxis(realify_obs(xs), -1, 0)
        return cls(tokens=tokens, targets=targets)

    @property
    def size(self) -> int:
        return self.tokens.shape[1]


def sample_train_batch(
    taskset: PretrainTaskSet,
    cfg: TrainConfig,
    constellation: Constellation,
    stream: RngStream,
) -> TrainBatch:
    """Fresh pilots, noise, and test pair for a uniform draw of tasks."""
    ti = np.atleast_1d(stream.integers(0, len(taskset), size=cfg.batch_size))
    xs, ys = sample_pairs(
        taskset.hs[ti], taskset.sigma2s[ti], cfg.quantizer, constellation, cfg.n_context + 1, stream
    )
    return TrainBatch.from_arrays(cfg.model, xs, ys)


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------


def _loss(params: dict, cfg: TrainConfig, batch: TrainBatch, constellation):
    """``(loss, diff, c, vjp)``: the mean squared error ``sum(diff**2) * c``
    of the estimates, with ``c`` one over the batch size times the read-out
    positions, and the model's VJP."""
    _, est, vjp = forward_graph(params, cfg.model, batch.tokens, constellation)
    diff = est - batch.targets
    c = 1.0 / (batch.size * est.shape[2])
    return (diff * diff).sum() * c, diff, c, vjp


def batch_loss(
    params: dict, cfg: TrainConfig, batch: TrainBatch, constellation: Constellation
) -> float:
    """Mean squared estimation error over the batch and positions."""
    return float(_loss(params, cfg, batch, constellation)[0])


def gradient(
    params: dict, cfg: TrainConfig, batch: TrainBatch, constellation: Constellation
) -> tuple[float, dict]:
    """Loss and its exact reverse-mode gradient for every parameter.

    A non-finite loss raises GraphNumericsError naming the first
    non-finite parameter, or the forward pass when every parameter is
    finite; so does a non-finite gradient, naming its parameter.
    """
    loss, diff, c, vjp = _loss(params, cfg, batch, constellation)
    if not np.isfinite(loss):
        bad = next((name for name, p in params.items() if not np.all(np.isfinite(p))), None)
        where = f"parameter {bad}" if bad else "the forward pass (every parameter is finite)"
        raise GraphNumericsError(f"non-finite loss {loss}: non-finite value in {where}")
    grads = vjp(2.0 * diff * c)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise GraphNumericsError(f"non-finite gradient for {name}")
    return float(loss), grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's moment estimates and step count; its settings are ``ADAM``."""

    m: dict
    v: dict
    t: int

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


def adam_step(
    params: dict, grads: dict, state: AdamState, cfg: TrainConfig
) -> tuple[dict, AdamState]:
    """One Adam update with bias correction; global-norm clipping first.

    The settings are ``ADAM``.  The learning rate ``cfg.lr`` ramps up
    linearly over the first ``cfg.warmup_steps`` updates, counted by
    ``state.t``.
    """
    clip_norm = ADAM["clip_norm"]
    gn = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if gn > clip_norm:
        s = clip_norm / gn
        grads = {k: g * s for k, g in grads.items()}
    state.t += 1
    step_lr = cfg.lr * min(1.0, state.t / cfg.warmup_steps) if cfg.warmup_steps else cfg.lr
    b1, b2 = ADAM["beta1"], ADAM["beta2"]
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    out = {}
    for k, p in params.items():
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * (g * g)
        mhat = state.m[k] / c1
        vhat = state.v[k] / c2
        out[k] = p - step_lr * mhat / (np.sqrt(vhat) + ADAM["epsilon"])
    return out, state


# ---------------------------------------------------------------------------
# pre-training loop
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """The process's peak resident set size (``ru_maxrss``, in bytes on
    macOS and KiB elsewhere) in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def pretrain(cfg: TrainConfig) -> tuple[dict, list[tuple[int, float]], PretrainTaskSet]:
    """Train on a frozen task set; returns params, loss curve, and the set.

    Fully reproducible from ``cfg.seed``: task sampling, initialization and
    every step's data come from streams derived from it.  Progress lines,
    about twenty per run, are logged at INFO; each gives the mean
    wall-clock time per step since the previous line and the process's
    peak resident set size so far.
    """
    root = RngStream(cfg.seed)
    taskset = PretrainTaskSet.sample(cfg.tasks, cfg.m_tasks, root.derive(0))
    constellation = qam4_constellation(cfg.tasks.n_t)
    params = init_params(cfg.model, root.derive(1), scale=cfg.init_scale)
    state = AdamState.init(params)
    curve: list[tuple[int, float]] = []
    line_time, line_step = time.perf_counter(), 0
    for step in range(cfg.n_steps):
        batch = sample_train_batch(taskset, cfg, constellation, root.derive(2, step))
        try:
            loss, grads = gradient(params, cfg, batch, constellation)
        except GraphNumericsError as exc:
            raise TrainingDivergedError(f"step {step}: {exc}") from exc
        if loss > 1e3:  # gradient raised on a non-finite loss
            raise TrainingDivergedError(f"loss {loss} at step {step}")
        params, state = adam_step(params, grads, state, cfg)
        curve.append((step, loss))
        if step % max(1, cfg.n_steps // 20) == 0 or step == cfg.n_steps - 1:
            recent = np.mean([l for _, l in curve[-200:]])
            now = time.perf_counter()
            ms = 1e3 * (now - line_time) / (step + 1 - line_step)
            log.info(
                "step %d/%d loss %.4f (avg %.4f) %.1f ms/step, peak RSS %.0f MB",
                step, cfg.n_steps, loss, recent, ms, _peak_rss_mb(),
            )
            line_time, line_step = now, step + 1
    return params, curve, taskset


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class CheckpointError(ValueError):
    pass


# settings that were config keys before they became constants, by section of
# a checkpoint's config: older checkpoints carry them, and load only at these values
_FIXED_KEYS = {
    "model": {"use_causal_mask": True, "use_positional": True},
    "train": {**ADAM, "loss_positions": "all_y"},
}


def save_checkpoint(params: dict, config: TrainConfig, path: str) -> None:
    """Write a numpy ``.npz`` archive that ``np.load(path)`` opens.

    The archive holds one little-endian float64 array per tensor and a
    string array ``__config__``: the JSON of ``{"model": ..., "train": ...}``,
    the model config and the training config that holds it.  ``path`` is
    used as given; no ``.npz`` suffix is appended.
    """
    meta = {"model": asdict(config.model), "train": asdict(config)}
    tensors = {name: np.asarray(arr, dtype="<f8") for name, arr in params.items()}
    with open(path, "wb") as f:
        np.savez(f, __config__=np.array(json.dumps(meta)), **tensors)


def load_checkpoint(path: str) -> tuple[dict, ModelConfig, TrainConfig]:
    """Read a checkpoint back; bit-exact tensors.

    A missing file raises FileNotFoundError.  Anything else that is not an
    intact checkpoint of a consistent architecture, including any archive
    member that fails its CRC-32, raises CheckpointError; so does a missing
    training config, or one that carries a key of ``_FIXED_KEYS`` at any
    other value (the error names the key).
    """
    with open(path, "rb") as f:
        if f.read(4) != b"PK\x03\x04":
            raise CheckpointError(f"{path} is not an .npz archive (bad magic)")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as archive:
                params = {name: archive[name] for name in archive.files}
            meta = json.loads(str(params.pop("__config__")))
            if "train" not in meta:
                raise ValueError("the archive holds no training config")
            for section, fixed in _FIXED_KEYS.items():
                for key, value in fixed.items():
                    got = meta[section].pop(key, value)
                    if type(got) is not type(value) or got != value:
                        raise ValueError(f"{key} must be {value!r}, got {got!r}")
            model = ModelConfig(**meta["model"])
            kw = meta["train"]
            tasks = TaskDistributionSpec(**kw["tasks"])
            train = TrainConfig(**{**kw, "model": model, "tasks": tasks})
        # damaged bytes surface as any of these from zipfile (CRC-32 included),
        # the npy reader, json or the config checks
        except (BadZipFile, EOFError, KeyError, OSError, RuntimeError, TypeError, ValueError) as e:
            raise CheckpointError(f"corrupt checkpoint {path}: {type(e).__name__}: {e}") from e
    shapes = param_shapes(model)
    if set(params) != set(shapes):
        missing = sorted(set(shapes) - set(params))
        extra = sorted(set(params) - set(shapes))
        raise CheckpointError(f"checkpoint tensors: missing {missing}, unexpected {extra}")
    for name, arr in params.items():
        if arr.dtype != np.dtype("<f8"):
            raise CheckpointError(f"tensor {name} has dtype {arr.dtype}, expected float64")
        if arr.shape != shapes[name]:
            raise CheckpointError(f"tensor {name} has shape {arr.shape}, expected {shapes[name]}")
    return params, model, train
