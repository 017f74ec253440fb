"""Pre-training across fading tasks: loss, gradients, Adam, checkpoints.

The task set is sampled once from the task distribution and frozen; every
step draws tasks uniformly with replacement from it and generates fresh
pilot contexts and test pairs through the channel (the channel of a task
never changes, its noise and pilots do).  The objective is the squared
error of the soft symbol estimate, either at every received-signal
position ("all_y", one prediction per context length 0..N, the default) or
only at the final query position ("final_only").

Gradients are exact reverse-mode derivatives from the autodiff tape, and
training runs single-threaded in binary64, so a (config, seed) pair
reproduces parameters bit for bit.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import GraphNumericsError, Tape
from .channel import (
    Constellation,
    Quantizer,
    Task,
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
    leaf_params,
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
    "TrainingDivergedError",
]

log = logging.getLogger(__name__)

ALL_Y = "all_y"
FINAL_ONLY = "final_only"


class TrainingDivergedError(RuntimeError):
    pass


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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float | None = 1.0
    loss_positions: str = ALL_Y
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.m_tasks < 1 or self.batch_size < 1:
            raise ValueError("m_tasks and batch_size must be >= 1")
        if self.loss_positions not in (ALL_Y, FINAL_ONLY):
            raise ValueError(f"unknown loss_positions {self.loss_positions!r}")
        if self.n_context > self.model.n_max:
            raise ValueError(
                f"n_context={self.n_context} exceeds the model's n_max={self.model.n_max}"
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

    def task(self, i: int) -> Task:
        return Task(h=self.hs[i], sigma2=float(self.sigma2s[i]))


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
    xs, ys, _ = sample_pairs(
        taskset.hs[ti], taskset.sigma2s[ti], cfg.quantizer, constellation, cfg.n_context + 1, stream
    )
    return TrainBatch.from_arrays(cfg.model, xs, ys)


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------


def _loss_graph(tape: Tape, params: dict, cfg: TrainConfig, batch: TrainBatch, constellation):
    p = leaf_params(tape, params)
    _, est = forward_graph(tape, p, cfg.model, batch.tokens, constellation)
    np1 = est.value.shape[2]
    tgt = batch.targets
    if cfg.loss_positions == FINAL_ONLY:
        est = tape.index_last(est, np.array([np1 - 1]))
        tgt = tgt[:, :, -1:]
        denom = batch.size
    else:
        denom = batch.size * np1
    diff = tape.sub(est, tape.constant(tgt))
    return tape.scale(tape.sum_all(tape.square(diff)), 1.0 / denom)


def batch_loss(
    params: dict,
    cfg: TrainConfig,
    batch: TrainBatch,
    constellation: Constellation | None = None,
) -> float:
    """Mean squared estimation error over the batch (and positions)."""
    constellation = constellation or qam4_constellation(cfg.tasks.n_t)
    tape = Tape()
    return float(_loss_graph(tape, params, cfg, batch, constellation).value)


def gradient(
    params: dict,
    cfg: TrainConfig,
    batch: TrainBatch,
    constellation: Constellation | None = None,
) -> tuple[float, dict]:
    """Loss and its exact reverse-mode gradient for every parameter."""
    constellation = constellation or qam4_constellation(cfg.tasks.n_t)
    tape = Tape()
    loss = _loss_graph(tape, params, cfg, batch, constellation)
    if not np.isfinite(loss.value):
        # rebuild with per-node checking to name the first bad node
        _loss_graph(Tape(check_finite=True), params, cfg, batch, constellation)
        raise GraphNumericsError("non-finite loss with finite intermediates")
    grads = tape.backward(loss)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise GraphNumericsError(f"non-finite gradient for {name}")
    return float(loss.value), grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int
    lr: float
    beta1: float
    beta2: float
    epsilon: float
    clip_norm: float | None

    @classmethod
    def init(cls, params: dict, lr=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8, clip_norm=1.0):
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
            clip_norm=clip_norm,
        )


def adam_step(
    params: dict, grads: dict, state: AdamState, lr: float | None = None
) -> tuple[dict, AdamState]:
    """One Adam update with bias correction; global-norm clipping first."""
    if state.clip_norm is not None:
        gn = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if gn > state.clip_norm:
            s = state.clip_norm / gn
            grads = {k: g * s for k, g in grads.items()}
    state.t += 1
    step_lr = state.lr if lr is None else lr
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    out = {}
    for k, p in params.items():
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * (g * g)
        mhat = state.m[k] / c1
        vhat = state.v[k] / c2
        out[k] = p - step_lr * mhat / (np.sqrt(vhat) + state.epsilon)
    return out, state


# ---------------------------------------------------------------------------
# pre-training loop
# ---------------------------------------------------------------------------


def pretrain(
    cfg: TrainConfig, verbose: bool = False
) -> tuple[dict, list[tuple[int, float]], PretrainTaskSet]:
    """Train on a frozen task set; returns params, loss curve, and the set.

    Fully reproducible from ``cfg.seed``: task sampling, initialization and
    every step's data come from streams derived from it.
    """
    root = RngStream(cfg.seed)
    taskset = PretrainTaskSet.sample(cfg.tasks, cfg.m_tasks, root.derive(0))
    constellation = qam4_constellation(cfg.tasks.n_t)
    params = init_params(cfg.model, root.derive(1), scale=cfg.init_scale)
    state = AdamState.init(
        params,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        epsilon=cfg.epsilon,
        clip_norm=cfg.clip_norm,
    )
    curve: list[tuple[int, float]] = []
    for step in range(cfg.n_steps):
        batch = sample_train_batch(taskset, cfg, constellation, root.derive(2, step))
        try:
            loss, grads = gradient(params, cfg, batch, constellation)
        except GraphNumericsError as exc:
            raise TrainingDivergedError(f"step {step}: {exc}") from exc
        if not np.isfinite(loss) or loss > 1e3:
            raise TrainingDivergedError(f"loss {loss} at step {step}")
        warm = min(1.0, (step + 1) / cfg.warmup_steps) if cfg.warmup_steps else 1.0
        params, state = adam_step(params, grads, state, lr=cfg.lr * warm)
        curve.append((step, loss))
        if verbose and (step % max(1, cfg.n_steps // 20) == 0 or step == cfg.n_steps - 1):
            recent = np.mean([l for _, l in curve[-200:]])
            log.info("step %d/%d loss %.4f (avg %.4f)", step, cfg.n_steps, loss, recent)
    return params, curve, taskset


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"ICLEQCK1"
_VERSION = 1


class CheckpointError(ValueError):
    pass


def _config_entries(model: ModelConfig, train: TrainConfig | None) -> dict[str, str]:
    out = {f"model.{f.name}": repr(getattr(model, f.name)) for f in fields(ModelConfig)}
    if train is not None:
        for f in fields(TrainConfig):
            if f.name in ("model", "tasks"):
                continue
            out[f"train.{f.name}"] = repr(getattr(train, f.name))
        for f in fields(TaskDistributionSpec):
            out[f"task.{f.name}"] = repr(getattr(train.tasks, f.name))
    return out


def _parse_literal(s: str):
    import ast

    return ast.literal_eval(s)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointError("string field too long")
    return struct.pack("<H", len(raw)) + raw


def save_checkpoint(
    params: dict, config: ModelConfig, path: str, train_config: TrainConfig | None = None
) -> None:
    """Self-describing binary container: magic, version, config entries,
    then named float64 tensors (rank, dims, little-endian payload)."""
    entries = _config_entries(config, train_config)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(entries)))
        for k in sorted(entries):
            f.write(_pack_str(k))
            f.write(_pack_str(entries[k]))
        f.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            f.write(_pack_str(name))
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        return self.take(self.u16()).decode("utf-8")


def load_checkpoint(
    path: str, expect: ModelConfig | None = None
) -> tuple[dict, ModelConfig, TrainConfig | None]:
    """Read a checkpoint back; bit-exact tensors.

    With ``expect`` given, any architecture mismatch raises CheckpointError.
    """
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(len(_MAGIC)) != _MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = r.u32()
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    entries = {}
    for _ in range(r.u32()):
        k = r.text()
        entries[k] = r.text()
    params = {}
    for _ in range(r.u32()):
        name = r.text()
        rank = r.u32()
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        arr = np.frombuffer(r.take(8 * math.prod(dims)), dtype="<f8").reshape(dims).copy()
        params[name] = arr
    model_kw = {
        f.name: _parse_literal(entries[f"model.{f.name}"])
        for f in fields(ModelConfig)
        if f"model.{f.name}" in entries
    }
    model = ModelConfig(**model_kw)
    train = None
    if any(k.startswith("train.") for k in entries):
        task_kw = {
            f.name: _parse_literal(entries[f"task.{f.name}"])
            for f in fields(TaskDistributionSpec)
        }
        train_kw = {
            f.name: _parse_literal(entries[f"train.{f.name}"])
            for f in fields(TrainConfig)
            if f"train.{f.name}" in entries
        }
        train = TrainConfig(model=model, tasks=TaskDistributionSpec(**task_kw), **train_kw)
    if expect is not None and model != expect:
        raise CheckpointError(f"checkpoint architecture {model} != expected {expect}")
    shapes = param_shapes(model)
    if set(params) != set(shapes):
        missing = sorted(set(shapes) - set(params))
        extra = sorted(set(params) - set(shapes))
        raise CheckpointError(f"checkpoint tensors: missing {missing}, unexpected {extra}")
    for name, arr in params.items():
        if tuple(arr.shape) != shapes[name]:
            raise CheckpointError(f"tensor {name} has shape {arr.shape}, expected {shapes[name]}")
    return params, model, train
