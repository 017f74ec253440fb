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

import json
import logging
from dataclasses import asdict, dataclass, field
from zipfile import BadZipFile

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
        for name in ("n_steps", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
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


class CheckpointError(ValueError):
    pass


def save_checkpoint(
    params: dict, config: ModelConfig, path: str, train_config: TrainConfig | None = None
) -> None:
    """Write a numpy ``.npz`` archive that ``np.load(path)`` opens.

    The archive holds one little-endian float64 array per tensor and a
    string array ``__config__``: the JSON of ``{"model": ..., "train": ...}``
    (``"train"`` only when ``train_config`` is given).  ``path`` is used as
    given; no ``.npz`` suffix is appended.
    """
    meta = {"model": asdict(config)}
    if train_config is not None:
        meta["train"] = asdict(train_config)
    tensors = {name: np.asarray(arr, dtype="<f8") for name, arr in params.items()}
    with open(path, "wb") as f:
        np.savez(f, __config__=np.array(json.dumps(meta)), **tensors)


def load_checkpoint(
    path: str, expect: ModelConfig | None = None
) -> tuple[dict, ModelConfig, TrainConfig | None]:
    """Read a checkpoint back; bit-exact tensors.

    A missing file raises FileNotFoundError.  Anything else that is not an
    intact checkpoint of a consistent architecture, including any archive
    member that fails its CRC-32, raises CheckpointError; so does any
    architecture mismatch with ``expect``, when given.
    """
    with open(path, "rb") as f:
        if f.read(4) != b"PK\x03\x04":
            raise CheckpointError(f"{path} is not an .npz archive (bad magic)")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as archive:
                params = {name: archive[name] for name in archive.files}
            meta = json.loads(str(params.pop("__config__")))
            model = ModelConfig(**meta["model"])
            train = None
            if "train" in meta:
                kw = meta["train"]
                tasks = TaskDistributionSpec(**kw["tasks"])
                train = TrainConfig(**{**kw, "model": model, "tasks": tasks})
        # damaged bytes surface as any of these from zipfile (CRC-32 included),
        # the npy reader, json or the config checks
        except (BadZipFile, EOFError, KeyError, OSError, RuntimeError, TypeError, ValueError) as e:
            raise CheckpointError(f"corrupt checkpoint {path}: {type(e).__name__}: {e}") from e
    if expect is not None and model != expect:
        raise CheckpointError(f"checkpoint architecture {model} != expected {expect}")
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
