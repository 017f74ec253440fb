"""Experiment orchestration: paired evaluation, sweeps, CSV and plot data.

Every comparison in this package is paired: one :class:`EvalSet` freezes
the test tasks, pilot contexts, and test pairs, and every equalizer
consumes exactly those draws (the SHA-256 draw hash makes this auditable).
Mean squared error is the squared norm of the complex estimation error,
summed over transmit antennas, with a 95% normal-approximation interval
over the individual draws.

Three sweeps reproduce the study's headline experiments: error versus the
number of pre-training tasks (threshold behavior), versus test SNR
(adaptivity of range-trained models), and versus quantizer resolution.
Each builds all its grid points from :class:`ExperimentConfig`, whose
settings fill the run configs' fields of the same name, so every config
check runs before one driver trains anything.  The driver trains each
TrainConfig it is not given, builds each EvalProtocol's draws once, checks
them against every model's pre-training tasks, and evaluates each (row,
TrainConfig, EvalProtocol) once, copying the row to every point that repeats
it.  :func:`run_checkpoint_eval` scores a trained model as a one-point sweep.
Results serialize to a fixed CSV schema; :func:`emit_plot_data` converts a
CSV into gnuplot-ready columnar blocks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .channel import (
    MAX_ABS_DB,
    ContextSet,
    Quantizer,
    Task,
    TaskDistributionSpec,
    qam4_constellation,
    sample_pairs,
    sample_task,
)
from .estimators import (
    bayes_mmse_continuous_mc,
    bayes_mmse_discrete,
    bayes_mmse_gaussian_exact,
    lmmse_known_task,
    mmse_known_task,
)
from .rng import RngStream
from .training import PretrainTaskSet, TrainConfig, pretrain
from .transformer import ModelConfig, build_tokens, forward_batch

__all__ = [
    "EvalProtocol",
    "EvalSet",
    "EvalResult",
    "Equalizer",
    "ExperimentConfig",
    "evaluate",
    "run_threshold_sweep",
    "run_snr_sweep",
    "run_quantization_sweep",
    "results_to_csv",
    "emit_plot_data",
    "parse_config_file",
]

log = logging.getLogger(__name__)

CSV_HEADER = "sweep,estimator,value,mse,ci_low,ci_high,n_samples,ess,seed"
LOW_ESS_THRESHOLD = 50.0


# ---------------------------------------------------------------------------
# evaluation protocol and frozen draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalProtocol:
    """How one evaluation is run; everything needed to regenerate its draws."""

    n_test_tasks: int = 500
    n_context: int = 20
    n_test_symbols_per_task: int = 64
    bits: int | None = 4
    tasks: TaskDistributionSpec = field(
        default_factory=lambda: TaskDistributionSpec(2, 2, -10.0, -10.0)
    )
    seed: int = 0
    mc_samples: int = 2**14

    def __post_init__(self):
        if min(self.n_test_tasks, self.n_test_symbols_per_task) < 1:
            raise ValueError("test counts must be >= 1")
        if self.n_context < 0:
            raise ValueError(f"n_context must be >= 0, got {self.n_context}")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")
        Quantizer(self.bits)  # checks the resolution's range
        if self.n_test_tasks * self.n_test_symbols_per_task < 2:
            raise ValueError(
                "an evaluation needs at least two draws for its confidence interval: "
                "n_test_tasks * n_test_symbols_per_task must be >= 2"
            )

    @property
    def quantizer(self) -> Quantizer:
        return Quantizer(bits=self.bits)


@dataclass(frozen=True)
class EvalSet:
    """Frozen evaluation draws shared by every equalizer in a run."""

    protocol: EvalProtocol
    hs: np.ndarray  # (T, n_r, n_t)
    sigma2s: np.ndarray  # (T,)
    ctx_xs: np.ndarray  # (T, N, n_t)
    ctx_ys: np.ndarray  # (T, N, n_r)
    test_xs: np.ndarray  # (T, S, n_t)
    test_ys: np.ndarray  # (T, S, n_r)

    def __post_init__(self):
        p = self.protocol
        t, n, s = p.n_test_tasks, p.n_context, p.n_test_symbols_per_task
        n_t, n_r = p.tasks.n_t, p.tasks.n_r
        expected = {
            "hs": (t, n_r, n_t),
            "sigma2s": (t,),
            "ctx_xs": (t, n, n_t),
            "ctx_ys": (t, n, n_r),
            "test_xs": (t, s, n_t),
            "test_ys": (t, s, n_r),
        }
        for name, shape in expected.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(
                    f"EvalSet.{name} must have shape {shape} for its protocol, got {got}"
                )

    @classmethod
    def build(cls, protocol: EvalProtocol) -> "EvalSet":
        p = protocol
        constellation = qam4_constellation(p.tasks.n_t)
        q = p.quantizer
        root = RngStream(p.seed)
        draws = []
        for i in range(p.n_test_tasks):
            st = root.derive(i)
            task = sample_task(p.tasks, st)
            ctx_xs, ctx_ys = sample_pairs(task.h, task.sigma2, q, constellation, p.n_context, st)
            test_xs, test_ys = sample_pairs(
                task.h, task.sigma2, q, constellation, p.n_test_symbols_per_task, st
            )
            draws.append((task.h, task.sigma2, ctx_xs, ctx_ys, test_xs, test_ys))
        out = cls(p, *(np.array(column) for column in zip(*draws)))
        log.info("evaluation draws ready: hash %s", out.draw_hash())
        return out

    def draw_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.hs, self.sigma2s, self.ctx_xs, self.ctx_ys, self.test_xs, self.test_ys):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]

    def task(self, i: int) -> Task:
        return Task(h=self.hs[i], sigma2=float(self.sigma2s[i]))

    def context(self, i: int) -> ContextSet:
        return ContextSet(xs=self.ctx_xs[i], ys=self.ctx_ys[i])


@dataclass(frozen=True)
class EvalResult:
    estimator: str
    sweep: str
    value: float  # inf encodes the unquantized point in bit sweeps
    mse: float
    ci_low: float
    ci_high: float
    n_samples: int
    ess: float | None
    seed: int


# ---------------------------------------------------------------------------
# equalizers under test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equalizer:
    """A named estimator: either the trained model or one of the references.

    ``estimate(task, q, constellation, context, ys, rng)`` returns the
    estimates of one task's test observations ``ys`` and, for a Monte-Carlo
    reference, the effective sample size (else None).  Each factory binds
    its own settings into it.
    """

    kind: str
    estimate: Callable[..., tuple[np.ndarray, float | None]]

    KINDS = ("icl", "mmse_known", "lmmse", "bayes_discrete", "bayes_mc", "bayes_exact")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown equalizer kind {self.kind!r}")

    @classmethod
    def icl(cls, params: dict, model: ModelConfig) -> "Equalizer":
        def estimate(t, q, c, ctx, ys, rng):
            # one sequence per task: the pilots once, then every test symbol
            tokens = build_tokens(model, ctx.xs[None], np.concatenate([ctx.ys, ys])[None], len(ys))
            _, est = forward_batch(params, model, c, tokens, len(ys))
            return est[0, len(ctx):], None

        return cls("icl", estimate)

    @classmethod
    def mmse(cls) -> "Equalizer":
        return cls("mmse_known", lambda t, q, c, ctx, ys, rng: (mmse_known_task(t, q, c, ys), None))

    @classmethod
    def lmmse(cls) -> "Equalizer":
        return cls("lmmse", lambda t, q, c, ctx, ys, rng: (lmmse_known_task(t, ys), None))

    @classmethod
    def bayes_discrete(cls, channels) -> "Equalizer":
        def estimate(t, q, c, ctx, ys, rng):
            return bayes_mmse_discrete(channels, t.sigma2, q, c, ctx, ys), None

        return cls("bayes_discrete", estimate)

    @classmethod
    def bayes_mc(cls, k: int) -> "Equalizer":
        def estimate(t, q, c, ctx, ys, rng):
            return bayes_mmse_continuous_mc(t.sigma2, q, c, ctx, ys, k, rng)

        return cls("bayes_mc", estimate)

    @classmethod
    def bayes_exact(cls) -> "Equalizer":
        def estimate(t, q, c, ctx, ys, rng):
            return bayes_mmse_gaussian_exact(t.sigma2, c, ctx, ys, quantizer=q), None

        return cls("bayes_exact", estimate)


def _draw_estimates(equalizer: Equalizer, evalset: EvalSet) -> tuple[np.ndarray, list[float]]:
    """The estimate of every draw (n_tasks, n_symbols, n_t) plus the
    per-task effective sample sizes of a Monte-Carlo reference."""
    p = evalset.protocol
    constellation = qam4_constellation(p.tasks.n_t)
    root = RngStream(p.seed).derive(40, Equalizer.KINDS.index(equalizer.kind))
    ests = np.empty(evalset.test_xs.shape, dtype=complex)
    esss = []
    for i in range(p.n_test_tasks):
        ests[i], ess = equalizer.estimate(
            evalset.task(i), p.quantizer, constellation, evalset.context(i),
            evalset.test_ys[i], root.derive(i),
        )
        if ess is not None:
            esss.append(ess)
    return ests, esss


def evaluate(
    equalizer: Equalizer,
    evalset: EvalSet,
    sweep: str = "eval",
    value: float = 0.0,
    estimator_name: str | None = None,
) -> EvalResult:
    """Mean squared error of one equalizer over a frozen evaluation set.

    Pass the same ``evalset`` to every equalizer of a comparison so all of
    them consume identical draws.  The row is named by ``estimator_name``,
    else by the equalizer's kind.
    """
    est, esss = _draw_estimates(equalizer, evalset)
    flat = np.sum(np.abs(est - evalset.test_xs) ** 2, axis=2).ravel()
    mse = float(flat.mean())
    half = float(1.96 * flat.std(ddof=1) / np.sqrt(flat.size))
    med_ess = float(np.median(esss)) if esss else None
    if med_ess is not None and med_ess < LOW_ESS_THRESHOLD:
        log.warning(
            "%s: median ESS %.1f < %.0f, reference row is noisy",
            estimator_name or equalizer.kind, med_ess, LOW_ESS_THRESHOLD,
        )
    return EvalResult(
        estimator=estimator_name or equalizer.kind,
        sweep=sweep,
        value=value,
        mse=mse,
        ci_low=mse - half,
        ci_high=mse + half,
        n_samples=flat.size,
        ess=med_ess,
        seed=evalset.protocol.seed,
    )


def assert_test_isolation(evalset: EvalSet, taskset: PretrainTaskSet) -> None:
    """No evaluation channel may coincide with a pre-training channel.

    Raises AssertionError explicitly, so the check also runs under ``python -O``.
    """
    for h in evalset.hs:
        if np.any(np.all(taskset.hs == h[None], axis=(1, 2))):
            raise AssertionError("evaluation task collides with a pre-training channel")


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment settings, one per config-file key.  Each run-config
    field is the key of the same name unless its builder derives it (``d_s``,
    ``n_max``, ``n_classes``) or is given it (``model``, ``tasks``, ``seed``);
    a field that is neither fails when the config is constructed."""

    # architecture
    n_layers: int = 2
    n_heads: int = 4
    d_e: int = 64
    d_f: int = 256
    # system / task distribution
    n_t: int = 2
    n_r: int = 2
    bits: int | None = 4
    sigma2_db_min: float = -10.0
    sigma2_db_max: float = -10.0
    # pre-training
    m_tasks: int = 4096
    n_context: int = 20
    batch_size: int = 64
    n_steps: int = 50_000
    lr: float = 1e-4
    warmup_steps: int = 1000
    init_scale: float = 0.1
    # evaluation
    n_test_tasks: int = 500
    n_test_symbols_per_task: int = 64
    mc_samples: int = 2**14
    # sweep grids
    m_grid: tuple = (1, 4, 16, 64, 256, 1024)
    snr_db_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    bits_grid: tuple = (1, 2, 3, 4, 6, 8, None)
    seed: int = 0

    def __post_init__(self):
        # every nested check runs here, so a bad value fails before any sweep trains
        self.train_config(seed=self.seed)
        self.protocol(seed=self.seed)
        for entry in self.m_grid:
            if entry < 1:
                raise ValueError(f"m_grid entry {entry} must be >= 1")
        for entry in self.bits_grid:
            if (bound := Quantizer.bits_bound(entry)) is not None:
                raise ValueError(f"bits_grid entry {entry} must be {bound}")
        tenths: dict[int, float] = {}
        for entry in self.snr_db_grid:
            if not np.isfinite(entry):
                raise ValueError(f"snr_db_grid entry {entry} must be finite")
            if not -MAX_ABS_DB <= -entry <= MAX_ABS_DB:
                raise ValueError(
                    f"snr_db_grid entry {entry}: its noise power {-entry} dB is outside "
                    f"[-{MAX_ABS_DB}, {MAX_ABS_DB}] dB"
                )
            # points that round to one tenth of a dB share one draw seed
            if (tenth := _snr_tenths(entry)) in tenths:
                raise ValueError(
                    f"snr_db_grid entries {tenths[tenth]} and {entry} round to the same "
                    "tenth of a dB"
                )
            tenths[tenth] = entry

    def _build(self, cls, **given):
        """A ``cls`` whose every field not ``given`` is the setting of the same name."""
        named = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**given, **named)

    def model_config(self) -> ModelConfig:
        d_s, n_classes = 2 * max(self.n_t, self.n_r), 4**self.n_t
        return self._build(ModelConfig, d_s=d_s, n_max=self.n_context, n_classes=n_classes)

    def task_spec(self) -> TaskDistributionSpec:
        return self._build(TaskDistributionSpec)

    def train_config(self, *, seed: int) -> TrainConfig:
        model, tasks = self.model_config(), self.task_spec()
        return self._build(TrainConfig, model=model, tasks=tasks, seed=seed)

    def protocol(self, *, seed: int) -> EvalProtocol:
        return self._build(EvalProtocol, tasks=self.task_spec(), seed=seed)


def _field_value(lineno: int, key: str, text: str, want: type):
    """Parse one value as its field's type, int or float (which also takes
    integers); none, unquantized and inf give None for the quantizer only."""
    t = text.strip()
    if key in ("bits", "bits_grid") and t.lower() in ("none", "unquantized", "inf"):
        return None
    try:
        return want(t)
    except ValueError:
        raise ValueError(
            f"config line {lineno}: {key} takes {want.__name__} values, got {t!r}"
        ) from None


def parse_config_file(text: str) -> ExperimentConfig:
    """Flat ``key = value`` lines; '#' comments; lists are comma-separated.

    Each value must have the type of its field's default (a grid's elements
    that of its first default element); a mismatch, a repeated key or a value
    out of range raises ValueError.
    """
    defaults = asdict(ExperimentConfig())
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in defaults:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        default = defaults[key]
        if isinstance(default, tuple):
            want = type(default[0])
            out[key] = tuple(_field_value(lineno, key, v, want) for v in val.split(","))
        else:
            out[key] = _field_value(lineno, key, val, type(default))
    return ExperimentConfig(**out)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _seed_int(root: RngStream, *idx) -> int:
    return root.derive(*idx).stream & 0x7FFFFFFF


def _snr_tenths(snr_db: float) -> int:
    """The draw-seed index of an SNR grid point: its SNR in tenths of a dB."""
    return int(round(10 * snr_db))


def _icl(params, model, taskset) -> Equalizer:
    return Equalizer.icl(params, model)


_KNOWN_TASK = [
    ("mmse_known", None, lambda *_: Equalizer.mmse()),
    ("lmmse", None, lambda *_: Equalizer.lmmse()),
]


def _sweep(
    title: str, sweep: str, points: list, label: Callable, models: dict
) -> list[EvalResult]:
    """Run a sweep's grid points ``(value, protocol, rows)``, in order.

    A row is ``(name, train, make)``: the TrainConfig of the model it needs
    (None for a known-task or true-prior reference), and ``make(params,
    model, taskset)``, which builds its Equalizer.  ``models`` maps each
    TrainConfig to its ``(params, model, taskset)``; the driver trains and
    adds the ones it lacks.  ``label(name, train)`` names a training in the log.
    """
    evalsets: dict[EvalProtocol, EvalSet] = {}
    results: dict[tuple, EvalResult] = {}  # by (name, TrainConfig, EvalProtocol)
    out: list[EvalResult] = []
    for value, protocol, rows in points:
        if protocol not in evalsets:
            evalsets[protocol] = EvalSet.build(protocol)
        for name, train, make in rows:
            key = (name, train, protocol)
            if key not in results:
                args = (None, None, None)
                if train is not None:
                    if train not in models:
                        log.info("%s: training %s", title, label(name, train))
                        params, _, taskset = pretrain(train)
                        models[train] = (params, train.model, taskset)
                    args = models[train]
                    assert_test_isolation(evalsets[protocol], args[2])
                results[key] = evaluate(make(*args), evalsets[protocol], sweep, value, name)
            out.append(replace(results[key], value=value))
    return out


def run_threshold_sweep(cfg: ExperimentConfig) -> list[EvalResult]:
    """Error versus the number of pre-training tasks, at fixed noise power.

    Per grid point M: train a model on M tasks, then evaluate it against
    the discrete-prior reference built from exactly those M channels and
    the true-prior reference (the conjugate closed form when unquantized,
    the importance-sampling approximation otherwise), all on one shared
    evaluation set.
    """
    root = RngStream(cfg.seed)
    protocol = cfg.protocol(seed=_seed_int(root, 90))
    # the true-prior reference does not depend on M: evaluated once, one row per M
    ref = Equalizer.bayes_exact() if cfg.bits is None else Equalizer.bayes_mc(protocol.mc_samples)
    true_prior = (ref.kind, None, lambda *_: ref)
    points = []
    for j, m in enumerate(cfg.m_grid):
        train = replace(cfg, m_tasks=int(m)).train_config(seed=_seed_int(root, 10, j))
        discrete = ("bayes_discrete", train, lambda p, model, ts: Equalizer.bayes_discrete(ts.hs))
        points.append((float(m), protocol, [("icl", train, _icl), discrete, true_prior]))
    return _sweep("threshold sweep", "m_tasks", points, lambda _, tc: f"M={tc.m_tasks}", {})


def run_snr_sweep(cfg: ExperimentConfig) -> list[EvalResult]:
    """Error versus test SNR for fixed-SNR-trained and range-trained models.

    Trains three models (noise power fixed at 1.0, fixed at 0.001, and
    log-uniform over [-30, 0] dB) and evaluates each, plus the known-task
    exact and linear references, at every grid SNR.
    """
    root = RngStream(cfg.seed)
    noise_db = {
        "icl_fixed0db": (0.0, 0.0),
        "icl_fixed30db": (-30.0, -30.0),
        "icl_range": (-30.0, 0.0),
    }
    trained = []
    for j, (name, (lo, hi)) in enumerate(noise_db.items()):
        point = replace(cfg, sigma2_db_min=lo, sigma2_db_max=hi)
        trained.append((name, point.train_config(seed=_seed_int(root, 20, j)), _icl))
    points = []
    for snr_db in cfg.snr_db_grid:
        point = replace(cfg, sigma2_db_min=-float(snr_db), sigma2_db_max=-float(snr_db))
        protocol = point.protocol(seed=_seed_int(root, 91, _snr_tenths(snr_db)))
        points.append((float(snr_db), protocol, trained + _KNOWN_TASK))
    return _sweep("snr sweep", "snr_db", points, lambda name, _: name, {})


def run_quantization_sweep(cfg: ExperimentConfig) -> list[EvalResult]:
    """Error versus quantizer resolution at fixed SNR; one model per width."""
    root = RngStream(cfg.seed)
    points = []
    for j, bits in enumerate(cfg.bits_grid):
        point = replace(cfg, bits=bits)
        train = point.train_config(seed=_seed_int(root, 30, j))
        value = float("inf") if bits is None else float(bits)
        rows = [("icl", train, _icl), *_KNOWN_TASK]
        points.append((value, point.protocol(seed=_seed_int(root, 92, j)), rows))
    return _sweep("quantization sweep", "bits", points, lambda _, tc: f"b={tc.bits}", {})


def run_checkpoint_eval(
    cfg: ExperimentConfig, params: dict, train: TrainConfig
) -> list[EvalResult]:
    """Score a trained model and the known-task references at the SNR midpoint."""
    protocol = cfg.protocol(seed=_seed_int(RngStream(cfg.seed), 93))
    snr_mid = -0.5 * (cfg.sigma2_db_min + cfg.sigma2_db_max)
    points = [(snr_mid, protocol, [("icl", train, _icl), *_KNOWN_TASK])]
    models = {train: (params, train.model, PretrainTaskSet.of(train))}
    return _sweep("eval", "eval", points, lambda name, _: name, models)


# ---------------------------------------------------------------------------
# CSV and plot data
# ---------------------------------------------------------------------------


def results_to_csv(results: list[EvalResult]) -> str:
    lines = [CSV_HEADER]
    for r in results:
        row = dict(vars(r), value=float(r.value))  # a grid point may be an int
        lines.append(",".join("" if row[n] is None else str(row[n]) for n in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def write_results(results: list[EvalResult], path: str) -> None:
    with open(path, "w") as f:
        f.write(results_to_csv(results))


def emit_plot_data(csv_text: str) -> str:
    """One gnuplot block per estimator: value, mse, ci_low, ci_high columns.

    Blocks are separated by two blank lines (gnuplot index separators) and
    values round-trip exactly.  Rows whose median effective sample size is
    below 50 mark their block with a low-ess note.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration as exc:
        raise ValueError("empty CSV input") from exc
    if ",".join(header) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {','.join(header)!r}")
    order: list[str] = []
    rows: dict[str, list[list[str]]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"malformed CSV row: {row!r}")
        est = row[1]
        if est not in order:
            order.append(est)
            rows[est] = []
        rows[est].append(row)
    blocks = []
    for est in order:
        body = [f"# estimator: {est}", f"# sweep: {rows[est][0][0]}"]
        ess_vals = [float(r[7]) for r in rows[est] if r[7] != ""]
        if ess_vals and min(ess_vals) < LOW_ESS_THRESHOLD:
            body.append(f"# low-ess: below {LOW_ESS_THRESHOLD:.0f}, noisy reference")
        body.append("# value mse ci_low ci_high")
        for r in rows[est]:
            body.append(" ".join([r[2], r[3], r[4], r[5]]))
        blocks.append("\n".join(body))
    return ("\n\n\n".join(blocks) + "\n") if blocks else ""
