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
Results serialize to a fixed CSV schema; :func:`emit_plot_data` converts a
CSV into gnuplot-ready columnar blocks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .channel import (
    Constellation,
    ContextSet,
    Quantizer,
    Task,
    TaskDistributionSpec,
    qam4_constellation,
    sample_pairs,
    sample_task,
)
from .estimators import (
    ChannelPrior,
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
MIXTURE_PRUNE_TOL = 1e-13


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

    @classmethod
    def build(cls, protocol: EvalProtocol, constellation: Constellation | None = None) -> "EvalSet":
        p = protocol
        constellation = constellation or qam4_constellation(p.tasks.n_t)
        q = p.quantizer
        root = RngStream(p.seed)
        draws = []
        for i in range(p.n_test_tasks):
            st = root.derive(i)
            task = sample_task(p.tasks, st)
            ctx_xs, ctx_ys, _ = sample_pairs(task.h, task.sigma2, q, constellation, p.n_context, st)
            test_xs, test_ys, _ = sample_pairs(
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
    """A named estimator: either the trained model or one of the references."""

    kind: str
    params: dict | None = None
    model: ModelConfig | None = None
    prior: ChannelPrior | None = None
    k: int | None = None

    KINDS = ("icl", "mmse_known", "lmmse", "bayes_discrete", "bayes_mc", "bayes_exact")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown equalizer kind {self.kind!r}")

    @classmethod
    def icl(cls, params: dict, model: ModelConfig) -> "Equalizer":
        return cls(kind="icl", params=params, model=model)

    @classmethod
    def mmse(cls) -> "Equalizer":
        return cls(kind="mmse_known")

    @classmethod
    def lmmse(cls) -> "Equalizer":
        return cls(kind="lmmse")

    @classmethod
    def bayes_discrete(cls, channels) -> "Equalizer":
        return cls(kind="bayes_discrete", prior=ChannelPrior.discrete(channels))

    @classmethod
    def bayes_mc(cls, k: int) -> "Equalizer":
        return cls(kind="bayes_mc", k=k)

    @classmethod
    def bayes_exact(cls) -> "Equalizer":
        return cls(kind="bayes_exact")


def _icl_estimates(
    eq: Equalizer, task: Task, q: Quantizer, c: Constellation, ctx: ContextSet,
    ys: np.ndarray, rng: RngStream,
) -> tuple[np.ndarray, None]:
    """One sequence per test symbol: the task's pilots, then that symbol."""
    s, n = ys.shape[0], len(ctx)
    xs_seq = np.zeros((s, n + 1, c.n_t), dtype=complex)  # last slot is never a token
    ys_seq = np.empty((s, n + 1, ys.shape[1]), dtype=complex)
    xs_seq[:, :n] = ctx.xs
    ys_seq[:, :n] = ctx.ys
    ys_seq[:, n] = ys
    _, est = forward_batch(eq.params, eq.model, c, build_tokens(eq.model, xs_seq, ys_seq))
    return est[:, -1, :], None


# kind -> (estimates, ess) for the test observations ys of one task
_TASK_ESTIMATES = {
    "icl": _icl_estimates,
    "mmse_known": lambda eq, task, q, c, ctx, ys, rng: (mmse_known_task(task, q, c, ys), None),
    "lmmse": lambda eq, task, q, c, ctx, ys, rng: (lmmse_known_task(task, ys), None),
    "bayes_discrete": lambda eq, task, q, c, ctx, ys, rng: (
        bayes_mmse_discrete(eq.prior, task.sigma2, q, c, ctx, ys, prune_tol=MIXTURE_PRUNE_TOL),
        None,
    ),
    "bayes_mc": lambda eq, task, q, c, ctx, ys, rng: bayes_mmse_continuous_mc(
        task.sigma2, q, c, ctx, ys, eq.k, rng, prune_tol=MIXTURE_PRUNE_TOL
    ),
    "bayes_exact": lambda eq, task, q, c, ctx, ys, rng: (
        bayes_mmse_gaussian_exact(task.sigma2, c, ctx, ys, quantizer=q),
        None,
    ),
}


def _draw_errors(equalizer: Equalizer, evalset: EvalSet) -> tuple[np.ndarray, list[float]]:
    """Squared error of every draw (n_tasks, n_symbols) plus the per-task
    effective sample sizes of a Monte-Carlo reference."""
    p = evalset.protocol
    constellation = qam4_constellation(p.tasks.n_t)
    root = RngStream(p.seed).derive(40, Equalizer.KINDS.index(equalizer.kind))
    estimates = _TASK_ESTIMATES[equalizer.kind]
    errs = np.empty((p.n_test_tasks, p.n_test_symbols_per_task))
    esss = []
    for i in range(p.n_test_tasks):
        est, ess = estimates(
            equalizer, evalset.task(i), p.quantizer, constellation, evalset.context(i),
            evalset.test_ys[i], root.derive(i),
        )
        errs[i] = np.sum(np.abs(est - evalset.test_xs[i]) ** 2, axis=1)
        if ess is not None:
            esss.append(ess)
    return errs, esss


def per_draw_errors(equalizer: Equalizer, evalset: EvalSet) -> np.ndarray:
    """Per-draw squared errors (n_tasks, n_symbols); for paired tests."""
    return _draw_errors(equalizer, evalset)[0]


def evaluate(
    equalizer: Equalizer,
    protocol: EvalProtocol | None = None,
    evalset: EvalSet | None = None,
    sweep: str = "eval",
    value: float = 0.0,
    estimator_name: str | None = None,
) -> EvalResult:
    """Mean squared error of one equalizer over a frozen evaluation set.

    Pass the same ``evalset`` to every equalizer of a comparison so all of
    them consume identical draws.
    """
    if evalset is None:
        if protocol is None:
            raise ValueError("need a protocol or a prebuilt evalset")
        evalset = EvalSet.build(protocol)
    errs, esss = _draw_errors(equalizer, evalset)
    flat = errs.ravel()
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
    """Flat experiment settings; mirrors the config-file keys."""

    # architecture
    n_layers: int = 2
    n_heads: int = 4
    d_e: int = 64
    d_f: int = 256
    n_max: int = 20
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
    loss_positions: str = "all_y"
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

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_e=self.d_e,
            d_f=self.d_f,
            d_s=2 * max(self.n_t, self.n_r),
            n_max=self.n_max,
            n_classes=4**self.n_t,
        )

    def task_spec(self, sigma2_db_min=None, sigma2_db_max=None) -> TaskDistributionSpec:
        return TaskDistributionSpec(
            self.n_t,
            self.n_r,
            self.sigma2_db_min if sigma2_db_min is None else sigma2_db_min,
            self.sigma2_db_max if sigma2_db_max is None else sigma2_db_max,
        )

    def train_config(self, *, seed: int, m_tasks=None, bits="cfg", spec=None) -> TrainConfig:
        return TrainConfig(
            model=self.model_config(),
            tasks=spec or self.task_spec(),
            bits=self.bits if bits == "cfg" else bits,
            m_tasks=self.m_tasks if m_tasks is None else m_tasks,
            n_context=self.n_context,
            batch_size=self.batch_size,
            n_steps=self.n_steps,
            lr=self.lr,
            warmup_steps=self.warmup_steps,
            loss_positions=self.loss_positions,
            init_scale=self.init_scale,
            seed=seed,
        )

    def protocol(self, *, seed: int, bits="cfg", spec=None) -> EvalProtocol:
        return EvalProtocol(
            n_test_tasks=self.n_test_tasks,
            n_context=self.n_context,
            n_test_symbols_per_task=self.n_test_symbols_per_task,
            bits=self.bits if bits == "cfg" else bits,
            tasks=spec or self.task_spec(),
            seed=seed,
            mc_samples=self.mc_samples,
        )


def _parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("none", "unquantized", "inf"):
        return None
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def _field_value(lineno: int, key: str, text: str, want: type):
    """Parse one value and check it fits its field: ints widen to float, and
    None is allowed only for the quantizer resolution."""
    value = _parse_scalar(text)
    if value is None and key in ("bits", "bits_grid"):
        return None
    if want is float and type(value) is int:
        return float(value)
    if type(value) is not want:
        raise ValueError(
            f"config line {lineno}: {key} takes {want.__name__} values, got {text.strip()!r}"
        )
    return value


def parse_config_file(text: str) -> ExperimentConfig:
    """Flat ``key = value`` lines; '#' comments; lists are comma-separated.

    Each value must have the type of its field's default (a grid's elements
    that of its first default element); a mismatch raises ValueError.
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


def run_threshold_sweep(cfg: ExperimentConfig, verbose: bool = False) -> list[EvalResult]:
    """Error versus the number of pre-training tasks, at fixed noise power.

    Per grid point M: train a model on M tasks, then evaluate it against
    the discrete-prior reference built from exactly those M channels and
    the true-prior reference (the conjugate closed form when unquantized,
    the importance-sampling approximation otherwise), all on one shared
    evaluation set.
    """
    root = RngStream(cfg.seed)
    protocol = cfg.protocol(seed=_seed_int(root, 90))
    evalset = EvalSet.build(protocol)
    true_prior = (
        Equalizer.bayes_exact()
        if cfg.bits is None
        else Equalizer.bayes_mc(cfg.mc_samples)
    )
    # the true-prior reference does not depend on M: computed once, one row per M
    sweep = "m_tasks"
    ref = evaluate(true_prior, evalset=evalset, sweep=sweep, value=0.0)
    out: list[EvalResult] = []
    for j, m in enumerate(cfg.m_grid):
        train_cfg = cfg.train_config(seed=_seed_int(root, 10, j), m_tasks=int(m))
        if verbose:
            log.info("threshold sweep: training M=%d", m)
        params, _, taskset = pretrain(train_cfg, verbose=verbose)
        assert_test_isolation(evalset, taskset)
        out.append(
            evaluate(
                Equalizer.icl(params, train_cfg.model),
                evalset=evalset, sweep=sweep, value=float(m),
            )
        )
        out.append(
            evaluate(
                Equalizer.bayes_discrete(taskset.hs),
                evalset=evalset, sweep=sweep, value=float(m),
            )
        )
        out.append(replace(ref, sweep=sweep, value=float(m)))
    return out


def run_snr_sweep(cfg: ExperimentConfig, verbose: bool = False) -> list[EvalResult]:
    """Error versus test SNR for fixed-SNR-trained and range-trained models.

    Trains three models (noise power fixed at 1.0, fixed at 0.001, and
    log-uniform over [-30, 0] dB) and evaluates each, plus the known-task
    exact and linear references, at every grid SNR.
    """
    root = RngStream(cfg.seed)
    trained: dict[str, tuple[dict, ModelConfig]] = {}
    specs = {
        "icl_fixed0db": cfg.task_spec(0.0, 0.0),
        "icl_fixed30db": cfg.task_spec(-30.0, -30.0),
        "icl_range": cfg.task_spec(-30.0, 0.0),
    }
    for j, (name, spec) in enumerate(specs.items()):
        if verbose:
            log.info("snr sweep: training %s", name)
        tc = cfg.train_config(seed=_seed_int(root, 20, j), spec=spec)
        params, _, _ = pretrain(tc, verbose=verbose)
        trained[name] = (params, tc.model)
    out: list[EvalResult] = []
    for snr_db in cfg.snr_db_grid:
        spec = cfg.task_spec(-float(snr_db), -float(snr_db))
        protocol = cfg.protocol(seed=_seed_int(root, 91, int(round(10 * snr_db))), spec=spec)
        evalset = EvalSet.build(protocol)
        for name, (params, model) in trained.items():
            out.append(
                evaluate(
                    Equalizer.icl(params, model),
                    evalset=evalset, sweep="snr_db", value=float(snr_db),
                    estimator_name=name,
                )
            )
        for eq in (Equalizer.mmse(), Equalizer.lmmse()):
            out.append(
                evaluate(eq, evalset=evalset, sweep="snr_db", value=float(snr_db))
            )
    return out


def run_quantization_sweep(cfg: ExperimentConfig, verbose: bool = False) -> list[EvalResult]:
    """Error versus quantizer resolution at fixed SNR; one model per width."""
    root = RngStream(cfg.seed)
    out: list[EvalResult] = []
    for j, bits in enumerate(cfg.bits_grid):
        value = float("inf") if bits is None else float(bits)
        if verbose:
            log.info("quantization sweep: training b=%s", bits)
        tc = cfg.train_config(seed=_seed_int(root, 30, j), bits=bits)
        params, _, _ = pretrain(tc, verbose=verbose)
        protocol = cfg.protocol(seed=_seed_int(root, 92, j), bits=bits)
        evalset = EvalSet.build(protocol)
        out.append(
            evaluate(
                Equalizer.icl(params, tc.model),
                evalset=evalset, sweep="bits", value=value,
            )
        )
        for eq in (Equalizer.mmse(), Equalizer.lmmse()):
            out.append(evaluate(eq, evalset=evalset, sweep="bits", value=value))
    return out


# ---------------------------------------------------------------------------
# CSV and plot data
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def results_to_csv(results: list[EvalResult]) -> str:
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            ",".join(
                [
                    r.sweep,
                    r.estimator,
                    _fmt(float(r.value)),
                    _fmt(r.mse),
                    _fmt(r.ci_low),
                    _fmt(r.ci_high),
                    str(r.n_samples),
                    _fmt(r.ess),
                    str(r.seed),
                ]
            )
        )
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
        if len(row) != 9:
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
