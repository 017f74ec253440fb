"""The three workloads: inputs made from the seed, the timed loop, output
checks and the metrics.

Each workload is a closed loop with one caller: a round makes the
workload's public calls one after another, each starting when the previous
one returned.  The first round is a warm-up and is not timed (a process's
first evaluation pass runs ~1.5x slower).  Output checks run after the
timed rounds; every failed call or check counts against ``ok_frac``.
"""

from __future__ import annotations

import copy
import hashlib
import logging
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from scipy.special import log_ndtr

import reference
import spans
from icleq import channel, experiments, training, transformer
from icleq.rng import RngStream

SETUP_REPEATS = 41
MIN_ROUNDS = 3

# pretrain: steps per pretrain() call; desk preset is the default with d_e = 32
STEPS_PER_CALL = 4
DESK_D_E = 32

# eval: the headline threshold-sweep point
N_CONTEXT = 20
N_SYMBOLS = 64
SIGMA2_DB = -10.0
TASKS_PER_ROUND = 2
POOL_ROUNDS = 32  # distinct input chunks; later rounds cycle through them
M_DISCRETE = 1024  # largest m_grid point
MC_SAMPLES = 2**14

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "rate_per_s": "1/s",
    "forward_ms": "ms",
    "stage_a_ms": "ms",
    "stage_b_ms": "ms",
}


class Calibrator:
    """Times a fixed kernel that does not touch the program: the numpy
    reference forward of a default-size model on a small batch, log_ndtr
    over an array and a little pure Python, the mix the program's time goes
    to.

    The host's speed drifts by up to ~30% within seconds as neighbours load
    it, and the program slows with it.  Each timed call is divided by the
    mean of the kernel's times just before and just after it, which removes
    most of that drift; multiplying by ``REFERENCE_S``, roughly the
    kernel's time on the 2-core Intel Xeon the bounds were set on (median
    scale factors 0.9-1.0 there), keeps the figures near seconds.  The
    unscaled medians are reported beside them; their spread between runs
    was up to about twice the scaled one (``spread.py`` prints both).
    """

    REFERENCE_S = 0.007

    def __init__(self):
        g = np.random.default_rng(0)
        d_e, d_f, h, t = 64, 256, 4, 2 * N_CONTEXT + 1
        self.model = SimpleNamespace(
            n_layers=2, n_heads=h, d_e=d_e, use_positional=True, use_causal_mask=True
        )
        shapes = {"embed": (d_e, 4), "pos": (d_e, t), "head.w": (16, d_e), "head.b": (16,)}
        for l in range(self.model.n_layers):
            for w in ("wq", "wk", "wv"):
                shapes[f"l{l}.{w}"] = (h, d_e // h, d_e)
            shapes.update({f"l{l}.wo": (d_e, d_e), f"l{l}.w1": (d_e, d_f), f"l{l}.w2": (d_f, d_e)})
            shapes.update({f"l{l}.ln_g": (d_e,), f"l{l}.ln_b": (d_e,)})
        self.params = {k: 0.1 * g.standard_normal(v) for k, v in shapes.items()}
        self.tokens = g.standard_normal((4, 4, t))
        self.real_joint = g.standard_normal((4, 16))
        self.x = g.standard_normal(40_000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        reference.forward(self.params, self.model, self.tokens, self.real_joint)
        log_ndtr(self.x)
        sum(i * i for i in range(3_000))
        return time.perf_counter() - t0


class Tally:
    """Attempted and failed operations and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


class Harness:
    """Times the workload's calls, each between two calibrations; with a
    recorder each call is a root span."""

    def __init__(self):
        self.tally = Tally()
        self.recorder: spans.Recorder | None = None
        self.cal = Calibrator()
        self.scales: list[float] = []
        self.unscaled: dict[str, list[float]] = {}
        self._cal_before: float | None = None

    def scale(self, before: float, after: float) -> float:
        return 2 * Calibrator.REFERENCE_S / (before + after)

    def op(self, part: str, fn, *args, **kwargs):
        """One timed call; returns (result or None on failure, calibrated seconds)."""
        if self._cal_before is None:
            self._cal_before = self.cal()
        self.tally.attempted += 1
        rec = self.recorder
        i = rec.begin("bench." + part) if rec else -1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.tally.failed += 1
            self.tally.failures.append(f"{part}: {traceback.format_exc(limit=4)}")
            out = None
        finally:
            dt = time.perf_counter() - t0
            if rec:
                rec.end(i)
        after = self.cal()
        scale = self.scale(self._cal_before, after)
        self._cal_before = after
        self.scales.append(scale)
        self.unscaled.setdefault(part, []).append(dt)
        return out, dt * scale


def _close(a: float, b: float, rtol: float) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b)))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


class Pretrain:
    """``training.pretrain`` at the default architecture and at the desk
    preset (d_e = 32), plus forward-only ``training.batch_loss`` on the
    default model's step-0 batch."""

    units = "step"
    e2e_parts = {"forward_ms": "batch_loss", "stage_a_ms": "pretrain.default", "stage_b_ms": "pretrain.desk"}
    layer_roots = {"bench.pretrain.default"}

    def __init__(self, seed: int):
        self.seed = seed
        self.first: dict[str, tuple] = {}
        self.step0: dict[str, tuple] = {}  # name -> (params, batch) of pretrain's step 0
        self.batch_losses: list[float] = []

    def setup(self) -> None:
        base = experiments.ExperimentConfig()
        self.cfgs = {
            "default": replace(base.train_config(seed=self.seed), n_steps=STEPS_PER_CALL),
            "desk": replace(
                replace(base, d_e=DESK_D_E).train_config(seed=self.seed), n_steps=STEPS_PER_CALL
            ),
        }
        for cfg in self.cfgs.values():  # the work pretrain does before its first step
            training.pretrain(replace(cfg, n_steps=0))
        self.constellation = channel.qam4_constellation(base.n_t)

    @contextmanager
    def _capture_step0(self, name: str):
        """Keeps a copy of the parameters and batch of the first
        ``training.gradient`` call that pretrain makes, so the checks use
        pretrain's own step 0 rather than a copy of its stream layout."""
        original = training.gradient

        def gradient(params, cfg, batch, *args, **kwargs):
            if name not in self.step0:
                self.step0[name] = copy.deepcopy((params, batch))
            return original(params, cfg, batch, *args, **kwargs)

        training.gradient = gradient
        try:
            yield
        finally:
            training.gradient = original

    def digest(self) -> str:
        if "default" not in self.step0:
            return "none"
        params, batch = self.step0["default"]
        return _digest(batch.tokens, batch.targets, *(params[k] for k in sorted(params)))

    def round(self, h: Harness, i: int) -> dict:
        parts, steps, seconds = {}, 0, 0.0
        for name, cfg in self.cfgs.items():
            with self._capture_step0(name) if i == 0 else nullcontext():
                out, dt = h.op("pretrain." + name, training.pretrain, cfg)
            parts["pretrain." + name] = dt / cfg.n_steps
            seconds += dt
            steps += cfg.n_steps
            if out is not None:
                self._check_repeat(h.tally, name, out)
        # fails, and counts, if step 0 could not be captured
        params, batch = self.step0.get("default", (None, None))
        total = 0.0
        for _ in range(STEPS_PER_CALL):
            loss, dt = h.op(
                "batch_loss", training.batch_loss, params, self.cfgs["default"], batch,
                self.constellation,
            )
            total += dt
            if loss is not None:
                self.batch_losses.append(loss)
        parts["batch_loss"] = total / STEPS_PER_CALL
        return {"units": steps, "seconds": seconds, "parts": parts}

    def _check_repeat(self, tally: Tally, name: str, out) -> None:
        """Every call with the same seed must reproduce the first bit for bit."""
        params, curve, _ = out
        losses = [l for _, l in curve]
        tally.check(
            f"pretrain.{name}.curve",
            len(losses) == STEPS_PER_CALL and all(np.isfinite(losses)),
            f"loss curve {losses}",
        )
        if name not in self.first:
            self.first[name] = (params, losses)
            return
        p0, l0 = self.first[name]
        same = losses == l0 and all(np.array_equal(params[k], p0[k]) for k in p0)
        tally.check(f"pretrain.{name}.reproducible", same, "same seed gave different parameters")

    def checks(self, tally: Tally) -> dict:
        real_joint = self.constellation.real_joint()
        rng = np.random.default_rng(self.seed)
        out = {}
        for name, cfg in self.cfgs.items():
            tally.check(
                f"{name}.step0_captured", name in self.step0, "pretrain never called training.gradient"
            )
            if name not in self.step0:
                continue
            params, batch = self.step0[name]
            final_only = cfg.loss_positions == "final_only"
            ref = reference.loss(params, cfg.model, batch.tokens, batch.targets, real_joint, final_only)
            step0 = self.first[name][1][0] if name in self.first else np.nan
            tally.check(
                f"{name}.step0_loss_vs_reference", _close(step0, ref, 1e-9),
                f"pretrain {step0!r} vs reference {ref!r}",
            )
            # directional derivative of the tape gradient vs a central difference
            loss, grads = training.gradient(params, cfg, batch, self.constellation)
            v = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            norm = np.sqrt(sum(float(np.sum(x * x)) for x in v.values()))
            dd = sum(float(np.sum(grads[k] * v[k])) for k in v) / norm
            eps = 1e-5
            lp, lm = (
                reference.loss(
                    {k: p + s * eps * v[k] / norm for k, p in params.items()},
                    cfg.model, batch.tokens, batch.targets, real_joint, final_only,
                )
                for s in (1.0, -1.0)
            )
            cd = (lp - lm) / (2 * eps)
            tally.check(
                f"{name}.directional_derivative",
                abs(dd - cd) <= 1e-5 * max(abs(dd), abs(cd)) + 1e-9,
                f"gradient {dd!r} vs central difference {cd!r}",
            )
            out[name] = {"step0_loss": step0, "reference_loss": ref, "dir_deriv": dd, "central_diff": cd}
        ref = out.get("default", {}).get("reference_loss", np.nan)
        bad = [l for l in self.batch_losses if not _close(l, ref, 1e-9)]
        tally.check("batch_loss_vs_reference", not bad, f"{len(bad)} calls differ, e.g. {bad[:1]}")
        return out

    def extra_layer_metrics(self) -> dict:
        return {"estimators.bayes_mc.excess_mse": (0.0, "mse")}  # no estimator runs here


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class Evaluate:
    """``experiments.evaluate`` of every equalizer on benchmark-made draws."""

    units = "task"
    e2e_parts = {
        "forward_ms": "evaluate.icl",
        "stage_a_ms": "evaluate.bayes_mc",
        "stage_b_ms": "evaluate.bayes_discrete",
    }
    layer_roots = {"bench.evaluate." + kind for kind in experiments.Equalizer.KINDS}

    def __init__(self, seed: int, bits: int | None):
        self.seed = seed
        self.bits = bits
        self.results: dict[int, dict] = {}  # chunk -> kind -> (mse, half, n)
        self.ess: list[float] = []
        self.cfg = experiments.ExperimentConfig(bits=bits)
        self.draws = self._draws()
        self.sets = self._sets()

    def _draws(self) -> dict:
        """Channels, pilots and test pairs from the seed, in the benchmark's
        own draw order, so the program's samplers do not decide the inputs."""
        g = np.random.Generator(np.random.PCG64(self.seed))
        joint = channel.qam4_constellation(2).joint
        q = channel.Quantizer(bits=self.bits)
        t = POOL_ROUNDS * TASKS_PER_ROUND
        sigma2 = 10.0 ** (SIGMA2_DB / 10.0)

        def cn(*shape):
            return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) * np.sqrt(0.5)

        def receive(h, x):
            z = h @ x[..., None]
            z = z[..., 0] + cn(*x.shape[:-1], h.shape[-2]) * np.sqrt(sigma2)
            if not q.quantized:
                return z
            return channel.quantize(q, z.real)[1] + 1j * channel.quantize(q, z.imag)[1]

        d = {"channels": cn(M_DISCRETE, 2, 2), "hs": cn(t, 2, 2), "sigma2s": np.full(t, sigma2)}
        d["ctx_xs"] = joint[g.integers(0, len(joint), size=(t, N_CONTEXT))]
        d["ctx_ys"] = receive(d["hs"][:, None], d["ctx_xs"])
        d["test_xs"] = joint[g.integers(0, len(joint), size=(t, N_SYMBOLS))]
        d["test_ys"] = receive(d["hs"][:, None], d["test_xs"])
        return d

    def _sets(self) -> list:
        """One ``EvalSet`` per input chunk, built from the draws' arrays."""
        keys = ("hs", "sigma2s", "ctx_xs", "ctx_ys", "test_xs", "test_ys")
        sets = []
        for c in range(POOL_ROUNDS):
            rows = slice(c * TASKS_PER_ROUND, (c + 1) * TASKS_PER_ROUND)
            protocol = experiments.EvalProtocol(
                n_test_tasks=TASKS_PER_ROUND, n_context=N_CONTEXT,
                n_test_symbols_per_task=N_SYMBOLS, bits=self.bits,
                tasks=self.cfg.task_spec(), seed=(self.seed << 16) + c, mc_samples=MC_SAMPLES,
            )
            sets.append(experiments.EvalSet(protocol, *(self.draws[k][rows] for k in keys)))
        return sets

    def digest(self) -> str:
        return _digest(*(self.draws[k] for k in sorted(self.draws)), np.array([self.bits or 0]))

    def setup(self) -> None:
        """The program's set-up: the model's parameters and the equalizers,
        among them the discrete prior over M_DISCRETE channels.  The input
        sets are the benchmark's and are made once, untimed."""
        self.constellation = channel.qam4_constellation(self.cfg.n_t)
        self.model = self.cfg.model_config()
        self.params = transformer.init_params(self.model, RngStream(self.seed))
        self.equalizers = [
            experiments.Equalizer.icl(self.params, self.model),
            experiments.Equalizer.mmse(),
            experiments.Equalizer.lmmse(),
            experiments.Equalizer.bayes_discrete(self.draws["channels"]),
            experiments.Equalizer.bayes_mc(MC_SAMPLES),
        ]
        if self.bits is None:
            self.equalizers.append(experiments.Equalizer.bayes_exact())

    def round(self, h: Harness, i: int) -> dict:
        c = i % POOL_ROUNDS
        parts, seconds = {}, 0.0
        for eq in self.equalizers:
            res, dt = h.op("evaluate." + eq.kind, experiments.evaluate, eq, evalset=self.sets[c])
            parts["evaluate." + eq.kind] = dt / TASKS_PER_ROUND
            seconds += dt
            if res is not None:
                self._check_result(h.tally, c, eq.kind, res)
        return {"units": TASKS_PER_ROUND, "seconds": seconds, "parts": parts}

    def _check_result(self, tally: Tally, c: int, kind: str, res) -> None:
        n = TASKS_PER_ROUND * N_SYMBOLS
        ok = np.isfinite(res.mse) and res.n_samples == n and res.ci_low <= res.mse <= res.ci_high
        tally.check(f"evaluate.{kind}.result", bool(ok), repr(res))
        got = (res.mse, res.mse - res.ci_low, res.n_samples)
        seen = self.results.setdefault(c, {})
        if kind not in seen:
            seen[kind] = got
            if res.ess is not None:
                self.ess.append(res.ess)
        else:
            tally.check(f"evaluate.{kind}.reproducible", seen[kind] == got, f"{got} vs {seen[kind]}")

    def pooled(self) -> dict:
        """MSE and 95% half-width per equalizer over every distinct chunk."""
        out = {}
        for kind in {k for r in self.results.values() for k in r}:
            rows = [r[kind] for r in self.results.values() if kind in r]
            n = sum(r[2] for r in rows)
            s1 = sum(r[0] * r[2] for r in rows)
            # recover each chunk's sample variance from its interval half-width
            s2 = sum((r[2] - 1) * (r[1] * np.sqrt(r[2]) / 1.96) ** 2 + r[2] * r[0] ** 2 for r in rows)
            mean = s1 / n
            var = (s2 - n * mean**2) / (n - 1)
            out[kind] = (mean, 1.96 * np.sqrt(max(var, 0.0) / n))
        return out

    def checks(self, tally: Tally) -> dict:
        pooled = self.pooled()
        mse_k, half_k = pooled.get("mmse_known", (np.nan, np.nan))
        for kind, (mse, _) in pooled.items():
            if kind == "mmse_known":
                continue
            tally.check(
                f"mmse_known_lowest_vs_{kind}", mse_k - half_k <= mse,
                f"mmse_known {mse_k:.5f} +- {half_k:.5f} vs {kind} {mse:.5f}",
            )
        if self.bits is None:
            mse_x, half_x = pooled.get("bayes_exact", (np.nan, np.nan))
            for kind in ("bayes_mc", "bayes_discrete"):
                mse = pooled.get(kind, (np.nan,))[0]
                tally.check(
                    f"bayes_exact_no_worse_than_{kind}", mse_x - half_x <= mse,
                    f"bayes_exact {mse_x:.5f} +- {half_x:.5f} vs {kind} {mse:.5f}",
                )
        self._check_icl(tally)
        return {
            "mse": {k: v[0] for k, v in sorted(pooled.items())},
            "chunks": len(self.results),
            "bayes_mc_ess_median": _median(self.ess),
        }

    def _check_icl(self, tally: Tally) -> None:
        """ICL estimates of chunk 0 against the reference forward, each
        query run alone on its own sequence."""
        ev = self.sets[0]
        n_t = self.constellation.n_t
        real_joint = self.constellation.real_joint()
        bound = np.abs(self.constellation.per_antenna.real).max() + 1e-12
        sq_err = []
        for j in range(TASKS_PER_ROUND):
            xs = np.concatenate(
                [np.repeat(ev.ctx_xs[j][None], N_SYMBOLS, 0), ev.test_xs[j][:, None]], axis=1
            )
            ys = np.concatenate(
                [np.repeat(ev.ctx_ys[j][None], N_SYMBOLS, 0), ev.test_ys[j][:, None]], axis=1
            )
            tokens = transformer.build_tokens(self.model, xs, ys)
            _, est = transformer.forward_batch(self.params, self.model, self.constellation, tokens)
            est = est[:, -1, :]
            ref = np.empty_like(est)
            for s in range(N_SYMBOLS):
                r = reference.forward(
                    self.params, self.model,
                    reference.tokens(xs[s : s + 1], ys[s : s + 1], self.model.d_s), real_joint,
                )[:, 0, -1]
                ref[s] = r[:n_t] + 1j * r[n_t:]
            diff = float(np.abs(est - ref).max())
            tally.check(f"icl_task{j}_vs_reference", diff <= 1e-9, f"max |difference| {diff:.3g}")
            inside = np.all(np.abs(est.real) <= bound) and np.all(np.abs(est.imag) <= bound)
            tally.check(f"icl_task{j}_in_qam_hull", bool(inside), "estimate outside the 4-QAM hull")
            sq_err.append(np.sum(np.abs(ref - ev.test_xs[j]) ** 2, axis=1))
        got = self.results.get(0, {}).get("icl", (np.nan,))[0]
        want = float(np.mean(sq_err))
        tally.check("evaluate_icl_mse_vs_reference", _close(got, want, 1e-9), f"{got!r} vs {want!r}")

    def extra_layer_metrics(self) -> dict:
        pooled = self.pooled()
        excess = 0.0
        if self.bits is None:
            excess = pooled.get("bayes_mc", (np.nan,))[0] - pooled.get("bayes_exact", (np.nan,))[0]
        return {"estimators.bayes_mc.excess_mse": (excess, "mse")}


WORKLOADS = {
    "pretrain": lambda seed: Pretrain(seed),
    "eval_4bit": lambda seed: Evaluate(seed, bits=4),
    "eval_unquantized": lambda seed: Evaluate(seed, bits=None),
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _measure(wl, h: Harness, seconds: float, first: int) -> list[dict]:
    """Timed rounds until ``seconds`` have passed."""
    rounds = []
    deadline = time.perf_counter() + seconds
    i = first
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        if h.recorder:
            h.recorder.run = i
        rounds.append(wl.round(h, i))
        i += 1
    return rounds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _rate(rounds) -> float:
    return _median([r["units"] / r["seconds"] for r in rounds])


def _part_ms(rounds, part: str) -> float:
    return 1e3 * _median([r["parts"][part] for r in rounds])


def _e2e(wl, rounds, setup_s: float, peak_rss_mb: float, tally: Tally) -> dict:
    m = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        "rate_per_s": _rate(rounds),
    }
    for metric, part in wl.e2e_parts.items():
        m[metric] = _part_ms(rounds, part)
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in m.items()}


def _unscaled(h: Harness, setup: list[float]) -> dict:
    """Median seconds of each kind of timed call, and of a set-up, before
    calibration scaling; with the median scaling factor."""
    out = {part: _median(v) for part, v in h.unscaled.items()}
    out.update(setup=_median(setup), scale=_median(h.scales))
    return out


def _layer(wl, rec: spans.Recorder, traced: list[dict], scales: list[float]) -> dict:
    """Per-layer metrics of the traced rounds, per unit of the workload:
    per default-size training step on pretrain, per test task on eval.
    Times are scaled by the traced calls' median calibration factor."""
    a = spans.Analysis(rec.spans)
    roots = wl.layer_roots
    if wl.units == "step":
        units = sum(1 for s in rec.spans if s[spans.NAME] in roots) * STEPS_PER_CALL
    else:
        units = sum(r["units"] for r in traced)
    units = max(units, 1)

    scale = _median(scales)

    def ms(name, self_only=False):
        return 1e3 * scale * a.total(name, roots, self_only) / units

    m = {"autodiff.backward.ms": (ms("autodiff.backward"), "ms")}
    for op in ("matmul", "gelu", "softmax", "layer_norm", "transpose"):
        m[f"autodiff.op.{op}.ms"] = (ms(f"autodiff.op.{op}", True), "ms")
    node_bytes = a.attr("autodiff.op.", "bytes", roots)
    m["autodiff.nodes_per_step"] = (len(node_bytes) / units, "count")
    m["autodiff.node_bytes_per_step"] = (sum(node_bytes) / units, "bytes")
    flops = sum(a.attr("autodiff.op.matmul", "flops", roots)) + sum(
        a.attr("autodiff.backward", "flops", roots)
    )
    m["autodiff.matmul_gflop_per_step"] = (flops / units / 1e9, "GFLOP")

    starts = a.select("training.sample_train_batch", roots)
    ends = a.select("training.adam_step", roots)
    steps = (
        sorted(1e3 * (rec.spans[e][spans.END] - rec.spans[s][spans.START]) for s, e in zip(starts, ends))
        if len(starts) == len(ends)
        else []
    )
    steps = [scale * t for t in steps]
    m["training.step_ms.p50"] = (_median(steps), "ms")
    # highest percentile with at least ten samples beyond it; the maximum
    # when fewer than ten steps lie beyond the median
    tail = steps[-11] if len(steps) > 20 else (steps[-1] if steps else 0.0)
    m["training.step_ms.tail"] = (tail, "ms")
    m["training.sample_train_batch.ms"] = (ms("training.sample_train_batch"), "ms")
    m["training.gradient.self_ms"] = (ms("training.gradient", True), "ms")
    m["training.adam_step.ms"] = (ms("training.adam_step"), "ms")

    m["transformer.forward_graph.ms"] = (ms("transformer.forward_graph"), "ms")
    m["transformer.forward_batch.ms_per_task"] = (ms("transformer.forward_batch"), "ms")
    columns = a.attr("transformer.forward_batch", "columns", roots)
    useful = a.attr("transformer.forward_batch", "useful", roots)
    m["transformer.token_columns_per_task"] = (sum(columns) / units, "count")
    m["transformer.useful_column_frac"] = (sum(useful) / sum(columns) if columns else 0.0, "fraction")

    for kind in ("mmse_known", "lmmse", "bayes_discrete", "bayes_mc", "bayes_exact"):
        m[f"estimators.{kind}.ms_per_task"] = (ms(f"estimators.{kind}"), "ms")
    ess = a.attr("estimators.bayes_mc", "ess", roots)
    m["estimators.bayes_mc.ess_median"] = (_median(ess), "count")
    m["estimators.bayes_mc.ess_frac"] = (_median(ess) / MC_SAMPLES, "fraction")

    m["channel.loglik_means.ms_per_task"] = (ms("channel.loglik_means"), "ms")
    m["channel.loglik_means.terms_per_task"] = (
        sum(a.attr("channel.loglik_means", "terms", roots)) / units, "count"
    )
    m["channel.cell_loglik.ms_per_task"] = (ms("channel.cell_loglik"), "ms")
    m["numerics.logsumexp.ms_per_task"] = (ms("numerics.logsumexp"), "ms")
    m["rng.complex_normal.ms_per_task"] = (ms("rng.complex_normal"), "ms")
    m["experiments.evaluate.self_ms_per_task"] = (ms("experiments.evaluate", True), "ms")
    m.update(wl.extra_layer_metrics())
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _checks(wl, tally: Tally) -> dict:
    try:
        return wl.checks(tally)
    except Exception:
        tally.check("checks", False, traceback.format_exc(limit=4))
        return {}


def run(name: str, seed: int, seconds: float, trace: bool, spans_path) -> tuple[dict, dict]:
    """One run of a workload; returns (result line, run description)."""
    # evaluate() warns on every call that bayes_mc's ESS is low; the ESS is
    # reported as a measured value instead
    logging.getLogger("icleq").setLevel(logging.ERROR)
    wl = WORKLOADS[name](seed)
    h = Harness()
    setup, setup_unscaled = [], []
    for _ in range(SETUP_REPEATS):
        before = h.cal()
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        setup.append(dt * h.scale(before, h.cal()))
        setup_unscaled.append(dt)
    wl.round(h, 0)  # warm-up
    h.unscaled.clear()
    h.scales.clear()
    info = {"workload": name, "seed": seed, "inputs_digest": wl.digest()}
    if not trace:
        rounds = _measure(wl, h, seconds, 1)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["checks"] = _checks(wl, h.tally)
        metrics = _e2e(wl, rounds, _median(setup), peak, h.tally)
        info.update(rounds=len(rounds), unscaled_s=_unscaled(h, setup_unscaled))
    else:
        plain = _measure(wl, h, seconds / 2, 1)
        first_traced = len(h.scales)
        rec = spans.Recorder()
        hooks = spans.Hooks(rec)
        h.recorder = rec
        try:
            traced = _measure(wl, h, seconds / 2, 1 + len(plain))
        finally:
            hooks.remove()
            h.recorder = None
        info["checks"] = _checks(wl, h.tally)
        layer = _layer(wl, rec, traced, h.scales[first_traced:])
        overhead = _rate(plain) / _rate(traced) - 1.0
        layer["trace.overhead_frac"] = (overhead, "fraction")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        info.update(rounds=len(plain), traced_rounds=len(traced), absent=hooks.absent)
        rec.write(spans_path)
        info["spans_file"] = str(spans_path)
    for k, m in metrics.items():
        if not np.isfinite(m["value"]):
            h.tally.check(f"metric {k} is finite", False, repr(m["value"]))
            m["value"] = 0.0
    info["failures"] = h.tally.failures
    result = {
        "correct": h.tally.failed == 0,
        "attempted": h.tally.attempted,
        "failed": h.tally.failed,
        "metrics": metrics,
    }
    return result, info
