import hashlib
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import icleq
from icleq import experiments, numerics
from icleq.channel import MAX_ABS_DB, TaskDistributionSpec, qam4_constellation
from icleq.estimators import mmse_known_task
from icleq.experiments import (
    CSV_HEADER,
    Equalizer,
    EvalProtocol,
    EvalSet,
    ExperimentConfig,
    assert_test_isolation,
    emit_plot_data,
    evaluate,
    parse_config_file,
    results_to_csv,
    run_quantization_sweep,
    run_snr_sweep,
    run_threshold_sweep,
)
from icleq.rng import RngStream
from icleq.training import PretrainTaskSet
from icleq.transformer import build_tokens, forward_batch, init_params

C2 = qam4_constellation(2)
SPEC = TaskDistributionSpec(2, 2, -10.0, -10.0)

MICRO = ExperimentConfig(
    n_layers=1,
    n_heads=2,
    d_e=8,
    d_f=16,
    n_context=4,
    m_tasks=2,
    batch_size=4,
    n_steps=25,
    lr=1e-3,
    warmup_steps=0,
    n_test_tasks=4,
    n_test_symbols_per_task=8,
    mc_samples=128,
    m_grid=(1, 2),
    seed=7,
)

# another valid value of every config key that a run config reads
OTHER_VALUES = dict(
    n_layers=3, n_heads=8, d_e=32, d_f=128, n_t=1, n_r=3, bits=None, sigma2_db_min=-20.0,
    sigma2_db_max=0.0, m_tasks=8, n_context=7, batch_size=8, n_steps=9, lr=3e-4, warmup_steps=5,
    init_scale=0.5, n_test_tasks=6, n_test_symbols_per_task=5, mc_samples=64,
)


def draw_errors(equalizer, evalset):
    """The squared error of every draw (n_tasks, n_symbols), for paired tests."""
    est, _ = experiments._draw_estimates(equalizer, evalset)
    return np.sum(np.abs(est - evalset.test_xs) ** 2, axis=2)


def small_protocol(**kw):
    base = dict(
        n_test_tasks=6,
        n_context=4,
        n_test_symbols_per_task=16,
        bits=4,
        tasks=SPEC,
        seed=3,
    )
    base.update(kw)
    return EvalProtocol(**base)


ROWS_4BIT = "0d4f25be0b279117"
THRESHOLD_4BIT = "963fa00132c44a36"
ROWS_UNQUANTIZED = "e9d7b85c550464a6"
THRESHOLD_UNQUANTIZED = "401ec1bc367acb49"


def rows_digest(bits):
    """Digest of mse, ci_low and ess of every kind on one frozen evaluation set."""
    ev = EvalSet.build(small_protocol(n_test_tasks=2, n_test_symbols_per_task=4, bits=bits))
    model = MICRO.model_config()
    equalizers = [
        Equalizer.icl(init_params(model, RngStream(5)), model),
        Equalizer.mmse(),
        Equalizer.lmmse(),
        Equalizer.bayes_discrete(RngStream(6).complex_normal((8, 2, 2))),
        Equalizer.bayes_mc(64),
    ]
    if bits is None:
        equalizers.append(Equalizer.bayes_exact())
    h = hashlib.sha256()
    for eq in equalizers:
        r = evaluate(eq, ev)
        h.update(np.array([r.mse, r.ci_low, np.nan if r.ess is None else r.ess]).tobytes())
    return h.hexdigest()[:16]


def sweep_digest(run, edit):
    """The first 16 hex digits of the SHA-256 of a sweep's CSV at MICRO sizes."""
    csv_text = results_to_csv(run(replace(MICRO, **edit)))
    return hashlib.sha256(csv_text.encode()).hexdigest()[:16]


class TestEvalSet:
    @pytest.mark.parametrize("bits", [0, -3])
    def test_bits_below_one_rejected(self, bits):
        with pytest.raises(ValueError, match=f"bits must be >= 1, got {bits}"):
            small_protocol(bits=bits)

    def test_build_is_deterministic(self):
        a = EvalSet.build(small_protocol())
        b = EvalSet.build(small_protocol())
        assert a.draw_hash() == b.draw_hash()
        np.testing.assert_array_equal(a.test_ys, b.test_ys)

    @pytest.mark.parametrize(
        "bits, digest",
        [(1, "66fdc94a2bbd1fc8"), (4, "48661465313ef30f"), (None, "6a27cd32b2c582e9")],
    )
    def test_draw_hash_pinned(self, bits, digest):
        """Any change of the evaluation draw order must be a deliberate re-pin."""
        assert EvalSet.build(small_protocol(bits=bits)).draw_hash() == digest

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("hs", (3, 2, 2)),
            ("sigma2s", (3,)),
            ("ctx_xs", (2, 8, 2)),
            ("ctx_ys", (2, 4, 1)),
            ("test_xs", (2, 3, 2)),
            ("test_ys", (2, 5, 3)),
        ],
    )
    def test_arrays_must_match_protocol(self, field, bad):
        """Extra task rows or pilots, or too few test symbols, are rejected
        at construction, naming the field and both shapes."""
        ev = EvalSet.build(small_protocol(n_test_tasks=2, n_test_symbols_per_task=5))
        want = getattr(ev, field).shape
        msg = f"EvalSet.{field} must have shape {want} for its protocol, got {bad}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            replace(ev, **{field: np.zeros(bad)})

    def test_negative_context_rejected(self):
        with pytest.raises(ValueError, match="n_context must be >= 0, got -1"):
            small_protocol(n_context=-1)

    def test_seed_changes_draws(self):
        a = EvalSet.build(small_protocol())
        b = EvalSet.build(small_protocol(seed=4))
        assert a.draw_hash() != b.draw_hash()

    def test_isolation_assert_fires_on_collision(self):
        ev = EvalSet.build(small_protocol())
        ts = PretrainTaskSet.sample(SPEC, 3, RngStream(5))
        assert_test_isolation(ev, ts)  # fresh draws never collide
        bad = PretrainTaskSet(
            hs=np.concatenate([ts.hs, ev.hs[2][None]]),
            sigma2s=np.concatenate([ts.sigma2s, [0.1]]),
        )
        with pytest.raises(AssertionError):
            assert_test_isolation(ev, bad)

    def test_isolation_check_runs_under_optimize_flag(self):
        code = textwrap.dedent(
            """
            from icleq.channel import TaskDistributionSpec
            from icleq.experiments import EvalProtocol, EvalSet, assert_test_isolation
            from icleq.training import PretrainTaskSet

            spec = TaskDistributionSpec(2, 2, -10.0, -10.0)
            ev = EvalSet.build(EvalProtocol(n_test_tasks=2, n_context=1, tasks=spec, seed=3))
            try:
                assert_test_isolation(ev, PretrainTaskSet(hs=ev.hs, sigma2s=ev.sigma2s))
            except AssertionError:
                raise SystemExit(0)
            raise SystemExit("collision not reported")
            """
        )
        src = str(Path(icleq.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr


class TestEvaluate:
    def test_mmse_uninformative_limit(self):
        noisy = small_protocol(tasks=TaskDistributionSpec(2, 2, 60.0, 60.0), bits=None)
        r = evaluate(Equalizer.mmse(), evalset=EvalSet.build(noisy))
        assert abs(r.mse - 1.0) < 0.05
        assert r.ci_low <= r.mse <= r.ci_high

    def test_discrete_prior_of_true_channel_collapses_to_mmse(self):
        for seed in (11, 12, 13):
            ev = EvalSet.build(small_protocol(n_test_tasks=1, seed=seed))
            e_mmse = draw_errors(Equalizer.mmse(), ev)
            e_disc = draw_errors(Equalizer.bayes_discrete(ev.hs), ev)
            np.testing.assert_allclose(e_disc, e_mmse, atol=1e-12)

    def test_mmse_beats_lmmse_paired(self):
        ev = EvalSet.build(small_protocol(n_test_tasks=40, n_test_symbols_per_task=32))
        d = draw_errors(Equalizer.mmse(), ev) - draw_errors(Equalizer.lmmse(), ev)
        flat = d.ravel()
        se = flat.std(ddof=1) / np.sqrt(flat.size)
        assert flat.mean() + 1.96 * se < 0

    def test_exact_reference_requires_unquantized(self):
        ev = EvalSet.build(small_protocol(bits=4))
        with pytest.raises(ValueError, match="unquantized"):
            evaluate(Equalizer.bayes_exact(), evalset=ev)

    def test_mc_reference_reports_ess(self):
        r = evaluate(
            Equalizer.bayes_mc(128), evalset=EvalSet.build(small_protocol(n_test_tasks=3))
        )
        assert r.ess is not None and 1.0 <= r.ess <= 128.0

    def test_ci_width_shrinks_with_samples(self):
        narrow = evaluate(Equalizer.mmse(), evalset=EvalSet.build(small_protocol(n_test_tasks=8)))
        wide = evaluate(
            Equalizer.mmse(), evalset=EvalSet.build(small_protocol(n_test_tasks=32))
        )
        w1 = narrow.ci_high - narrow.ci_low
        w2 = wide.ci_high - wide.ci_low
        # quadrupling the task count should roughly halve the interval
        assert 1.4 < w1 / w2 < 2.9

    @pytest.mark.parametrize(
        "kind, per_task", [("icl", 0), ("mmse_known", 0), ("bayes_discrete", 0), ("bayes_mc", 1)]
    )
    def test_generators_built_only_by_draws(self, monkeypatch, kind, per_task):
        """Each task's stream builds its Philox generator only if the
        equalizer draws from it, which only the Monte-Carlo reference does."""
        ev = EvalSet.build(small_protocol(n_test_tasks=3, n_test_symbols_per_task=4))
        model = MICRO.model_config()
        eq = {
            "icl": lambda: Equalizer.icl(init_params(model, RngStream(5)), model),
            "mmse_known": Equalizer.mmse,
            "bayes_discrete": lambda: Equalizer.bayes_discrete(ev.hs),
            "bayes_mc": lambda: Equalizer.bayes_mc(16),
        }[kind]()
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda **kw: built.append(kw) or philox(**kw))
        experiments._draw_estimates(eq, ev)
        assert len(built) == per_task * ev.protocol.n_test_tasks

    @pytest.mark.parametrize("bits, digest", [(4, ROWS_4BIT), (None, ROWS_UNQUANTIZED)])
    def test_rows_pinned(self, bits, digest):
        """mse, ci_low and ess of every kind on one frozen evaluation set; a
        change of any equalizer's arithmetic or random stream (the kind's
        index in ``Equalizer.KINDS``) must be a deliberate re-pin."""
        assert rows_digest(bits) == digest

    @pytest.mark.parametrize("db", [-MAX_ABS_DB, MAX_ABS_DB])
    @pytest.mark.parametrize("bits", [4, None])
    def test_every_kind_finite_at_the_noise_bounds(self, db, bits):
        """At the widest noise powers a task may have, every equalizer
        scores finite errors without a warning."""
        tasks = TaskDistributionSpec(2, 2, db, db)
        ev = EvalSet.build(small_protocol(n_test_tasks=2, n_test_symbols_per_task=4, bits=bits,
                                          tasks=tasks))
        model = MICRO.model_config()
        equalizers = [
            Equalizer.icl(init_params(model, RngStream(5)), model),
            Equalizer.mmse(),
            Equalizer.lmmse(),
            Equalizer.bayes_discrete(RngStream(6).complex_normal((8, 2, 2))),
            Equalizer.bayes_mc(64),
        ]
        if bits is None:
            equalizers.append(Equalizer.bayes_exact())
        for eq in equalizers:
            r = evaluate(eq, ev)
            assert np.isfinite([r.mse, r.ci_low, r.ci_high]).all(), eq.kind

    def test_icl_matches_one_sequence_per_symbol(self):
        """A task's symbols share one sequence and match their own sequences
        to 1e-12."""
        ev = EvalSet.build(small_protocol(n_test_tasks=2))
        model = replace(MICRO.model_config(), n_layers=2)
        params = init_params(model, RngStream(8), scale=0.3)
        eq = Equalizer.icl(params, model)
        for i in range(2):
            ctx, ys = ev.context(i), ev.test_ys[i]
            est, ess = eq.estimate(ev.task(i), ev.protocol.quantizer, C2, ctx, ys, None)
            seqs = [
                build_tokens(
                    model,
                    np.concatenate([ctx.xs, np.zeros((1, 2))])[None],
                    np.concatenate([ctx.ys, y[None]])[None],
                )
                for y in ys
            ]
            want = forward_batch(params, model, C2, np.concatenate(seqs, axis=1))[1][:, -1]
            assert ess is None
            np.testing.assert_allclose(est, want, rtol=0, atol=1e-12)

    def test_per_draw_errors_match_direct_estimates(self):
        ev = EvalSet.build(small_protocol(n_test_tasks=2))
        errs = draw_errors(Equalizer.mmse(), ev)
        for i in range(2):
            est = mmse_known_task(ev.task(i), ev.protocol.quantizer, C2, ev.test_ys[i])
            want = np.sum(np.abs(est - ev.test_xs[i]) ** 2, axis=1)
            np.testing.assert_allclose(errs[i], want, atol=1e-12)


class TestConfigFile:
    def test_defaults_roundtrip(self):
        assert parse_config_file("") == ExperimentConfig()

    def test_parse_values_and_grids(self):
        text = """
        # comment
        d_e = 32
        bits = unquantized
        lr = 3e-4
        m_grid = 1, 4, 16
        bits_grid = 1, 2, unquantized
        seed = 9
        """
        cfg = parse_config_file(text)
        assert cfg.d_e == 32 and cfg.bits is None and cfg.lr == 3e-4
        assert cfg.m_grid == (1, 4, 16)
        assert cfg.bits_grid == (1, 2, None)
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file("no_such_key = 1")
        with pytest.raises(ValueError, match="line 1: unknown key 'loss_positions'"):
            parse_config_file("loss_positions = all_y")
        with pytest.raises(ValueError, match="line 1: unknown key 'n_max'"):
            parse_config_file("n_max = 4")

    def test_model_positions_follow_n_context(self):
        assert parse_config_file("n_context = 7").model_config().n_max == 7

    @pytest.mark.parametrize(
        "key",
        [f.name for f in fields(ExperimentConfig)
         if f.name not in ("m_grid", "snr_db_grid", "bits_grid", "seed")],
    )
    def test_every_key_reaches_a_run_config(self, key):
        """Another valid value of any key changes a run config, so no
        builder drops a key for its sub-config's default."""

        def run_configs(cfg):
            return (cfg.model_config(), cfg.task_spec(), cfg.train_config(seed=0),
                    cfg.protocol(seed=0))

        base = ExperimentConfig()
        other = replace(base, **{key: OTHER_VALUES[key]})
        assert getattr(other, key) != getattr(base, key)
        assert run_configs(other) != run_configs(base)

    def test_run_config_field_without_a_key_fails_at_construction(self, monkeypatch):
        """A run-config field that no key of its name fills fails loudly."""

        @dataclass(frozen=True)
        class Stray(EvalProtocol):
            no_such_key: int = 0

        monkeypatch.setattr(experiments, "EvalProtocol", Stray)
        with pytest.raises(AttributeError, match="no_such_key"):
            ExperimentConfig()

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: repeated key 'bits'"):
            parse_config_file("bits = 4\nbits = 2")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config_file("just some words")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("d_e = abc", "line 1: d_e takes int values, got 'abc'"),
            ("seed = 1\nn_steps = 1e3", "line 2: n_steps takes int values"),
            ("sigma2_db_min = none", "line 1: sigma2_db_min takes float values"),
            ("lr = fast", "line 1: lr takes float values"),
            ("m_grid = 1, x", "line 1: m_grid takes int values, got 'x'"),
            ("snr_db_grid = 0, none", "line 1: snr_db_grid takes float values"),
            ("bits_grid = 1, 2.5", "line 1: bits_grid takes int values, got '2.5'"),
            ("n_heads = 0", "n_heads must be >= 1, got 0"),
        ],
        ids=[
            "int-word",
            "int-float-line-2",
            "float-none",
            "float-word",
            "int-grid-word",
            "float-grid-none",
            "int-grid-float",
            "zero-heads",
        ],
    )
    def test_ill_typed_values_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config_file(text).model_config()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m_grid = 4, 0", "m_grid entry 0 must be >= 1"),
            ("bits_grid = 1, 0", "bits_grid entry 0 must be >= 1"),
            ("bits_grid = none, -2", "bits_grid entry -2 must be >= 1"),
            ("bits_grid = 4, 64", "bits_grid entry 64 must be <= 52"),
            ("lr = 0", "lr must be > 0, got 0.0"),
            ("lr = -1", "lr must be > 0, got -1.0"),
            # an infinite lr passes lr > 0 and makes the first Adam step non-finite
            ("lr = 1e999", "lr must be finite, got inf"),
            # inf is read as a float in a real-valued field, caught by its range check
            ("lr = inf", "lr must be finite, got inf"),
            ("init_scale = inf", "init_scale must be finite and > 0, got inf"),
            ("sigma2_db_min = inf", "noise bounds must be finite"),
            ("sigma2_db_max = inf", "noise bounds must be finite"),
            ("snr_db_grid = 10, inf", "snr_db_grid entry inf must be finite"),
            ("n_test_tasks = 0", "test counts must be >= 1"),
            ("n_test_symbols_per_task = 0", "test counts must be >= 1"),
            ("n_test_tasks = 1\nn_test_symbols_per_task = 1", "at least two draws"),
            ("snr_db_grid = 10, nan", "snr_db_grid entry nan must be finite"),
            ("snr_db_grid = -inf, 10", "snr_db_grid entry -inf must be finite"),
            ("n_t = 0", "n_t and n_r must be >= 1, got 0 and 2"),
            ("n_r = 0", "n_t and n_r must be >= 1, got 2 and 0"),
            ("sigma2_db_min = nan", "noise bounds must be finite"),
            ("sigma2_db_min = -inf", "noise bounds must be finite"),
            ("n_layers = 0", "n_layers must be >= 1, got 0"),
            ("d_e = 0", "d_e must be >= 1, got 0"),
            ("d_f = 0", "d_f must be >= 1, got 0"),
            ("n_context = -1", "n_context must be >= 0, got -1"),
            ("mc_samples = 0", "mc_samples must be >= 1, got 0"),
            ("bits = 0", "bits must be >= 1, got 0"),
            ("bits = -3", "bits must be >= 1, got -3"),
            ("bits = 53", "bits must be <= 52, got 53"),
            ("bits = 64", "bits must be <= 52, got 64"),
            ("init_scale = nan", "init_scale must be finite and > 0, got nan"),
            ("init_scale = 0", "init_scale must be finite and > 0, got 0.0"),
            (
                "sigma2_db_min = -4000\nsigma2_db_max = -4000",
                r"sigma2_db_min = -4000.0 dB is outside \[-300, 300\] dB",
            ),
            (
                "sigma2_db_min = 4000\nsigma2_db_max = 4000",
                r"sigma2_db_min = 4000.0 dB is outside \[-300, 300\] dB",
            ),
            ("sigma2_db_max = 4000", "sigma2_db_max = 4000.0 dB is outside"),
            (
                "snr_db_grid = 10, 4000",
                r"snr_db_grid entry 4000.0: its noise power -4000.0 dB is outside \[-300, 300\]",
            ),
            ("snr_db_grid = -4000, 10", "snr_db_grid entry -4000.0: its noise power 4000.0 dB"),
            (
                "snr_db_grid = 5, 10, 10.04",
                "snr_db_grid entries 10.0 and 10.04 round to the same tenth of a dB",
            ),
            (
                "snr_db_grid = -0.04, 0, 0.04",
                "snr_db_grid entries -0.04 and 0.0 round to the same tenth of a dB",
            ),
        ],
        ids=[
            "m-grid-zero",
            "bits-grid-zero",
            "bits-grid-negative",
            "bits-grid-64",
            "lr-zero",
            "lr-negative",
            "lr-infinite",
            "lr-inf-word",
            "init-scale-inf-word",
            "noise-min-inf-word",
            "noise-max-inf-word",
            "snr-grid-inf-word",
            "zero-test-tasks",
            "zero-test-symbols",
            "one-draw",
            "snr-grid-nan",
            "snr-grid-inf",
            "zero-tx-antennas",
            "zero-rx-antennas",
            "noise-nan",
            "noise-inf",
            "zero-layers",
            "zero-d-e",
            "zero-d-f",
            "negative-context",
            "zero-mc-samples",
            "bits-zero",
            "bits-negative",
            "bits-53",
            "bits-64",
            "init-scale-nan",
            "init-scale-zero",
            "noise-underflow",
            "noise-overflow",
            "noise-max-overflow",
            "snr-grid-underflow",
            "snr-grid-overflow",
            "snr-grid-same-tenth",
            "snr-grid-same-tenth-around-zero",
        ],
    )
    def test_out_of_range_values_rejected_at_parse_time(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config_file(text)


class Recorded(SimpleNamespace):
    """What a sweep ran; unpacks as (trained, protocols)."""

    def __iter__(self):
        return iter((self.trained, self.protocols))


@pytest.fixture
def recorded(monkeypatch):
    """Every TrainConfig the sweeps pre-train on (and the task set each
    returns), every EvalProtocol they build an EvalSet from, the number of
    `evaluate` calls per row name, and every (protocol, task set) pair they
    check for isolation; the original functions still run."""
    rec = Recorded(trained=[], tasksets=[], protocols=[], evaluated=Counter(), isolated=[])
    pretrain, build = experiments.pretrain, EvalSet.build
    evaluate, isolation = experiments.evaluate, experiments.assert_test_isolation

    def record_pretrain(cfg, *args, **kwargs):
        rec.trained.append(cfg)
        out = pretrain(cfg, *args, **kwargs)
        rec.tasksets.append(out[2])
        return out

    def record_build(protocol):
        rec.protocols.append(protocol)
        return build(protocol)

    def record_evaluate(*args, **kwargs):
        result = evaluate(*args, **kwargs)
        rec.evaluated[result.estimator] += 1
        return result

    def record_isolation(evalset, taskset):
        rec.isolated.append((evalset.protocol, id(taskset)))
        return isolation(evalset, taskset)

    monkeypatch.setattr(experiments, "pretrain", record_pretrain)
    monkeypatch.setattr(EvalSet, "build", staticmethod(record_build))
    monkeypatch.setattr(experiments, "evaluate", record_evaluate)
    monkeypatch.setattr(experiments, "assert_test_isolation", record_isolation)
    return rec


def noise_db(spec):
    return (spec.sigma2_db_min, spec.sigma2_db_max)


class TestSweepGridPoints:
    def test_threshold_sweep_trains_each_m_on_one_evalset(self, recorded):
        trained, protocols = recorded
        run_threshold_sweep(MICRO)
        assert [tc.m_tasks for tc in trained] == list(MICRO.m_grid)
        for tc in trained:
            assert tc == replace(MICRO, m_tasks=tc.m_tasks).train_config(seed=tc.seed)
        assert protocols == [MICRO.protocol(seed=protocols[0].seed)]

    def test_snr_sweep_noise_powers(self, recorded):
        trained, protocols = recorded
        cfg = replace(MICRO, snr_db_grid=(0.0, 10.0))
        results = run_snr_sweep(cfg)
        assert [noise_db(tc.tasks) for tc in trained] == [(0.0, 0.0), (-30.0, -30.0), (-30.0, 0.0)]
        for tc in trained:
            lo, hi = noise_db(tc.tasks)
            assert tc == replace(cfg, sigma2_db_min=lo, sigma2_db_max=hi).train_config(seed=tc.seed)
        assert [noise_db(p.tasks) for p in protocols] == [(-s, -s) for s in cfg.snr_db_grid]
        for p in protocols:
            lo, hi = noise_db(p.tasks)
            assert p == replace(cfg, sigma2_db_min=lo, sigma2_db_max=hi).protocol(seed=p.seed)
        names = ["icl_fixed0db", "icl_fixed30db", "icl_range", "mmse_known", "lmmse"]
        assert [r.estimator for r in results] == names * 2
        assert [r.value for r in results] == [0.0] * 5 + [10.0] * 5

    def test_quantization_sweep_bits(self, recorded):
        trained, protocols = recorded
        cfg = replace(MICRO, bits_grid=(1, 4, None))
        results = run_quantization_sweep(cfg)
        assert [tc.bits for tc in trained] == [1, 4, None]
        assert [p.bits for p in protocols] == [1, 4, None]
        for tc, p in zip(trained, protocols):
            assert tc == replace(cfg, bits=tc.bits).train_config(seed=tc.seed)
            assert p == replace(cfg, bits=p.bits).protocol(seed=p.seed)
        assert [r.estimator for r in results] == ["icl", "mmse_known", "lmmse"] * 3
        assert [r.value for r in results] == [1.0] * 3 + [4.0] * 3 + [float("inf")] * 3


class TestSweepJobsRunOnce:
    def test_threshold_sweep_evaluates_true_prior_once(self, recorded):
        """The true-prior row does not depend on M: one EvalSet, one
        evaluation, copied to every grid point."""
        results = run_threshold_sweep(replace(MICRO, m_grid=(1, 2, 3)))
        assert len(recorded.protocols) == 1
        assert recorded.evaluated == {"icl": 3, "bayes_discrete": 3, "bayes_mc": 1}
        assert [r.value for r in results if r.estimator == "bayes_mc"] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "run, edit, pairs",
        [
            (run_snr_sweep, {"snr_db_grid": (0.0, 10.0)}, "every"),
            (run_quantization_sweep, {"bits_grid": (1, None)}, "own"),
        ],
        ids=["snr", "bits"],
    )
    def test_isolation_checked_on_every_pair(self, recorded, run, edit, pairs):
        """Every (model, draws) pair a sweep evaluates is checked once: the
        SNR sweep scores every model on every point's draws, the bits sweep
        each model on its own point's draws."""
        run(replace(MICRO, **edit))
        ids = [id(ts) for ts in recorded.tasksets]
        if pairs == "every":
            want = [(p, t) for p in recorded.protocols for t in ids]
        else:
            want = list(zip(recorded.protocols, ids))
        assert recorded.isolated == want


class TestThresholdSweepMicro:
    @pytest.fixture(scope="class")
    def results(self):
        return run_threshold_sweep(MICRO)

    def test_row_count_is_grid_times_estimators(self, results):
        assert len(results) == len(MICRO.m_grid) * 3

    def test_estimator_names_and_values(self, results):
        names = {r.estimator for r in results}
        assert names == {"icl", "bayes_discrete", "bayes_mc"}
        assert {r.value for r in results} == {1.0, 2.0}

    def test_reproducible_csv_bytes(self, results):
        again = run_threshold_sweep(MICRO)
        assert results_to_csv(results) == results_to_csv(again)


@pytest.mark.parametrize(
    "run, edit, digest",
    [
        (run_threshold_sweep, {}, THRESHOLD_4BIT),
        (run_threshold_sweep, {"bits": None}, THRESHOLD_UNQUANTIZED),
        (run_snr_sweep, {"snr_db_grid": (0.0, 10.0)}, "a4dc187e9cb1ef82"),
        (run_quantization_sweep, {"bits_grid": (1, 4, None)}, "75cde5c2d045ee67"),
    ],
    ids=["threshold-4bit", "threshold-unquantized", "snr", "bits"],
)
def test_micro_sweep_csv_pinned(run, edit, digest):
    """A change of any number a sweep writes must be a deliberate re-pin."""
    assert sweep_digest(run, edit) == digest


def test_4bit_pins_hold_through_split_cell_kernel(monkeypatch):
    """At micro sizes the cell kernel fits one default block and runs
    inline; with two cores and 64-element blocks it runs split, and the
    4-bit row and threshold sweep pins still hold."""
    monkeypatch.setattr(numerics, "_N_CORES", 2)
    monkeypatch.setattr(numerics, "_BLOCK", 64)
    splits = []
    lanes = numerics._lanes
    monkeypatch.setattr(numerics, "_lanes", lambda *a: splits.append(1) or lanes(*a))
    assert rows_digest(4) == ROWS_4BIT
    assert sweep_digest(run_threshold_sweep, {}) == THRESHOLD_4BIT
    assert splits


def test_unquantized_pins_hold_through_split_pilot_weights(monkeypatch):
    """The Gaussian pilot likelihood is walked in the same blocks; with two
    cores and 64-element blocks it runs split, and the unquantized row and
    threshold sweep pins still hold."""
    monkeypatch.setattr(numerics, "_N_CORES", 2)
    monkeypatch.setattr(numerics, "_BLOCK", 64)
    splits = []
    lanes = numerics._lanes
    monkeypatch.setattr(numerics, "_lanes", lambda *a: splits.append(1) or lanes(*a))
    assert rows_digest(None) == ROWS_UNQUANTIZED
    assert sweep_digest(run_threshold_sweep, {"bits": None}) == THRESHOLD_UNQUANTIZED
    assert splits


class TestCsvAndPlotData:
    def _results(self):
        ev = EvalSet.build(small_protocol(n_test_tasks=2, n_test_symbols_per_task=4))
        a = evaluate(Equalizer.mmse(), evalset=ev, sweep="bits", value=4.0)
        b = evaluate(Equalizer.bayes_mc(64), evalset=ev, sweep="bits", value=4.0)
        return [a, b]

    def test_header_exact(self):
        text = results_to_csv(self._results())
        assert text.splitlines()[0] == CSV_HEADER

    def test_plot_data_round_trip_and_block_count(self):
        results = self._results()
        text = results_to_csv(results)
        blocks = emit_plot_data(text)
        assert blocks.count("# estimator:") == 2
        data_lines = [
            l for l in blocks.splitlines() if l and not l.startswith("#")
        ]
        for line, r in zip(data_lines, results):
            vals = [float(v) for v in line.split()]
            assert vals == [r.value, r.mse, r.ci_low, r.ci_high]

    def test_low_ess_flagging(self):
        results = self._results()
        text = results_to_csv(results)
        blocks = emit_plot_data(text)
        mc_block = blocks.split("\n\n\n")[1]
        if results[1].ess < 50:
            assert "low-ess" in mc_block
        else:
            assert "low-ess" not in mc_block

    def test_empty_estimator_set(self):
        assert emit_plot_data(CSV_HEADER + "\n") == ""

    def test_malformed_csv_rejected(self):
        with pytest.raises(ValueError):
            emit_plot_data("not,the,right,header\n1,2,3,4\n")
        with pytest.raises(ValueError):
            emit_plot_data(CSV_HEADER + "\nonly,three,cols\n")
