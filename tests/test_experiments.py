import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import icleq
from icleq.channel import TaskDistributionSpec, qam4_constellation
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
    per_draw_errors,
    results_to_csv,
    run_threshold_sweep,
)
from icleq.rng import RngStream
from icleq.training import PretrainTaskSet

C2 = qam4_constellation(2)
SPEC = TaskDistributionSpec(2, 2, -10.0, -10.0)

MICRO = ExperimentConfig(
    n_layers=1,
    n_heads=2,
    d_e=8,
    d_f=16,
    n_max=4,
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


class TestEvalSet:
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
        r = evaluate(Equalizer.mmse(), protocol=noisy)
        assert abs(r.mse - 1.0) < 0.05
        assert r.ci_low <= r.mse <= r.ci_high

    def test_discrete_prior_of_true_channel_collapses_to_mmse(self):
        for seed in (11, 12, 13):
            ev = EvalSet.build(small_protocol(n_test_tasks=1, seed=seed))
            e_mmse = per_draw_errors(Equalizer.mmse(), ev)
            e_disc = per_draw_errors(Equalizer.bayes_discrete(ev.hs), ev)
            np.testing.assert_allclose(e_disc, e_mmse, atol=1e-12)

    def test_mmse_beats_lmmse_paired(self):
        ev = EvalSet.build(small_protocol(n_test_tasks=40, n_test_symbols_per_task=32))
        d = per_draw_errors(Equalizer.mmse(), ev) - per_draw_errors(Equalizer.lmmse(), ev)
        flat = d.ravel()
        se = flat.std(ddof=1) / np.sqrt(flat.size)
        assert flat.mean() + 1.96 * se < 0

    def test_exact_reference_requires_unquantized(self):
        with pytest.raises(ValueError, match="unquantized"):
            evaluate(Equalizer.bayes_exact(), protocol=small_protocol(bits=4))

    def test_mc_reference_reports_ess(self):
        r = evaluate(
            Equalizer.bayes_mc(128), protocol=small_protocol(n_test_tasks=3)
        )
        assert r.ess is not None and 1.0 <= r.ess <= 128.0

    def test_ci_width_shrinks_with_samples(self):
        narrow = evaluate(Equalizer.mmse(), protocol=small_protocol(n_test_tasks=8))
        wide = evaluate(
            Equalizer.mmse(), protocol=small_protocol(n_test_tasks=32)
        )
        w1 = narrow.ci_high - narrow.ci_low
        w2 = wide.ci_high - wide.ci_low
        # quadrupling the task count should roughly halve the interval
        assert 1.4 < w1 / w2 < 2.9

    def test_per_draw_errors_match_direct_estimates(self):
        ev = EvalSet.build(small_protocol(n_test_tasks=2))
        errs = per_draw_errors(Equalizer.mmse(), ev)
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
            ("loss_positions = 3", "line 1: loss_positions takes str values"),
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
            "str-int",
            "int-grid-word",
            "float-grid-none",
            "int-grid-float",
            "zero-heads",
        ],
    )
    def test_ill_typed_values_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config_file(text).model_config()


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
