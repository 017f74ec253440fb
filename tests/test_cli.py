import logging

import pytest

from icleq import numerics
from icleq.cli import main
from icleq.experiments import CSV_HEADER
from icleq.training import load_checkpoint

MICRO_CFG = """
n_layers = 1
n_heads = 2
d_e = 8
d_f = 16
n_context = 4
m_tasks = 2
batch_size = 4
n_steps = 20
lr = 1e-3
warmup_steps = 0
n_test_tasks = 3
n_test_symbols_per_task = 8
mc_samples = 64
m_grid = 1, 2
seed = 5
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MICRO_CFG)
    return str(path)


def test_train_eval_round_trip(tmp_path, cfg_file):
    ckpt = str(tmp_path / "model.ckpt")
    curve = tmp_path / "curve.csv"
    assert main(["train", "--config", cfg_file, "--out", ckpt, "--curve", str(curve)]) == 0
    params, model, train = load_checkpoint(ckpt)
    assert model.d_e == 8 and train.n_steps == 20
    lines = curve.read_text().splitlines()
    assert lines[0] == "step,loss" and len(lines) == 21

    out = tmp_path / "eval.csv"
    assert main(["eval", "--config", cfg_file, "--checkpoint", ckpt, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == CSV_HEADER
    assert len(rows) == 4  # icl + exact + linear references
    assert {r.split(",")[1] for r in rows[1:]} == {"icl", "mmse_known", "lmmse"}


def test_train_and_sweep_log_progress(tmp_path, cfg_file, caplog):
    """The `icleq` logger at INFO shows training's step and final-loss lines
    and each sweep point."""
    caplog.set_level(logging.INFO, logger="icleq")
    assert main(["train", "--config", cfg_file, "--out", str(tmp_path / "model.ckpt")]) == 0
    assert "step 0/20 loss" in caplog.text
    assert "final loss" in caplog.text
    caplog.clear()
    assert main(["sweep-threshold", "--config", cfg_file, "--out", str(tmp_path / "s.csv")]) == 0
    assert "threshold sweep: training M=1" in caplog.text
    assert "threshold sweep: training M=2" in caplog.text


def test_eval_rejects_config_with_other_bits(tmp_path, cfg_file, caplog):
    """A model trained at 4 bits is not scored at a config's 2 bits."""
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", cfg_file, "--out", ckpt]) == 0
    cfg2 = tmp_path / "bits2.cfg"
    cfg2.write_text(MICRO_CFG + "bits = 2\n")
    out = tmp_path / "eval.csv"
    assert main(["eval", "--config", str(cfg2), "--checkpoint", ckpt, "--out", str(out)]) == 1
    assert "trained at bits = 4, but the config evaluates at bits = 2" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda cfg: cfg.replace("n_context = 4", "n_context = 8"),
            "holds a model with n_max = 4, but the config evaluates at n_context = 8",
        ),
        (
            lambda cfg: cfg + "n_t = 3\nn_r = 3\n",
            "was trained at n_t = 2, n_r = 2, but the config evaluates at n_t = 3, n_r = 3",
        ),
        (
            lambda cfg: cfg + "n_r = 1\n",
            "was trained at n_t = 2, n_r = 2, but the config evaluates at n_t = 2, n_r = 1",
        ),
    ],
    ids=["context-longer-than-n-max", "antenna-counts", "receive-antennas-same-width"],
)
def test_eval_rejects_config_the_model_cannot_read(tmp_path, edit, message, caplog):
    """A config whose contexts or antenna counts do not fit the checkpoint's
    model fails at load time, before any evaluation draw is made; so does
    one that only drops a receive antenna, which keeps the token width and
    class count but not the channel the model learned."""
    zero = tmp_path / "zero.cfg"
    zero.write_text(MICRO_CFG.replace("n_steps = 20", "n_steps = 0"))
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", str(zero), "--out", ckpt]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(edit(MICRO_CFG))
    out = tmp_path / "eval.csv"
    assert main(["eval", "--config", str(other), "--checkpoint", ckpt, "--out", str(out)]) == 1
    assert message in caplog.text
    assert not out.exists()


def test_train_zero_steps_writes_initial_checkpoint(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(MICRO_CFG.replace("n_steps = 20", "n_steps = 0"))
    ckpt = str(tmp_path / "model.ckpt")
    curve = tmp_path / "curve.csv"
    assert main(["train", "--config", str(cfg), "--out", ckpt, "--curve", str(curve)]) == 0
    _, _, train = load_checkpoint(ckpt)
    assert train.n_steps == 0
    assert curve.read_text() == "step,loss\n"


def test_threshold_sweep_and_plot_data(tmp_path, cfg_file):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-threshold", "--config", cfg_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + 2 * 3  # grid x estimators

    dat = tmp_path / "sweep.dat"
    assert main(["plot-data", "--in", str(out), "--out", str(dat)]) == 0
    blocks = dat.read_text()
    assert blocks.count("# estimator:") == 3


def test_seed_override_changes_output(tmp_path, cfg_file):
    ck_a = str(tmp_path / "a.ckpt")
    ck_b = str(tmp_path / "b.ckpt")
    assert main(["train", "--config", cfg_file, "--out", ck_a, "--seed", "1"]) == 0
    assert main(["train", "--config", cfg_file, "--out", ck_b, "--seed", "2"]) == 0
    pa, _, _ = load_checkpoint(ck_a)
    pb, _, _ = load_checkpoint(ck_b)
    assert any((pa[k] != pb[k]).any() for k in pa)


@pytest.mark.parametrize(
    "var, cores, warns",
    [(None, 2, True), ("OPENBLAS_NUM_THREADS", 2, False), ("OMP_NUM_THREADS", 2, False),
     (None, 1, False)],
    ids=["unset", "openblas-set", "omp-set", "one-core"],
)
def test_warns_when_blas_threads_are_left_at_their_default(
    tmp_path, monkeypatch, caplog, var, cores, warns
):
    """With several cores and neither BLAS variable set, `icleq` logs one
    warning naming OPENBLAS_NUM_THREADS=1; either variable, or one core,
    silences it."""
    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(v, raising=False)
    if var is not None:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(numerics, "_N_CORES", cores)
    (tmp_path / "sweep.csv").write_text(CSV_HEADER + "\n")
    argv = ["plot-data", "--in", str(tmp_path / "sweep.csv"), "--out", str(tmp_path / "sweep.dat")]
    assert main(argv) == 0
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == warns
    assert all("OPENBLAS_NUM_THREADS=1" in m for m in warned)
