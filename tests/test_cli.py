import pytest

from icleq.cli import main
from icleq.experiments import CSV_HEADER
from icleq.training import load_checkpoint

MICRO_CFG = """
n_layers = 1
n_heads = 2
d_e = 8
d_f = 16
n_max = 4
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
