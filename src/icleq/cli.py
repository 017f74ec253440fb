"""Command-line entry points for training, evaluation, and the sweeps.

Usage examples:

    icleq train --config run.cfg --seed 1 --out model.ckpt
    icleq eval --checkpoint model.ckpt --config run.cfg --out eval.csv
    icleq sweep-threshold --config run.cfg --out threshold.csv
    icleq sweep-snr --config run.cfg --out snr.csv
    icleq sweep-bits --config run.cfg --out bits.csv
    icleq plot-data --in threshold.csv --out threshold.dat

Config files are flat ``key = value`` text; every key of
:class:`icleq.experiments.ExperimentConfig` is accepted.  ``--seed``
overrides the config seed, which makes reruns byte-identical for identical
(config, seed) pairs at the same BLAS thread count (it changes the last
bits of a product).  ``eval`` draws from a seed derived from the config
seed, as every sweep does, and checks them against the checkpoint's tasks.
The BLAS thread count is set through the environment, e.g.
``OPENBLAS_NUM_THREADS=1``; left unset on a machine of several cores, a
warning says so.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import numerics
from .experiments import (
    ExperimentConfig,
    emit_plot_data,
    parse_config_file,
    run_checkpoint_eval,
    run_quantization_sweep,
    run_snr_sweep,
    run_threshold_sweep,
    write_results,
)
from .training import load_checkpoint, pretrain, save_checkpoint

log = logging.getLogger("icleq")


def _load_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as f:
            cfg = parse_config_file(f.read())
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output path")


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_cfg = cfg.train_config(seed=cfg.seed)
    params, curve, _ = pretrain(train_cfg)
    save_checkpoint(params, train_cfg, args.out)
    if curve:
        log.info("final loss %.5f", curve[-1][1])
    log.info("checkpoint written to %s", args.out)
    if args.curve:
        with open(args.curve, "w") as f:
            f.write("step,loss\n")
            f.writelines(f"{s},{l!r}\n" for s, l in curve)
    return 0


def _checkpoint_mismatch(cfg: ExperimentConfig, train) -> str | None:
    """Why the config cannot evaluate the checkpoint's model, or None."""
    if train.bits != cfg.bits:
        return f"was trained at bits = {train.bits}, but the config evaluates at bits = {cfg.bits}"
    if (train.tasks.n_t, train.tasks.n_r) != (cfg.n_t, cfg.n_r):
        return (
            f"was trained at n_t = {train.tasks.n_t}, n_r = {train.tasks.n_r}, "
            f"but the config evaluates at n_t = {cfg.n_t}, n_r = {cfg.n_r}"
        )
    if cfg.n_context > train.model.n_max:
        return (
            f"holds a model with n_max = {train.model.n_max}, "
            f"but the config evaluates at n_context = {cfg.n_context}"
        )
    return None


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    params, _, train = load_checkpoint(args.checkpoint)
    mismatch = _checkpoint_mismatch(cfg, train)
    if mismatch is not None:
        log.error("%s %s", args.checkpoint, mismatch)
        return 1
    results = run_checkpoint_eval(cfg, params, train)
    write_results(results, args.out)
    for r in results:
        log.info("%s: mse %.5f [%.5f, %.5f]", r.estimator, r.mse, r.ci_low, r.ci_high)
    return 0


def _run_sweep(args) -> int:
    cfg = _load_config(args)
    results = args.runner(cfg)
    write_results(results, args.out)
    log.info("%d rows written to %s", len(results), args.out)
    return 0


_SWEEPS = {
    "sweep-threshold": (run_threshold_sweep, "error vs number of pre-training tasks"),
    "sweep-snr": (run_snr_sweep, "error vs test SNR for three trainings"),
    "sweep-bits": (run_quantization_sweep, "error vs quantizer resolution"),
}


def cmd_plot_data(args) -> int:
    with open(args.infile) as f:
        text = f.read()
    out = emit_plot_data(text)
    with open(args.out, "w") as f:
        f.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="icleq", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="pre-train an equalizer, write a checkpoint")
    _add_common(p)
    p.add_argument("--curve", help="optional loss-curve CSV path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against the references")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    p.set_defaults(fn=cmd_eval)

    for command, (runner, help_text) in _SWEEPS.items():
        p = sub.add_parser(command, help=help_text)
        _add_common(p)
        p.set_defaults(fn=_run_sweep, runner=runner)

    p = sub.add_parser("plot-data", help="convert a results CSV to gnuplot blocks")
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output text path")
    p.set_defaults(fn=cmd_plot_data)
    return ap


def _warn_blas_threads() -> None:
    """OpenBLAS defaults to one thread per core; its threads then compete
    with the package's own split over the same cores."""
    if numerics._N_CORES > 1 and not any(
        v in os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    ):
        log.warning(
            "BLAS threads unset: OpenBLAS runs one thread per core, competing with "
            "icleq's split over %d cores; set OPENBLAS_NUM_THREADS=1",
            numerics._N_CORES,
        )


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    _warn_blas_threads()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
