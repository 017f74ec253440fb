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
(config, seed) pairs.  The BLAS thread count is set through the environment,
e.g. ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from .experiments import (
    Equalizer,
    EvalSet,
    ExperimentConfig,
    emit_plot_data,
    evaluate,
    parse_config_file,
    results_to_csv,
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


def _add_common(p: argparse.ArgumentParser, checkpoint=False) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output path")
    if checkpoint:
        p.add_argument("--checkpoint", required=True, help="model checkpoint path")


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_cfg = cfg.train_config(seed=cfg.seed)
    params, curve, _ = pretrain(train_cfg, verbose=True)
    save_checkpoint(params, train_cfg.model, args.out, train_config=train_cfg)
    if curve:
        log.info("final loss %.5f", curve[-1][1])
    log.info("checkpoint written to %s", args.out)
    if args.curve:
        with open(args.curve, "w") as f:
            f.write("step,loss\n")
            f.writelines(f"{s},{l!r}\n" for s, l in curve)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    params, model, _ = load_checkpoint(args.checkpoint)
    protocol = cfg.protocol(seed=cfg.seed)
    evalset = EvalSet.build(protocol)
    snr_mid = -0.5 * (cfg.sigma2_db_min + cfg.sigma2_db_max)
    results = [
        evaluate(eq, evalset=evalset, sweep="eval", value=snr_mid, estimator_name=name)
        for name, eq in (
            ("icl", Equalizer.icl(params, model)),
            ("mmse_known", Equalizer.mmse()),
            ("lmmse", Equalizer.lmmse()),
        )
    ]
    write_results(results, args.out)
    for r in results:
        log.info("%s: mse %.5f [%.5f, %.5f]", r.estimator, r.mse, r.ci_low, r.ci_high)
    return 0


def _run_sweep(args, runner) -> int:
    cfg = _load_config(args)
    results = runner(cfg, verbose=True)
    write_results(results, args.out)
    log.info("%d rows written to %s", len(results), args.out)
    return 0


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
    _add_common(p, checkpoint=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep-threshold", help="error vs number of pre-training tasks")
    _add_common(p)
    p.set_defaults(fn=lambda a: _run_sweep(a, run_threshold_sweep))

    p = sub.add_parser("sweep-snr", help="error vs test SNR for three trainings")
    _add_common(p)
    p.set_defaults(fn=lambda a: _run_sweep(a, run_snr_sweep))

    p = sub.add_parser("sweep-bits", help="error vs quantizer resolution")
    _add_common(p)
    p.set_defaults(fn=lambda a: _run_sweep(a, run_quantization_sweep))

    p = sub.add_parser("plot-data", help="convert a results CSV to gnuplot blocks")
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output text path")
    p.set_defaults(fn=cmd_plot_data)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
