"""icleq benchmark: one run of one workload.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the program is imported from ``src/``
of that tree, never from an installed copy.  The last stdout line is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the line before
it describes the run (input digest, environment, checks, failures,
unscaled times).

With ``--trace 0`` the metrics are end to end.  Every workload reports
every one, so the timing slots mean different calls per workload:

    metric       pretrain                       eval_4bit / eval_unquantized
    rate_per_s   training steps/s, both sizes   test tasks/s, whole equalizer set
    forward_ms   batch_loss, default size       icl, per task
    stage_a_ms   pretrain step, default size    bayes_mc, per task
    stage_b_ms   pretrain step, d_e = 32        bayes_discrete, per task

plus ``setup_s``, ``peak_rss_mb`` and ``ok_frac`` (1 - failed / attempted).
Times are scaled to a reference machine speed, see ``workloads.Calibrator``.

With ``--trace 1`` the run measures half its time untraced and half with
spans around the program's public functions, and reports per-layer metrics
plus the tracing overhead; the spans go to ``perfbench/out/``.
"""

import os

# one BLAS thread, set before numpy is first imported: two threads made
# training throughput spread 6.5-8.0 steps/s between identical runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    import icleq

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    malloc = getattr(icleq, "_malloc", None)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "malloc_tune": {
            "ICLEQ_NO_MALLOC_TUNE": os.environ.get("ICLEQ_NO_MALLOC_TUNE"),
            "applied": malloc.tune() if malloc is not None else None,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "icleq" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'icleq'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import icleq
    import workloads

    if Path(icleq.__file__).resolve().parent != (SRC / "icleq").resolve():
        print(f"perfbench: imported icleq from {icleq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    result, info = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    info["env"] = environment()
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
