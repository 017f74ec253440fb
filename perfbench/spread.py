"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload eval_4bit --seeds 10 --first-seed 1

Runs the benchmark once per seed, one run at a time, for ``run_seconds``
of ``BENCHMARK.json``, and prints for each metric the median and the
interquartile range as a share of the median, the quantity that the
bounds are compared with.  The same figures follow for the unscaled times
of each run's description line (see ``workloads.Calibrator``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _table(values: dict[str, list[float]]) -> None:
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:42s} {med:12.6g} {share:10.4f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    unscaled: dict[str, list[float]] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [
            sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        *_, info, result = proc.stdout.strip().splitlines()
        result = json.loads(result)
        ok &= result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in json.loads(info)["unscaled_s"].items():
            unscaled.setdefault(name, []).append(v)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    print(f"{'metric':42s} {'median':>12s} {'iqr/median':>10s}")
    _table(values)
    print(f"{'unscaled seconds':42s} {'median':>12s} {'iqr/median':>10s}")
    _table(unscaled)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
