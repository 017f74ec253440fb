import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pretrain", "eval_4bit", "eval_unquantized"])
def test_benchmark_workload_is_correct(workload):
    """One zero-length run of a benchmark workload: it calls the program's
    public API (configs, equalizer factories, forward passes) and checks
    the outputs against its own reference."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
