import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def zero_length_run(workload, trace):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["pretrain", "eval_4bit", "eval_unquantized"])
def test_benchmark_workload_is_correct(workload):
    """One zero-length run of a benchmark workload: it calls the program's
    public API (configs, equalizer factories, forward passes) and checks
    the outputs against its own reference."""
    result = zero_length_run(workload, 0)
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("workload", ["eval_4bit", "eval_unquantized"])
def test_traced_eval_workload_is_correct(workload):
    """The same with spans around the program's public functions, whose
    span stack is kept by the calling thread only: the worker threads of
    the pilot likelihood (cell kernel or Gaussian densities) must not enter
    a hooked function."""
    result = zero_length_run(workload, 1)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["metrics"]["numerics.logsumexp.ms_per_task"]["value"] > 0


def test_traced_pretrain_workload_is_correct():
    """The same for training: the layer lanes' workers, which also compute
    the weight gradients, must not enter a hooked function, or the span
    stack would break."""
    result = zero_length_run("pretrain", 1)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["metrics"]["transformer.forward_graph.ms"]["value"] > 0
