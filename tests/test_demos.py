import os
import subprocess
import sys
from pathlib import Path

import icleq

ROOT = Path(__file__).resolve().parents[1]


def test_quantized_observations_demo_runs_without_warnings():
    """Demo 02 takes about a minute, so only demo 01 runs in the suite."""
    src = str(Path(icleq.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / "01_quantized_observations.py")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
