"""The benchmark's documented command, run once per workload at the shortest
run length: each workload still drives the package through the calls it
makes, and its output checks pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train", "serve", "align"])
def test_workload_runs_and_passes_its_checks(workload):
    # --seconds 0 would time no round at all; 0.001 times exactly one
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.001"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
