"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def test_smoke_all_workloads_and_traced_run():
    """Level <= 1: output check, seed independence, repeatable counts."""
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("seeds agree: True") == 3


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark must fail without a result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stability",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
