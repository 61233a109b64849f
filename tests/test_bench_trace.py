import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["breakpoint-scan", "oracle-crosscheck", "exact-deficits"])
def test_traced_benchmark_runs(workload):
    # bench/tracing.py wraps engine functions by attribute name and reads
    # their result shapes, so a renamed or reshaped one breaks the traced
    # run, not the engine's tests
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
