"""Every benchmark workload runs once and matches its pinned digest.

``bench/run.py --seconds 0`` repeats each workload once per worker and
checks its outputs against ``bench/expected.json``, so a change to an output
digest, a report name or a check count fails here, not only in a benchmark
run.  About 11 s for the four workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_its_digest(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
