"""Tests of the benchmark itself (not of qca).

Run from the repository root:  python3 -m pytest bench/tests -q
Each test starts ``run.py`` as the benchmark is normally started, with
``--seconds 0`` so that only the minimum number of repetitions runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs: the JSON metrics and every per-layer value recorded."""
    runs = []
    for _ in range(2):
        proc, result = run_bench("--workload", "principal_cli", "--seed", "7", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert result["correct"] and result["failed"] == 0
        record = json.loads((ROOT / ".bench_out" / "principal_cli-seed7-trace.json").read_text())
        runs.append((result["metrics"], record["values"]))
    return runs


def test_traced_run_reports_every_per_layer_metric(traced_runs):
    for metrics, _ in traced_runs:
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_per_layer_counts_repeat_exactly(traced_runs):
    (_, first), (_, second) = traced_runs
    counted = [name for name in first if not name.endswith("_s")]
    assert len(counted) > 20
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["cli.main.calls"] > 0
    assert first["lusztig.rowcache.load.hit_ratio"] > 0


def test_self_times_fit_in_traced_wall(traced_runs):
    for _, values in traced_runs:
        total = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert 0 < total <= values["trace.wall_s"]


def copy_bench(tmp_path: Path) -> Path:
    """A copy of the benchmark and BENCHMARK.json, without the package."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path / "bench"


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    bench = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected = json.loads((bench / "expected.json").read_text())
    expected["principal_cli"]["fixed"] = "0" * 64
    (bench / "expected.json").write_text(json.dumps(expected))
    proc, result = run_bench("--workload", "principal_cli", "--seconds", "0", cwd=tmp_path, script=bench / "run.py")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_the_package(tmp_path):
    bench = copy_bench(tmp_path)
    proc, result = run_bench("--workload", "kronecker", cwd=tmp_path, script=bench / "run.py")
    assert proc.returncode != 0
    assert result is None
