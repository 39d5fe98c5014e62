"""Benchmark entry point: run one workload, check its outputs, print metrics.

Usage (from the repository root):

    python3 bench/run.py --workload kronecker [--seed N] [--seconds S] [--trace 0|1]

The untraced repetitions run in ``WORKERS`` fresh worker processes
(``worker.py``), one after another, each repeating the workload for its
share of ``--seconds`` (at least once).  Set-up time and peak memory are
taken per worker, wall time and latencies per repetition, and each metric
is the median.  Every time is scaled to a fixed machine speed (see
``REFERENCE_S``).  With ``--trace 1`` one traced repetition follows in a
worker of its own, and the per-layer metrics come from it; its overhead is
its wall time minus the median untraced wall time of the same run.

Every repetition's outputs are checked exactly: the package's own checks
run in the worker, and the output digest must equal the one pinned in
``expected.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print the same metrics, and with ``--trace 1`` every
per-layer metric, for a human reader.  The exit status is 0 only when
every request succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"  # pinned output digests, per workload
DEFAULT_SEED = 1206
WORKERS = 5
WORKER_TIMEOUT_S = 120
# Times are reported at the machine speed at which worker.reference() takes
# exactly this long (about its duration on an idle core of the two-core
# machine the benchmark was written on).  On a shared machine the speed of
# one process drifts by up to 1.6x for minutes at a time; scaling each time
# by the reference measured right before it cancels that drift, which no
# number of repetitions does.  Unscaled times are printed as raw_*.
REFERENCE_S = 0.05
WORKLOADS = ("kronecker", "rank3_deep", "identity_suite", "principal_cli")


def run_worker(workload: str, seed: int, seconds: float, spans_path: Path | None = None) -> dict:
    """Repetitions in a fresh process, with a fresh temp directory inside the
    checkout that is removed afterwards.  Given ``spans_path``, the worker
    runs one traced repetition and writes its spans there."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    env = {k: v for k, v in os.environ.items() if k not in ("QCA_CACHE_DIR", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=tmp)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), tmp]
            + ([str(spans_path)] if spans_path else []),
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qca" / "__init__.py").is_file():
        print(f"error: no qca package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{args.workload}.spans"

    try:
        workers = [run_worker(args.workload, args.seed, args.seconds / WORKERS) for _ in range(WORKERS)]
        traced = run_worker(args.workload, args.seed, 0, spans_path) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = [rep for w in workers for rep in w["reps"]]

    attempted = failed = 0
    problems = []
    for rep in reps + (traced["reps"] if traced else []):
        attempted += rep["attempted"]
        bad = rep["failures"]
        if rep["digest_fixed"] != expected["fixed"]:
            bad = bad + [f"output digest {rep['digest_fixed']} != pinned {expected['fixed']}"]
        if args.seed == DEFAULT_SEED and "seeded" in expected and rep["digest_seeded"] != expected["seeded"]:
            bad = bad + [f"default-seed digest {rep['digest_seeded']} != pinned {expected['seeded']}"]
        if len(bad) > len(rep["failures"]):
            failed += rep["attempted"]  # a digest covers every request of the repetition
        else:
            failed += len(bad)
        problems.extend(bad)

    def scaled(seconds, reference_s):
        return seconds * REFERENCE_S / reference_s

    walls = [scaled(r["wall_s"], r["reference_s"]) for r in reps]
    wall_s = statistics.median(walls)
    if traced:
        rep = traced["reps"][0]
        values = {
            name: scaled(v, rep["reference_s"]) if name.endswith("_s") else v
            for name, v in traced["layers"].items()
        }
        values["trace.wall_s"] = scaled(rep["wall_s"], rep["reference_s"])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(scaled(w["setup_s"], w["setup_reference_s"]) for w in workers),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "cold_p50_s": statistics.median(
                scaled(x, r["reference_s"]) for r in reps for x in r["latency"]["cold"]
            ),
            "warm_p50_s": statistics.median(
                scaled(x, r["reference_s"]) for r in reps for x in r["latency"]["warm"]
            ),
            "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
            "raw_setup_s": statistics.median(w["setup_s"] for w in workers),
            "reference_s": statistics.median(r["reference_s"] for r in reps),
        }
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    q1, _, q3 = statistics.quantiles(walls, n=4)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  repetitions {len(reps)}")
    print(f"  untraced wall_s median {wall_s:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)} repetitions)")
    for name, value in values.items():
        # Only self times are printed without being listed in BENCHMARK.json.
        print(f"  {name:<40} {value:>14.6g} {units.get(name, 's')}")
    print(f"  fail_frac {failed / attempted:.4g}  ({failed}/{attempted} requests)")
    print(f"  output digest {reps[0]['digest_fixed']}")
    for problem in problems[:10]:
        print(f"  FAILED {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, values=values, workers=workers, traced=traced)
    suffix = "-trace" if args.trace else ""
    (out_dir / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
