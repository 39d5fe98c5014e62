"""Repetitions of one workload, in a process of its own.

Usage: python3 worker.py WORKLOAD SEED SECONDS TMPDIR [SPANS_PATH]

Runs repetitions one after another until SECONDS have passed (at least
one); each repetition builds a fresh workload object, so the program's
in-process caches start cold every time.  Given SPANS_PATH, exactly one
repetition runs, under the tracer, and its spans are written there.
Prints one JSON line with the set-up time of the first repetition (which
includes importing ``qca``), the peak resident memory of the process and,
per repetition, the wall time, request latencies, failures and output
digests; when tracing, also the per-layer metrics.

Before and after the set-up and each repetition the worker also times
``reference()``, a fixed computation that does not use ``qca``, so that
``run.py`` can scale the times to a fixed machine speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter


def digest(records) -> str | None:
    if records is None:
        return None
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation of the same kind as
    the program's hot loops: products of sparse dicts keyed by int tuples."""
    t0 = perf_counter()
    base = {(i, i % 3, -i): i + 1 for i in range(30)}
    for _ in range(150):
        out: dict = {}
        for e1, c1 in base.items():
            for e2, c2 in base.items():
                k = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
    return perf_counter() - t0


def repetition(workload, req, tracer=None) -> dict:
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        workload.run(req)
    finally:
        wall_s = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    try:
        fixed, seeded = workload.check(req)
    except Exception as exc:  # a check that cannot run fails every request
        fixed = seeded = None
        for i in range(len(req.results)):
            req.check(i, False, f"check raised {type(exc).__name__}: {exc}")
    return {
        "wall_s": wall_s,
        "latency": req.latency,
        "attempted": len(req.results),
        "failures": [f"request {i}: {msg}" for i, msg in sorted(req.failed.items())],
        "digest_fixed": digest(fixed),
        "digest_seeded": digest(seeded),
    }


def main(argv) -> int:
    name, seed, seconds, tmp = argv[0], int(argv[1]), float(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    before = reference()
    start = perf_counter()
    import workloads  # imports qca; part of set-up

    def fresh(k: int):
        rep_tmp = os.path.join(tmp, str(k))
        os.mkdir(rep_tmp)
        return workloads.WORKLOADS[name](seed, rep_tmp)

    workload = fresh(0)
    setup_s = perf_counter() - start
    after = reference()
    # Each step is paired with the mean of the reference times that bracket it.
    out = {"setup_s": setup_s, "setup_reference_s": (before + after) / 2, "reps": []}
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
    deadline = perf_counter() + seconds
    while True:
        before = after
        gc.collect()
        rep = repetition(workload, workloads.Requests(), tracer)
        after = reference()
        rep["reference_s"] = (before + after) / 2
        out["reps"].append(rep)
        if tracer is not None or perf_counter() >= deadline:
            break
        workload = None
        workload = fresh(len(out["reps"]))
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
