"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next request starts when
the previous one returns.  A workload object is built in the set-up phase
(seeds, seed files, temp directories), then ``run`` issues its requests
through a :class:`Requests` recorder in two passes: ``cold`` on fresh
objects and ``warm`` repeating the same requests on the objects, caches and
row files the cold pass left behind.  ``check`` runs afterwards, outside the
timed phase: it applies the package's own exact checks and returns the
records whose digest is pinned in ``expected.json``.

Why each workload exists, and which layer metrics should move on it, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from time import perf_counter

from qca import (
    EBasis,
    KroneckerAlgebra,
    Rank2Crystal,
    TorusElement,
    TriangularTable,
    principal_seed,
    rank2_principal_seed,
    save_seed,
)
from qca import cli
from qca import verify as suites


class Requests:
    """Times each request of one repetition and collects its result."""

    def __init__(self):
        self.latency = {"cold": [], "warm": []}
        self.results: list = []  # (phase, result or None)
        self.failed: dict = {}  # request index -> first failure message

    def call(self, phase: str, fn, *args):
        index = len(self.results)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising request is a failed request
            result = None
            self.failed[index] = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - t0
        if phase in self.latency:
            self.latency[phase].append(elapsed)
        self.results.append((phase, result))

    def check(self, index: int, ok: bool, message: str):
        if not ok:
            self.failed.setdefault(index, message)


def _expansion_records(expansion: dict):
    return [[list(k), str(c)] for k, c in sorted(expansion.items())]


def _report_record(report):
    return [report.name, report.checks, report.ok]


class Kronecker:
    """``C(-r,-r)`` on the affine seed via the Chebyshev-family verifier.

    The inputs are fixed; the seed does not change them.
    """

    R = 10

    def __init__(self, seed: int, tmp: str):
        self.alg = None

    def run(self, req: Requests):
        def cold():
            self.alg = KroneckerAlgebra(horizon=self.R + 3)
            return self.alg.verify_chebyshev_family(self.R)

        req.call("cold", cold)
        req.call("warm", lambda: self.alg.verify_chebyshev_family(self.R))

    def check(self, req: Requests):
        for i, (_, report) in enumerate(req.results):
            req.check(i, report is not None and report.ok, "Chebyshev family report failed")
        records = []
        for r in range(1, self.R + 1):
            label = (-r, -r)
            element = self.alg.table.element(label)
            req.check(0, element.bar() == element, f"C{label} is not bar-invariant")
            records.append(
                [list(label), element.to_records(), _expansion_records(self.alg.table.expansion(label))]
            )
        return records, None


class Rank3Deep:
    """``C(-r,-r,-r,0,0,0)`` for r = 1..7 in one triangular table over the
    principal seed of a rank-3 acyclic exchange matrix.

    The seed shuffles the order in which the labels are requested; the
    rows, and so the output, do not depend on it.
    """

    B = ((0, -2, -2), (2, 0, -2), (2, 2, 0))
    R = 7

    def __init__(self, seed: int, tmp: str):
        self.seed = principal_seed(self.B, (1, 1, 1))
        self.labels = [(-r, -r, -r, 0, 0, 0) for r in range(1, self.R + 1)]
        random.Random(seed).shuffle(self.labels)
        self.table = None

    def _pass(self):
        return {label: self.table.element(label) for label in self.labels}

    def run(self, req: Requests):
        def cold():
            self.table = TriangularTable(EBasis(self.seed))
            return self._pass()

        req.call("cold", cold)
        req.call("warm", self._pass)

    def check(self, req: Requests):
        (_, cold), (_, warm) = req.results
        if cold is None or warm is None:
            return None, None
        req.check(1, warm == cold, "warm pass elements differ from cold pass")
        records = []
        for label in sorted(cold):
            element = cold[label]
            req.check(0, element.bar() == element, f"C{label} is not bar-invariant")
            records.append(
                [list(label), element.to_records(), _expansion_records(self.table.expansion(label))]
            )
        return records, None


class IdentitySuite:
    """Straightening identities of the (2,1) crystal, plus the exchange and
    principal-product identities on random principal seeds drawn from the
    workload seed.

    The seeds take ranks 1, 2, 3 in turn, so that the amount of work does not
    depend on the workload seed; their entries and symmetrizers are random.
    """

    SEEDS = 40

    def __init__(self, seed: int, tmp: str):
        rng = random.Random(seed)
        self.seeds = [suites.random_principal_seed(rng, 1 + i % 3) for i in range(self.SEEDS)]
        self.crystal = None
        self.bases = None

    def _pass(self):
        reports = [self.crystal.verify_identities(bound=2, frozen_range=(0, 1))]
        for s, basis in zip(self.seeds, self.bases):
            reports.append(suites.check_exchange_relations(basis))
            if s.n >= 2:
                reports.append(suites.check_principal_identities(s))
        return reports

    def run(self, req: Requests):
        def cold():
            self.crystal = Rank2Crystal(2, 1)
            self.bases = [EBasis(s) for s in self.seeds]
            return self._pass()

        req.call("cold", cold)
        req.call("warm", self._pass)

    def check(self, req: Requests):
        (_, cold), (_, warm) = req.results
        if cold is None or warm is None:
            return None, None
        for i, reports in enumerate((cold, warm)):
            for report in reports:
                req.check(i, report.ok, f"{report.name}: {report.failures[:1]}")
        cold_records = [_report_record(r) for r in cold]
        req.check(1, [_report_record(r) for r in warm] == cold_records, "warm reports differ from cold")
        # The crystal report does not depend on the seed; the random-seed
        # reports do, so only their default-seed digest is pinned.
        return cold_records[:1], cold_records


class PrincipalCli:
    """``qca`` commands, in-process, on a saved (b, c) = (3, 2) principal
    seed: ``verify compare-bases --window 4``, then ``basis c`` over a 7 x 7
    label window twice against one fresh ``--cache`` directory.

    The seed shuffles the label order; every pass uses the same order.
    """

    WINDOW = 3
    COMPARE_WINDOW = 4

    def __init__(self, seed: int, tmp: str):
        self.seed = rank2_principal_seed(3, 2)
        self.seedfile = os.path.join(tmp, "principal-3-2.json")
        save_seed(self.seed, self.seedfile)
        self.cache = os.path.join(tmp, "rows")
        os.mkdir(self.cache)
        span = range(-self.WINDOW, self.WINDOW + 1)
        self.labels = [(a1, a2, 0, 0) for a1 in span for a2 in span]
        random.Random(seed).shuffle(self.labels)

    @staticmethod
    def _qca(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    def _basis_c(self, label):
        a = ",".join(str(x) for x in label)
        return self._qca(["--format", "machine", "basis", "c", self.seedfile, f"--a={a}", "--cache", self.cache])

    def run(self, req: Requests):
        req.call(
            "prep",
            self._qca,
            ["--format", "machine", "verify", "compare-bases", "--seed", self.seedfile, "--window", str(self.COMPARE_WINDOW)],
        )
        for phase in ("cold", "warm"):
            for label in self.labels:
                req.call(phase, self._basis_c, label)

    def check(self, req: Requests):
        form = self.seed.form()
        parsed = []
        for i, (phase, result) in enumerate(req.results):
            if result is None:
                parsed.append(None)
                continue
            status, text = result
            req.check(i, status == 0, f"exit status {status}")
            try:
                parsed.append(json.loads(text))
            except ValueError:
                req.check(i, False, "output is not JSON")
                parsed.append(None)
        compare = parsed[0]
        if compare is not None:
            req.check(0, compare["ok"], f"compare-bases failed: {compare['reports']}")
        n = len(self.labels)
        records = [compare and compare["reports"]]
        for k, label in enumerate(self.labels):
            ci, wi = 1 + k, 1 + n + k
            cold, warm = parsed[ci], parsed[wi]
            if cold is None or warm is None:
                continue
            req.check(ci, not cold["cached"], f"cold pass found a cached row for {label}")
            req.check(wi, warm["cached"], f"warm pass did not read the cached row for {label}")
            req.check(
                wi,
                (warm["element"], warm["expansion"]) == (cold["element"], cold["expansion"]),
                f"warm pass differs from cold pass at {label}",
            )
            element = TorusElement.from_records(form, cold["element"])
            req.check(ci, element.bar() == element, f"C{label} is not bar-invariant")
            records.append([list(label), cold["element"], cold["expansion"]])
        records[1:] = sorted(records[1:])
        return records, None


WORKLOADS = {
    "kronecker": Kronecker,
    "rank3_deep": Rank3Deep,
    "identity_suite": IdentitySuite,
    "principal_cli": PrincipalCli,
}
