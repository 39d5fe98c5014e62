"""Command-line front end: seed management, basis computation, verification.

Exit status is 0 exactly when every requested check passed; file formats are
the JSON schemas used across the package (seed files, element record lists,
expansion record lists).  All randomized suites take an explicit RNG seed and
default to a fixed one, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys

from .crystal import Rank2Crystal
from .ebasis import EBasis, ExpansionError, MutatedBasis
from .kronecker import KroneckerAlgebra
from .laurent import LaurentPoly
from .lusztig import (
    RowCache, TriangularTable, compare_bases, expansion_records, phi_rank2_principal
)
from .report import Report
from .seed import (
    QuantumSeed,
    double_seed,
    load_seed,
    mutate,
    principal_seed,
    read_json,
    read_seed,
    save_seed,
    seed_hash,
    validate,
)
from . import verify as suites

DEFAULT_RNG_SEED = 12345


def _cache_dir(args) -> str | None:
    """The row-cache directory: ``--cache``, else ``QCA_CACHE_DIR``, else
    ``.qca_cache``; None with ``--no-cache``."""
    if args.no_cache:
        return None
    if args.cache is not None:
        return args.cache
    return os.environ.get("QCA_CACHE_DIR", ".qca_cache")


def _parse_vector(text: str, flag: str):
    """The comma-separated integers given to ``flag``."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} {text!r} is not comma-separated integers") from None


def _parse_pair(text: str):
    """One ``b,c`` entry of ``--pairs``."""
    try:
        b, c = _parse_vector(text, "--pairs")
    except ValueError:
        raise ValueError(f"--pairs entry {text!r} is not two integers b,c") from None
    if min(b, c) < 1:
        raise ValueError(f"--pairs entry {text!r} needs b and c at least 1")
    return b, c


# The least value of each size flag: a radius or cap may be 0, while a
# smaller count, rank-2 parameter or identity bound would leave a verify
# suite vacuous (at --bound 0 no straightening identity applies).
_FLAG_MINIMUM = {
    **dict.fromkeys(("rmax", "box", "window", "expansion_cap"), 0),
    **dict.fromkeys(("bound", "seeds", "samples", "count", "nmax", "jobs", "b", "c"), 1),
}


def _check_flag_minimums(args) -> None:
    """Reject a size flag below its least value, naming the flag."""
    for dest, least in _FLAG_MINIMUM.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} must be at least {least}, got {value}")


def _emit_reports(args, command: str, reports) -> int:
    status = 0 if all(r.ok for r in reports) else 1
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "command": command,
                    "ok": status == 0,
                    "reports": [r.to_dict() for r in reports],
                }
            )
        )
    else:
        for r in reports:
            print(r.summary())
    return status


def _expansion_string(basis: EBasis, head, coeffs: dict) -> str:
    keys = [head] + sorted(
        (k for k in coeffs if k != head),
        key=lambda k: (-basis.grading(k), k),
    )
    parts = []
    for key in keys:
        c = coeffs[key]
        name = "E(" + ",".join(str(x) for x in key) + ")"
        items = c.items()
        if len(items) == 1:
            (e, cc) = items[0]
            mag = LaurentPoly.v_power(e, abs(cc))
            sign = "-" if cc < 0 else "+"
            body = name if mag.is_one() else f"{mag} {name}"
        else:
            sign = "+"
            body = f"({c}) {name}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# seed subcommands


def cmd_seed(args) -> int:
    if args.seed_cmd == "check":
        # Read but not validated, so that check can report on invalid seeds.
        report = validate(read_seed(args.seedfile))
        machine = args.format == "machine"
        print(json.dumps(report.to_dict()) if machine else "\n".join(report.lines()))
        # A seed whose order is not compatible is refused by every basis command.
        return 0 if report.valid and report.order_compatible else 1
    if args.seed_cmd == "mutate":
        seed = load_seed(args.seedfile)
        if not 1 <= args.k <= seed.n:
            raise ValueError(f"mutation index {args.k} out of range [1, {seed.n}]")
        mutated = mutate(seed, args.k - 1)
        out = args.output or _derived_name(args.seedfile, f"mu{args.k}")
        save_seed(mutated, out)
        print(f"wrote {out}")
        return 0
    if args.seed_cmd == "principal":
        B = read_json(args.B)
        d = _parse_vector(args.d, "--d")
        if min(d) < 1 or isinstance(B, list) and len(d) != len(B):
            raise ValueError(f"--d {args.d!r} is not one positive symmetrizer per row of --B")
        seed = principal_seed(B, d)
        out = args.output or "principal.json"
        save_seed(seed, out)
        print(f"wrote {out}")
        return 0
    if args.seed_cmd == "double":
        seed = load_seed(args.seedfile)
        out = args.output or _derived_name(args.seedfile, "double")
        save_seed(double_seed(seed), out)
        print(f"wrote {out}")
        return 0
    raise AssertionError(args.seed_cmd)


def _derived_name(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.{tag}{ext or '.json'}"


# ---------------------------------------------------------------------------
# basis subcommand


def cmd_basis(args) -> int:
    seed = load_seed(args.seedfile)
    a = _parse_vector(args.a, "--a")
    if len(a) != seed.m:
        raise ValueError(f"--a must have {seed.m} entries, got {len(a)}")
    basis = EBasis(seed, expansion_cap=args.expansion_cap)
    cache = None
    cache_dir = _cache_dir(args)
    if args.kind == "c" and cache_dir:
        cache = RowCache(cache_dir, seed_hash(seed))
    table = TriangularTable(basis, cache=cache)
    if args.kind == "e":
        element = basis.element(a)
        coeffs = {tuple(a): LaurentPoly.one()}
        head_name = "E"
    else:
        element = table.element(a)
        coeffs = table.expansion(a)
        head_name = "C"
    # The row came from the cache iff its one load hit; a corrupt record misses.
    cached_before = cache is not None and cache.hits > 0
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(element.to_records(), fh)
            fh.write("\n")
    expansion = expansion_records(coeffs)
    if args.expansion_out:
        with open(args.expansion_out, "w", encoding="utf-8") as fh:
            json.dump(expansion, fh)
            fh.write("\n")
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "a": list(a),
                    "element": element.to_records(),
                    "expansion": expansion,
                    "cached": cached_before,
                }
            )
        )
    else:
        print(f"{head_name} = {_expansion_string(basis, tuple(a), coeffs)}")
        print(f"element: {element}")
        if args.kind == "c":
            print(f"cached: {'yes' if cached_before else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# verify subcommands


def cmd_verify(args) -> int:
    name = args.verify_cmd
    reports: list[Report] = []
    if name == "kronecker":
        # The cluster-monomial check reaches index 4, the family index rmax + 2.
        alg = KroneckerAlgebra(horizon=max(args.rmax + 2, 4))
        reports.append(alg.verify_chebyshev_family(args.rmax))
        reports.append(alg.verify_cluster_monomial_labels())
        reports.append(alg.verify_e_times_x0(args.box))
    elif name == "rank2-principal":
        crystal = Rank2Crystal(args.b, args.c)
        reports.append(_rank2_principal_report(crystal, args.box))
        reports.append(crystal.verify_standard_correspondence(args.box))
        reports.append(crystal.verify_reduction_targets(args.box))
    elif name == "identities":
        pairs = [_parse_pair(pair) for pair in args.pairs.split(";")]
        rng = random.Random(args.random_seed)
        reports.append(suites.check_qbinomial_products(args.rmax))
        rel = Report(name=f"exchange relations on {args.seeds} random principal seeds")
        prin = Report(name="principal product identities on the same seeds")
        for _ in range(args.seeds):
            s = suites.random_principal_seed(rng, rng.randint(1, args.nmax))
            rel.absorb(suites.check_exchange_relations(EBasis(s)))
            if s.n >= 2:
                prin.absorb(suites.check_principal_identities(s))
        reports.extend([rel, prin])
        for b, c in pairs:
            cr = Rank2Crystal(b, c)
            reports.append(cr.verify_identities(bound=args.bound))
            reports.append(cr.verify_nu_agreement(200, rng))
    elif name == "psi":
        rng = random.Random(args.random_seed)
        seed = load_seed(args.seedfile)
        n2 = 2 * seed.n
        samples = [
            tuple(rng.randint(-args.box, args.box) for _ in range(n2))
            for _ in range(args.samples)
        ]
        reports.append(suites.check_bullet_embedding(seed, samples))
    elif name == "compare-bases":
        seed = load_seed(args.seedfile)
        labels = [
            tuple(a) + (0,) * (seed.m - seed.n)
            for a in itertools.product(
                range(-args.window, args.window + 1), repeat=seed.n
            )
        ]
        reports.append(_compare_bases_parallel(seed, labels, args.jobs))
    elif name == "properties":
        rng = random.Random(args.random_seed)
        reports.extend(_property_suite(rng, args.seeds, args.count))
    else:
        raise AssertionError(name)
    return _emit_reports(args, f"verify {name}", reports)


def _rank2_principal_report(crystal: Rank2Crystal, box: int) -> Report:
    b, c, mut = crystal.b, crystal.c, crystal.mutated
    rep = Report(name=f"rank-2 principal unit coefficients (b={b}, c={c})")
    for a1 in range(-box, box + 1):
        for a2 in range(-box, box + 1):
            a = (a1, a2, 0, 0)
            try:
                unit = mut.unit_label(a)
            except ValueError as exc:
                rep.record(False, f"a={a}: {exc}")
                continue
            rep.record(
                unit == phi_rank2_principal(a, b, c),
                f"a={a}: unit label {unit} differs from closed form",
            )
    return rep


def _compare_chunk(payload):
    seed, labels = payload
    return compare_bases(EBasis(seed), labels)


def _compare_bases_parallel(seed: QuantumSeed, labels, jobs: int) -> Report:
    # One worker per CPU this process may run on at most (its affinity mask
    # under taskset or a cpuset, where the OS has one), and never more
    # workers than labels.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    jobs = min(jobs, cpus, len(labels))
    if jobs <= 1:
        return compare_bases(EBasis(seed), labels)
    # Imported here, not at the top: the pool pulls in multiprocessing,
    # which cost every qca process 20-30 ms and about 2.3 MB of start-up.
    from concurrent.futures import ProcessPoolExecutor

    chunks = [labels[i::jobs] for i in range(jobs)]
    # A seed pickles with its __dict__, so each worker gets its built form.
    payloads = [(seed, chunk) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        rep, *rest = pool.map(_compare_chunk, payloads)
    for other in rest:
        rep.checks += other.checks
        rep.failures.extend(other.failures)
    return rep


def _property_suite(rng, seeds: int, count: int):
    reports = []
    roundtrip = Report(name="expansion roundtrips")
    triang = Report(name="involution row triangularity")
    props = Report(name="triangular element properties")
    shift = Report(name="frozen shift invariance")
    for _ in range(seeds):
        s = suites.random_principal_seed(rng, rng.randint(2, 3))
        basis = EBasis(s)
        roundtrip.absorb(suites.check_expand_roundtrip(basis, rng, count))
        triang.absorb(suites.check_bar_triangularity(basis, rng, max(count // 3, 5)))
        props.absorb(
            suites.check_triangular_properties(
                TriangularTable(basis), rng, max(count // 3, 5)
            )
        )
        shift.absorb(suites.check_frozen_shift(MutatedBasis(basis), rng, max(count // 2, 5)))
    trans = suites.check_order_transposition(
        principal_seed(((0, 0, -1), (0, 0, -1), (1, 1, 0)), (1, 1, 1)), rng, count
    )
    psi = suites.check_bullet_embedding(
        suites.random_principal_seed(rng, 2),
        [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(50)],
    )
    reports.extend([roundtrip, triang, props, shift, trans, psi])
    return reports


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qca`` argument parser, built once per process: parsing reads it
    and never changes it."""
    parser = argparse.ArgumentParser(
        prog="qca",
        description="Exact quantum cluster algebra computations: seeds, "
        "standard monomials, canonical triangular bases, verification suites.",
    )
    parser.add_argument("--format", choices=["text", "machine"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_seed = sub.add_parser("seed", help="validate or transform seed files")
    seed_sub = p_seed.add_subparsers(dest="seed_cmd", required=True)
    p = seed_sub.add_parser("check")
    p.add_argument("seedfile")
    p = seed_sub.add_parser("mutate")
    p.add_argument("seedfile")
    p.add_argument("-k", type=int, required=True, help="1-based exchange index")
    p.add_argument("-o", "--output")
    p = seed_sub.add_parser("principal")
    p.add_argument("--B", required=True, help="JSON file with the n x n exchange matrix")
    p.add_argument("--d", required=True, help="comma-separated symmetrizers")
    p.add_argument("-o", "--output")
    p = seed_sub.add_parser("double")
    p.add_argument("seedfile")
    p.add_argument("-o", "--output")
    p_seed.set_defaults(func=cmd_seed)

    p_basis = sub.add_parser("basis", help="compute a basis element")
    p_basis.add_argument("kind", choices=["e", "c"])
    p_basis.add_argument("seedfile")
    p_basis.add_argument("--a", required=True, help="comma-separated label")
    p_basis.add_argument("-o", "--output")
    p_basis.add_argument("--expansion-out")
    p_basis.add_argument("--cache")
    p_basis.add_argument("--no-cache", action="store_true")
    p_basis.add_argument("--expansion-cap", type=int, default=10**5)
    p_basis.set_defaults(func=cmd_basis)

    p_ver = sub.add_parser("verify", help="run verification suites")
    ver_sub = p_ver.add_subparsers(dest="verify_cmd", required=True)
    p = ver_sub.add_parser("kronecker")
    p.add_argument("--rmax", type=int, default=4)
    p.add_argument("--box", type=int, default=3)
    p = ver_sub.add_parser("rank2-principal")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--box", type=int, default=2)
    p = ver_sub.add_parser("identities")
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--pairs", default="1,1;2,1;2,2")
    p.add_argument("--random-seed", type=int, default=DEFAULT_RNG_SEED)
    p = ver_sub.add_parser("psi")
    p.add_argument("--seed", dest="seedfile", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--box", type=int, default=1)
    p.add_argument("--random-seed", type=int, default=DEFAULT_RNG_SEED)
    p = ver_sub.add_parser("compare-bases")
    p.add_argument("--seed", dest="seedfile", required=True)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)
    p = ver_sub.add_parser("properties")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--random-seed", type=int, default=DEFAULT_RNG_SEED)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flag_minimums(args)
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, ExpansionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
