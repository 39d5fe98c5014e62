"""End-to-end command-line behavior and file round-trips."""

import argparse
import json
import time

import pytest

from qca import cli
from qca import seed as seed_module
from qca.cli import main
from qca.crystal import rank2_principal_seed
from qca.ebasis import EBasis, MutatedBasis
from qca.kronecker import a11_seed
from qca.laurent import LaurentPoly, parse_laurent
from qca.lusztig import compare_bases
from qca.report import Report
from qca.seed import (
    compatible_orders,
    load_seed,
    principal_seed,
    save_seed,
    seed_hash,
    seed_to_dict,
)
from qca.torus import TorusElement

# Sources 1 and 2 both point at the sink 3 (1-based).
FORK = principal_seed(((0, 0, -1), (0, 0, -1), (1, 1, 0)), (1, 1, 1))


@pytest.fixture()
def a11_file(tmp_path):
    path = tmp_path / "a11.json"
    save_seed(a11_seed(), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_seed_check(a11_file, capsys):
    code, out = run(capsys, "seed", "check", a11_file)
    assert code == 0
    assert "valid" in out and "acyclic" in out
    assert "compatible orders: [1,2]" in out


def test_seed_check_invalid(tmp_path, capsys):
    bad = dict(m=2, n=2, B=[[0, -2], [2, 0]], Lambda=[[0, 5], [-5, 0]], d=[2, 2])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "seed", "check", str(path))
    assert code == 1
    assert "INVALID" in out


def test_seed_check_malformed(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"m": 2}))
    code = main(["seed", "check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("B", [[0, -2.7], [2, 0]]),
        ("B", [[0, "-2"], [2, 0]]),
        ("d", [2, 2.9]),
        ("order", [True, 2]),
    ],
)
def test_seed_check_refuses_a_number_that_is_not_an_integer(tmp_path, capsys, field, value):
    # Each value, converted with int(), gives back the valid seed a11.
    data = {**seed_to_dict(a11_seed()), field: value}
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(data))
    code = main(["seed", "check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: malformed seed data: expected an integer")
    assert err.count("\n") == 1


def test_seed_principal_refuses_a_fractional_matrix(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text("[[0,-1.9],[1,0]]")
    out_path = tmp_path / "p.json"
    code = main(["seed", "principal", "--B", str(bfile), "--d", "1,1", "-o", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: expected an integer, got -1.9\n"
    assert not out_path.exists()


def test_seed_mutate(a11_file, tmp_path, capsys):
    out_path = str(tmp_path / "mut.json")
    code, _ = run(capsys, "seed", "mutate", a11_file, "-k", "1", "-o", out_path)
    assert code == 0
    mutated = load_seed(out_path)
    assert mutated.btilde == ((0, 2), (-2, 0))


@pytest.mark.parametrize(
    "seed, k, label",
    [(rank2_principal_seed(3, 2), "2", "-1,-1,0,0"), (a11_seed(), "1", "-1,-1")],
    ids=["principal-3-2", "a11"],
)
def test_mutated_seed_file_works_in_every_command(seed, k, label, tmp_path, capsys):
    path = str(tmp_path / "s.json")
    save_seed(seed, path)
    out_path = str(tmp_path / "mut.json")
    code, _ = run(capsys, "seed", "mutate", path, "-k", k, "-o", out_path)
    assert code == 0
    code, out = run(capsys, "seed", "check", out_path)
    assert code == 0 and "seed order compatible" in out.splitlines()
    code, out = run(capsys, "basis", "c", out_path, f"--a={label}", "--no-cache")
    assert code == 0 and out.startswith(f"C = E({label})")
    code, out = run(capsys, "verify", "compare-bases", "--seed", out_path, "--window", "2")
    assert code == 0 and "PASS" in out and "(25 checks)" in out


@pytest.mark.parametrize("k", ["0", "3"])
def test_seed_mutate_index_out_of_range(a11_file, capsys, k):
    code = main(["seed", "mutate", a11_file, "-k", k])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: mutation index {k} out of range [1, 2]\n"


def test_seed_principal_and_double(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text("[[0,-1],[1,0]]")
    out_path = str(tmp_path / "p.json")
    code, _ = run(capsys, "seed", "principal", "--B", str(bfile), "--d", "1,1", "-o", out_path)
    assert code == 0
    seed = load_seed(out_path)
    assert seed.m == 4 and seed.n == 2
    dbl_path = str(tmp_path / "d.json")
    code, _ = run(capsys, "seed", "double", out_path, "-o", dbl_path)
    assert code == 0
    assert load_seed(dbl_path).m == 8


@pytest.mark.parametrize("text", ["5", "[[0,null],[1,0]]", "[[0,-1],[1,Infinity]]"])
def test_seed_principal_malformed_matrix(tmp_path, capsys, text):
    bfile = tmp_path / "b.json"
    bfile.write_text(text)
    out_path = tmp_path / "p.json"
    code = main(["seed", "principal", "--B", str(bfile), "--d", "1,1", "-o", str(out_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


# A JSON document nested deeper than the decoder's recursion limit.
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "argv",
    [
        ["seed", "check", "{path}"],
        ["basis", "e", "{path}", "--a=0,0"],
        ["seed", "principal", "--B", "{path}", "--d", "1,1", "-o", "{out}"],
    ],
    ids=["seed-check", "basis-e", "principal-B"],
)
def test_deeply_nested_json_file_is_an_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    out_path = tmp_path / "p.json"
    code = main([arg.format(path=path, out=out_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"
    assert not out_path.exists()


def test_basis_c_output(a11_file, tmp_path, capsys):
    elt_path = str(tmp_path / "c.json")
    exp_path = str(tmp_path / "c_exp.json")
    code, out = run(
        capsys,
        "basis",
        "c",
        a11_file,
        "--a=-1,-1",
        "--no-cache",
        "-o",
        elt_path,
        "--expansion-out",
        exp_path,
    )
    assert code == 0
    assert "C = E(-1,-1) - v^4 E(1,1)" in out
    # Emitted element file re-parses to the computed element.
    records = json.loads(open(elt_path).read())
    seed = a11_seed()
    element = TorusElement.from_records(seed.form(), records)
    from qca.ebasis import EBasis
    from qca.lusztig import TriangularTable

    assert element == TriangularTable(EBasis(seed)).element((-1, -1))
    expansion = json.loads(open(exp_path).read())
    parsed = {tuple(rec["a"]): parse_laurent(rec["coeff"]) for rec in expansion}
    assert set(parsed) == {(-1, -1), (1, 1)}


def test_basis_c_expansion_cap(a11_file, capsys):
    code = main(["basis", "c", a11_file, "--a=-3,-3", "--no-cache", "--expansion-cap", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_basis_c_negative_expansion_cap(tmp_path, capsys):
    path = str(tmp_path / "p32.json")
    save_seed(rank2_principal_seed(3, 2), path)
    for cap in ("1", "-1"):
        argv = ["basis", "c", path, "--a=-2,-2,0,0", "--no-cache", "--expansion-cap", cap]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, cap
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["e", "c"])
def test_basis_label_length(kind, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "p32.json")
    save_seed(rank2_principal_seed(3, 2), path)

    def no_basis(*args, **kwargs):
        raise AssertionError("basis built before the label was checked")

    monkeypatch.setattr(cli, "EBasis", no_basis)
    code = main(["basis", kind, path, "--a=1,2", "--no-cache"])
    assert code == 2
    assert capsys.readouterr().err == "error: --a must have 4 entries, got 2\n"


def test_basis_request_validates_its_seed_once(a11_file, capsys, monkeypatch):
    # load_seed and the basis both require a valid seed; only the first validates.
    calls = []
    original = seed_module.validate
    monkeypatch.setattr(seed_module, "validate", lambda s: calls.append(s) or original(s))
    code, _ = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--no-cache")
    assert code == 0
    assert len(calls) == 1


def test_basis_e_invalid_edgeless_seed(tmp_path, capsys):
    # An edgeless exchange graph has n! compatible orders; the error names
    # only the violations.
    m, n = 16, 8
    data = dict(
        m=m,
        n=n,
        B=[[0] * n for _ in range(n)] + [[int(i == j) for j in range(n)] for i in range(n)],
        Lambda=[[0] * m for _ in range(m)],
        d=[1] * n,
    )
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    code = main(["basis", "e", str(path), "--a=" + ",".join("0" * m), "--no-cache"])
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 1000


def test_basis_e_single_monomial(a11_file, capsys):
    code, out = run(capsys, "basis", "e", a11_file, "--a=1,1", "--no-cache")
    assert code == 0
    assert "E = E(1,1)" in out
    assert "X^(1,1)" in out


def test_basis_cache_hit(a11_file, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out = run(capsys, "basis", "c", a11_file, "--a=-2,-2", "--cache", cache)
    assert code == 0 and "cached: no" in out
    code, out = run(capsys, "basis", "c", a11_file, "--a=-2,-2", "--cache", cache)
    assert code == 0 and "cached: yes" in out


@pytest.mark.parametrize(
    "body",
    [
        lambda h: [],
        lambda h: {"seed_hash": h, "rows": []},
        lambda h: {"seed_hash": h, "rows": {"x,y": {"p": []}}},
    ],
    ids=["list", "rows-list", "bad-key"],
)
def test_basis_c_corrupt_cache_file(a11_file, tmp_path, capsys, body):
    h = seed_hash(a11_seed())
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"{h}.json").write_text(json.dumps(body(h)))
    code, out = run(capsys, "basis", "c", a11_file, "--a=-2,-2", "--cache", str(cache))
    assert code == 0 and "cached: no" in out
    code, fresh = run(capsys, "basis", "c", a11_file, "--a=-2,-2", "--no-cache")
    assert code == 0
    assert out.splitlines()[:2] == fresh.splitlines()[:2]
    code, out = run(capsys, "basis", "c", a11_file, "--a=-2,-2", "--cache", str(cache))
    assert code == 0 and "cached: yes" in out


# Records that decode but break a row invariant: a label at grading at least
# r(-1,-1) = 2, a coefficient outside vZ[v], the true row -v^4 E(1,1) with an
# explicit zero coefficient added, or a row that keeps all three but
# assembles to an element that is not bar-invariant (its coefficient at
# X^(1,1) would be v^2 + v^4).
BAD_ROWS = {
    "grading": {"p": [{"a": [-5, -5], "coeff": "v^3"}]},
    "own-label": {"p": [{"a": [-1, -1], "coeff": "v"}]},
    "coeff": {"p": [{"a": [1, 1], "coeff": "7 + v^-3"}]},
    "both": {"p": [{"a": [-5, -5], "coeff": "7 + v^-3"}]},
    "zero": {"p": [{"a": [0, 0], "coeff": "0"}, {"a": [1, 1], "coeff": "-v^4"}]},
    "not-bar-invariant": {"p": [{"a": [1, 1], "coeff": "v^2"}]},
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_basis_c_cached_row_breaking_invariants_is_a_miss(a11_file, tmp_path, capsys, name):
    cache = tmp_path / "cache"
    code, fresh = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--no-cache")
    assert code == 0 and fresh.startswith("C = E(-1,-1) - v^4 E(1,1)\n")
    bad = f"\n-1,-1\t{json.dumps(BAD_ROWS[name])}\n"
    # The bad record alone: a miss, recomputed and appended after it.
    cache.mkdir()
    path = cache / f"{seed_hash(a11_seed())}.json"
    path.write_text(bad)
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--cache", str(cache))
    assert code == 0 and out == fresh
    assert path.read_text().startswith(bad) and path.read_text().count("\n-1,-1\t") == 2
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--cache", str(cache))
    assert code == 0 and out == fresh.replace("cached: no", "cached: yes")
    # The bad record after a good one: the good one serves the label.
    path.write_text(path.read_text() + bad)
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--cache", str(cache))
    assert code == 0 and out == fresh.replace("cached: no", "cached: yes")


def test_basis_c_deeply_nested_cache_record_is_a_miss(a11_file, tmp_path, capsys):
    code, fresh = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--no-cache")
    assert code == 0 and fresh.startswith("C = E(-1,-1) - v^4 E(1,1)\n")
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"{seed_hash(a11_seed())}.json"
    bad = f"\n-1,-1\t{DEEP_JSON}\n"
    path.write_text(bad)
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--cache", str(cache))
    assert code == 0 and out == fresh
    assert path.read_text().startswith(bad) and path.read_text().count("\n-1,-1\t") == 2


def test_basis_c_cached_row_that_is_not_bar_invariant_is_recomputed(a11_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--cache", str(cache))
    assert code == 0 and "cached: no" in out
    # Overwrite the log with a row at the right gradings, in vZ[v], but wrong.
    path = cache / f"{seed_hash(a11_seed())}.json"
    path.write_text('-1,-1\t{"p":[{"a":[1,1],"coeff":"v^2"}]}')
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--cache", str(cache))
    assert code == 0
    assert out.startswith("C = E(-1,-1) - v^4 E(1,1)\n") and "cached: no" in out
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-1", "--cache", str(cache))
    assert code == 0 and "cached: yes" in out and "- v^4 E(1,1)" in out


def test_parser_shared_across_calls(a11_file, tmp_path, monkeypatch, capsys):
    # One parser serves every call in the process; no flag of one call may
    # reach the next.
    cache = tmp_path / "cache"
    monkeypatch.setenv("QCA_CACHE_DIR", str(cache))
    code, out = run(capsys, "basis", "c", a11_file, "--a=-2,-2", "--no-cache")
    assert code == 0 and "cached: no" in out
    assert not cache.exists()
    code, out = run(capsys, "basis", "c", a11_file, "--a=-2,-2")
    assert code == 0 and "cached: no" in out
    assert any(cache.iterdir())
    code, out = run(capsys, "basis", "c", a11_file, "--a=-2,-2")
    assert code == 0 and "cached: yes" in out
    code, out = run(capsys, "seed", "check", a11_file)
    assert code == 0 and "valid" in out
    assert cli.build_parser() is cli.build_parser()
    args = cli.build_parser().parse_args(["seed", "check", a11_file])
    assert not hasattr(args, "no_cache") and not hasattr(args, "a")
    args = cli.build_parser().parse_args(["basis", "c", a11_file, "--a=0,0"])
    assert args.no_cache is False and args.cache is None


def test_verify_kronecker(capsys):
    code, out = run(capsys, "verify", "kronecker", "--rmax", "2", "--box", "2")
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_kronecker_has_no_division_cap(capsys):
    # Every exchange division is exact, so there is no step cap to set.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kronecker", "--division-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --division-cap 5" in capsys.readouterr().err


def test_verify_kronecker_past_default_horizon(capsys):
    # The Chebyshev family reaches variable rmax + 2 = 9.
    code, out = run(capsys, "verify", "kronecker", "--rmax", "7", "--box", "1")
    assert code == 0
    assert out.count("PASS") == 3


def test_seed_check_lists_orders_of_small_seed(tmp_path, capsys):
    path = tmp_path / "zero.json"
    save_seed(principal_seed(((0, 0, 0),) * 3, (1, 1, 1)), str(path))
    code, out = run(capsys, "seed", "check", str(path))
    assert code == 0
    orders = "[1,2,3], [1,3,2], [2,1,3], [2,3,1], [3,1,2], [3,2,1]"
    assert out.splitlines()[0] == f"valid; acyclic; compatible orders: {orders}"
    code, out = run(capsys, "--format", "machine", "seed", "check", str(path))
    assert code == 0
    assert len(json.loads(out)["compatible_orders"]) == 6
    assert json.loads(out)["compatible_orders_complete"]


def test_seed_check_cuts_the_order_listing(tmp_path, capsys):
    # An edgeless rank-8 seed has 8! = 40320 compatible orders; 24 are listed.
    seed = principal_seed(((0,) * 8,) * 8, (1,) * 8)
    path = tmp_path / "edgeless-8.json"
    save_seed(seed, str(path))
    code, out = run(capsys, "seed", "check", str(path))
    first = out.splitlines()[0]
    assert code == 0 and first.startswith("valid; acyclic; compatible orders: [1,2,3,4,5,6,7,8], ")
    # The first 24 in lexicographic order: every order of the last four.
    assert first.endswith(", [1,2,3,4,8,7,6,5], ...") and first.count("[") == 24
    code, out = run(capsys, "--format", "machine", "seed", "check", str(path))
    report = json.loads(out)
    assert code == 0 and len(report["compatible_orders"]) == 24
    assert report["compatible_orders_complete"] is False
    assert len(compatible_orders(seed)) == 40320


def test_verify_rank2_principal(capsys):
    code, out = run(capsys, "verify", "rank2-principal", "--b", "1", "--c", "1", "--box", "1")
    assert code == 0
    assert out == (
        "PASS rank-2 principal unit coefficients (b=1, c=1) (9 checks)\n"
        "PASS standard correspondence (b=1, c=1) (162 checks)\n"
        "PASS reduction targets (b=1, c=1) (252 checks)\n"
    )


@pytest.mark.parametrize("b,c", [(1, 1), (2, 1), (3, 2), (1, 4)])
def test_verify_rank2_principal_counts_at_box_2(capsys, b, c):
    # --box 2: 5 x 5 labels; 5 x 5 x 3 x 3 labels, each read unmutated and
    # mutated; 9 frozen pairs x 9 (m2, m'2) x 19 interior (m'1, m1, m''1).
    code, out = run(capsys, "verify", "rank2-principal", "--b", str(b), "--c", str(c))
    assert code == 0
    assert out == (
        f"PASS rank-2 principal unit coefficients (b={b}, c={c}) (25 checks)\n"
        f"PASS standard correspondence (b={b}, c={c}) (450 checks)\n"
        f"PASS reduction targets (b={b}, c={c}) (1539 checks)\n"
    )


def test_verify_compare_bases(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text("[[0,-1],[1,0]]")
    seed_path = str(tmp_path / "p.json")
    run(capsys, "seed", "principal", "--B", str(bfile), "--d", "1,1", "-o", seed_path)
    code, out = run(capsys, "verify", "compare-bases", "--seed", seed_path, "--window", "1")
    assert code == 0
    assert "PASS" in out


def test_verify_compare_bases_parallel(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text("[[0,-1],[1,0]]")
    seed_path = str(tmp_path / "p.json")
    run(capsys, "seed", "principal", "--B", str(bfile), "--d", "1,1", "-o", seed_path)
    code, out = run(
        capsys,
        "verify",
        "compare-bases",
        "--seed",
        seed_path,
        "--window",
        "1",
        "--jobs",
        "2",
    )
    assert code == 0
    assert "PASS" in out and "(9 checks)" in out


@pytest.fixture
def fake_pool(monkeypatch):
    """The worker counts asked of a process pool that runs every chunk in
    this process, so no pool is ever started.  The pool is imported where it
    is started, so the fake replaces it in concurrent.futures."""
    requested = []

    class FakePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return [fn(x) for x in payloads]

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    return requested


def test_compare_bases_jobs_clamped(tmp_path, capsys, monkeypatch, fake_pool):
    # Only the recorded worker count matters.
    requested = fake_pool
    bfile = tmp_path / "b.json"
    bfile.write_text("[[0,-1],[1,0]]")
    seed_path = str(tmp_path / "p.json")
    run(capsys, "seed", "principal", "--B", str(bfile), "--d", "1,1", "-o", seed_path)
    args = ("verify", "compare-bases", "--seed", seed_path, "--window", "1")
    # An affinity mask of two CPUs bounds the workers, not the host's eight.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    code, out = run(capsys, *args, "--jobs", "100000")
    assert code == 0 and "(9 checks)" in out
    assert requested == [2]
    # Without an affinity mask, the host's count bounds them.
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    code, out = run(capsys, *args, "--jobs", "100000")
    assert code == 0 and "(9 checks)" in out
    assert requested == [2, 4]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one worker, no pool
    code, out = run(capsys, *args, "--jobs", "100000")
    assert code == 0 and "(9 checks)" in out
    assert requested == [2, 4]


def test_compare_bases_jobs_merge_worker_reports(a11_file, capsys, monkeypatch, fake_pool):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    args = ("--format", "machine", "verify", "compare-bases", "--seed", a11_file, "--window", "1")
    one = run(capsys, *args, "--jobs", "1")
    assert one[0] == 0 and fake_pool == []
    assert run(capsys, *args, "--jobs", "2") == one
    assert fake_pool == [2]


def test_cache_env_override(a11_file, tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("QCA_CACHE_DIR", str(cache_dir))
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-2")
    assert code == 0 and "cached: no" in out
    assert cache_dir.is_dir()
    code, out = run(capsys, "basis", "c", a11_file, "--a=-1,-2")
    assert code == 0 and "cached: yes" in out


def test_verify_machine_format(capsys):
    code, out = run(
        capsys,
        "--format",
        "machine",
        "verify",
        "identities",
        "--seeds",
        "2",
        "--bound",
        "1",
        "--pairs",
        "1,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(rec["failed"] == 0 for rec in payload["reports"])


def test_error_exit_code(tmp_path, capsys):
    code, _ = run(capsys, "seed", "check", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--pairs", "1,1,1"),
        ("--pairs", "1,1;2"),
        ("--pairs", "2,x"),
        ("--pairs", "0,1"),
        ("--nmax", "0"),
        ("--seeds", "-2"),
        ("--rmax", "-1"),
        ("--bound", "-1"),
        ("--bound", "0"),
    ],
)
def test_verify_identities_bad_flag_is_named(flag, value, capsys):
    code = main(["verify", "identities", "--seeds", "1", flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert flag in err, err


@pytest.mark.parametrize(
    "argv,flag",
    [
        ("basis e {seed} --a=1,x", "--a"),
        ("basis e {seed} --a=", "--a"),
        ("seed principal --B {B} --d 1,x", "--d"),
    ],
)
def test_vector_parse_error_names_the_flag(argv, flag, a11_file, tmp_path, capsys):
    b_file = tmp_path / "b.json"
    b_file.write_text("[[0, 1], [-1, 0]]")
    code = main(argv.format(seed=a11_file, B=b_file).split())
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert flag in err, err


@pytest.mark.parametrize(
    "argv,flag",
    [
        ("compare-bases --seed {seed} --window -1", "--window"),
        ("compare-bases --seed {seed} --jobs 0", "--jobs"),
        ("kronecker --rmax -1", "--rmax"),
        ("kronecker --box -1", "--box"),
        ("properties --seeds -1", "--seeds"),
        ("properties --count -3", "--count"),
        ("rank2-principal --b 1 --c 1 --box -1", "--box"),
        ("rank2-principal --b 0 --c 1", "--b"),
        ("rank2-principal --b 1 --c 0", "--c"),
        ("psi --seed {seed} --samples -1", "--samples"),
        ("psi --seed {seed} --box -1", "--box"),
    ],
)
def test_verify_size_flag_below_minimum_is_named(argv, flag, a11_file, capsys):
    code = main(["verify"] + argv.format(seed=a11_file).split())
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err


def test_seed_mutate_and_double_default_output_names(tmp_path, capsys):
    path = tmp_path / "fork.json"
    save_seed(FORK, str(path))
    code, out = run(capsys, "seed", "mutate", str(path), "-k", "2")
    assert code == 0 and out == f"wrote {tmp_path / 'fork.mu2.json'}\n"
    code, out = run(capsys, "seed", "double", str(path))
    assert code == 0 and out == f"wrote {tmp_path / 'fork.double.json'}\n"
    assert load_seed(str(tmp_path / "fork.double.json")).m == 2 * FORK.m
    bare = tmp_path / "fork"
    save_seed(FORK, str(bare))
    code, out = run(capsys, "seed", "double", str(bare))
    assert code == 0 and out == f"wrote {tmp_path / 'fork.double.json'}\n"


def test_mutation_at_a_middle_source_gives_a_working_seed_file(tmp_path, capsys):
    # Index 2 (1-based) is a source in the middle of the order [1,2,3]; the
    # mutated order must move it to the back to stay compatible.
    path = tmp_path / "fork.json"
    save_seed(FORK, str(path))
    out_path = str(tmp_path / "mut.json")
    code, _ = run(capsys, "seed", "mutate", str(path), "-k", "2", "-o", out_path)
    assert code == 0 and load_seed(out_path).order == (0, 2, 1)
    code, out = run(capsys, "seed", "check", out_path)
    assert code == 0 and "seed order compatible" in out.splitlines()
    code, out = run(capsys, "basis", "c", out_path, "--a=-1,-1,-1,0,0,0", "--no-cache")
    assert code == 0 and out.startswith("C = E(-1,-1,-1,0,0,0)")
    code, out = run(capsys, "verify", "compare-bases", "--seed", out_path, "--window", "1")
    assert code == 0 and out == "PASS triangular basis agrees across mutation (27 checks)\n"


def test_basis_c_machine_format_keys(a11_file, capsys):
    code, out = run(capsys, "--format", "machine", "basis", "c", a11_file, "--a=-1,-1", "--no-cache")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"kind", "a", "element", "expansion", "cached"}
    assert payload["kind"] == "c" and payload["a"] == [-1, -1] and payload["cached"] is False
    assert {"a": [-1, -1], "coeff": "1"} in payload["expansion"]


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# Each verify subcommand at the least value of every size flag, and the
# report names it prints.  Identities needs rank 2 for its principal
# report: at --nmax 1 that report has no checks.
LEAST_VERIFY_RUNS = {
    "kronecker": (
        "--rmax 0 --box 0",
        [
            "chebyshev family r<= 0",
            "cluster monomial labels m in (-1, 3), a <= 2",
            "standard monomial times X_0, |a| <= 0",
        ],
    ),
    "rank2-principal": (
        "--b 1 --c 1 --box 0",
        [
            "rank-2 principal unit coefficients (b=1, c=1)",
            "standard correspondence (b=1, c=1)",
            "reduction targets (b=1, c=1)",
        ],
    ),
    "identities": (
        "--seeds 1 --nmax 2 --rmax 0 --bound 1 --pairs 1,1",
        [
            "gaussian binomial products r <= 0",
            "exchange relations on 1 random principal seeds",
            "principal product identities on the same seeds",
            "straightening identities (b=1, c=1)",
            "normalization closed form (b=1, c=1)",
        ],
    ),
    "psi": ("--seed {seed} --samples 1 --box 0", ["principal-in-double embedding"]),
    "compare-bases": (
        "--seed {seed} --window 0 --jobs 1",
        ["triangular basis agrees across mutation"],
    ),
    "properties": (
        "--seeds 1 --count 1",
        [
            "expansion roundtrips",
            "involution row triangularity",
            "triangular element properties",
            "frozen shift invariance",
            "order transposition invariance",
            "principal-in-double embedding",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_subcommands(_subcommands(cli.build_parser())["verify"])))
def test_every_verify_subcommand_passes_at_its_least_size(name, tmp_path, capsys):
    flags, names = LEAST_VERIFY_RUNS[name]
    path = tmp_path / "fork.json"
    save_seed(FORK, str(path))
    argv = ["--format", "machine", "verify", name, *flags.format(seed=path).split()]
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True and payload["command"] == f"verify {name}"
    assert [r["name"] for r in payload["reports"]] == names
    assert all(r["ok"] and r["checks"] > 0 for r in payload["reports"])


@pytest.mark.parametrize("flags", ["--nmax 1", "--seeds 1 --nmax 3 --random-seed 3"])
def test_verify_identities_with_an_empty_report_fails(flags, capsys):
    code, out = run(capsys, "verify", "identities", *flags.split())
    assert code == 1
    assert "FAIL principal product identities on the same seeds (no checks)" in out.splitlines()
    code, out = run(capsys, "--format", "machine", "verify", "identities", *flags.split())
    assert code == 1
    payload = json.loads(out)
    empty = [r for r in payload["reports"] if r["checks"] == 0]
    assert payload["ok"] is False and len(empty) == 1
    assert empty[0] == {
        "name": "principal product identities on the same seeds",
        "checks": 0,
        "failed": 0,
        "ok": False,
        "first_failure": None,
    }


def test_report_passes_only_with_checks_and_no_failures():
    rep = Report(name="r")
    assert not rep.ok and rep.summary() == "FAIL r (no checks)"
    rep.record(True)
    assert rep.ok and rep.summary() == "PASS r (1 checks)"
    rep.record(False, "bad")
    assert not rep.ok and rep.summary() == "FAIL r (1/2 checks failed; first: bad)"


ONE = LaurentPoly.one()


@pytest.mark.parametrize(
    "coeffs, message",
    [
        (
            {(0, 0, 0, 0): ONE, (1, 0, 0, 0): ONE},
            "two unit coefficients in expansion of (0, 0, 0, 0)",
        ),
        (
            {(0, 0, 0, 0): ONE, (1, 0, 0, 0): LaurentPoly.v_power(-1)},
            "coefficient at (1, 0, 0, 0) in expansion of (0, 0, 0, 0) is not in vZ[v]: v^-1",
        ),
        ({(1, 0, 0, 0): LaurentPoly.v_power(1)}, "no unit coefficient in expansion of (0, 0, 0, 0)"),
    ],
    ids=["two-units", "outside-vZ[v]", "no-unit"],
)
def test_broken_unit_coefficient_fails_the_checks(coeffs, message, monkeypatch, capsys):
    monkeypatch.setattr(EBasis, "expand", lambda self, x: coeffs)
    a = (0, 0, 0, 0)
    with pytest.raises(ValueError) as exc:
        MutatedBasis(EBasis(rank2_principal_seed(1, 1))).unit_label(a)
    assert str(exc.value) == message
    # compare_bases expands E'(a) - C(l) and adds the row of C(l); at a = 0,
    # l = a and C(l) = 1, so the broken expansion is the sweep's minus {a: 1}.
    swept = {b: c for b, c in {**coeffs, a: coeffs.get(a, 0) - ONE}.items() if c}
    monkeypatch.setattr(EBasis, "expand", lambda self, x: dict(swept))
    rep = compare_bases(EBasis(rank2_principal_seed(1, 1)), [a])
    assert rep.checks == 1 and rep.failures == [f"a={a}: {message}"]
    # The crystal's expansions too: at --box 0 the reduction targets are the
    # 9 frozen shifts of the zero index, the first (-1, -1, 0, ..., 0).
    monkeypatch.setattr(EBasis, "expand", lambda self, x: coeffs)
    mm = (-1, -1, 0, 0, 0, 0, 0)
    code, out = run(capsys, "verify", "rank2-principal", "--b", "1", "--c", "1", "--box", "0")
    assert code == 1
    assert out == (
        "FAIL rank-2 principal unit coefficients (b=1, c=1) "
        f"(1/1 checks failed; first: a={a}: {message})\n"
        "PASS standard correspondence (b=1, c=1) (18 checks)\n"
        "FAIL reduction targets (b=1, c=1) "
        f"(9/9 checks failed; first: {message.replace(str(a), str(mm))})\n"
    )


# Seed files whose ``seed check`` output is pinned: every index is 1-based.
GOLDEN_SEEDS = {
    "a11": seed_to_dict(a11_seed()),
    # Valid, but its exchange graph is the directed 3-cycle: no order fits.
    "cyclic": seed_to_dict(principal_seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)), (1, 1, 1))),
    "fork-order-3-2-1": seed_to_dict(FORK.replace(order=(2, 1, 0))),
    "non-skew": dict(m=2, n=2, B=[[0, -2], [2, 0]], Lambda=[[0, -1], [2, 0]], d=[2, 2]),
    # The (1, 1) principal exchange matrix under a form that is skew but
    # compatible nowhere on the diagonal.
    "four-compat": dict(
        m=4,
        n=2,
        B=[[0, -1], [1, 0], [1, 0], [0, 1]],
        Lambda=[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        d=[1, 1],
    ),
}
GOLDEN_CHECK = {
    "a11": (
        0,
        "valid; acyclic; compatible orders: [1,2]\n"
        "seed order compatible\n"
        "  k=1: source in exchange graph, source in extended graph\n"
        "  k=2: sink in exchange graph, sink in extended graph\n",
        {
            "valid": True,
            "acyclic": True,
            "order_compatible": True,
            "skew_violations": [],
            "compat_violations": [],
            "order_violations": [],
            "compatible_orders": [[1, 2]],
            "compatible_orders_complete": True,
            "sink_source_exchange": ["source", "sink"],
            "sink_source_extended": ["source", "sink"],
        },
    ),
    "cyclic": (
        1,
        "valid; not acyclic\n"
        "seed order NOT compatible: [(1, 2), (2, 3)]\n"
        "  k=1: neither in exchange graph, neither in extended graph\n"
        "  k=2: neither in exchange graph, neither in extended graph\n"
        "  k=3: neither in exchange graph, neither in extended graph\n",
        {
            "valid": True,
            "acyclic": False,
            "order_compatible": False,
            "skew_violations": [],
            "compat_violations": [],
            "order_violations": [[1, 2], [2, 3]],
            "compatible_orders": [],
            "compatible_orders_complete": True,
            "sink_source_exchange": ["neither", "neither", "neither"],
            "sink_source_extended": ["neither", "neither", "neither"],
        },
    ),
    "fork-order-3-2-1": (
        1,
        "valid; acyclic; compatible orders: [1,2,3], [2,1,3]\n"
        "seed order NOT compatible: [(3, 1), (3, 2)]\n"
        "  k=1: source in exchange graph, source in extended graph\n"
        "  k=2: source in exchange graph, source in extended graph\n"
        "  k=3: sink in exchange graph, neither in extended graph\n",
        {
            "valid": True,
            "acyclic": True,
            "order_compatible": False,
            "skew_violations": [],
            "compat_violations": [],
            "order_violations": [[3, 1], [3, 2]],
            "compatible_orders": [[1, 2, 3], [2, 1, 3]],
            "compatible_orders_complete": True,
            "sink_source_exchange": ["source", "source", "sink"],
            "sink_source_extended": ["source", "source", "neither"],
        },
    ),
    "non-skew": (
        1,
        "INVALID; acyclic; compatible orders: [1,2]\n"
        "  skew-symmetry violated at (1, 2)\n"
        "  skew-symmetry violated at (2, 1)\n"
        "seed order compatible\n"
        "  k=1: source in exchange graph, source in extended graph\n"
        "  k=2: sink in exchange graph, sink in extended graph\n",
        {
            "valid": False,
            "acyclic": True,
            "order_compatible": True,
            "skew_violations": [[1, 2], [2, 1]],
            "compat_violations": [],
            "order_violations": [],
            "compatible_orders": [[1, 2]],
            "compatible_orders_complete": True,
            "sink_source_exchange": ["source", "sink"],
            "sink_source_extended": ["source", "sink"],
        },
    ),
    "four-compat": (
        1,
        "INVALID; acyclic; compatible orders: [1,2]\n"
        "  compatibility violated at (i=1, j=1)\n"
        "  compatibility violated at (i=4, j=1)\n"
        "  compatibility violated at (i=2, j=2)\n"
        "  compatibility violated at (i=3, j=2)\n"
        "seed order compatible\n"
        "  k=1: source in exchange graph, source in extended graph\n"
        "  k=2: sink in exchange graph, neither in extended graph\n",
        {
            "valid": False,
            "acyclic": True,
            "order_compatible": True,
            "skew_violations": [],
            "compat_violations": [[1, 1], [4, 1], [2, 2], [3, 2]],
            "order_violations": [],
            "compatible_orders": [[1, 2]],
            "compatible_orders_complete": True,
            "sink_source_exchange": ["source", "sink"],
            "sink_source_extended": ["source", "neither"],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEEDS))
def test_seed_check_golden_output(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GOLDEN_SEEDS[name]))
    code, text, machine = GOLDEN_CHECK[name]
    assert run(capsys, "seed", "check", str(path)) == (code, text)
    got_code, out = run(capsys, "--format", "machine", "seed", "check", str(path))
    assert got_code == code
    assert out.endswith("\n") and json.loads(out) == machine
    assert list(json.loads(out)) == list(machine)


def test_basis_on_a_bad_order_names_1_based_pairs(tmp_path, capsys):
    path = tmp_path / "fork.json"
    path.write_text(json.dumps(GOLDEN_SEEDS["fork-order-3-2-1"]))
    code = main(["basis", "c", str(path), "--a=-1,-1,-1,0,0,0", "--no-cache"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: seed order is not sign-compatible with the exchange matrix; "
        "violations at [(3, 1), (3, 2)]\n"
    )


@pytest.mark.parametrize(
    "argv,flag",
    [
        ("seed principal --B {B} --d 1", "--d"),
        ("seed principal --B {B} --d 1,0", "--d"),
        ("basis c {seed} --a=-1,-1 --expansion-cap -1", "--expansion-cap"),
    ],
)
def test_argument_error_names_the_flag(argv, flag, a11_file, tmp_path, capsys):
    b_file = tmp_path / "b.json"
    b_file.write_text("[[0, 1], [-1, 0]]")
    out_path = tmp_path / "principal.json"
    code = main(argv.format(seed=a11_file, B=b_file).split() + ["-o", str(out_path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err
    assert not out_path.exists()


def test_building_a_basis_never_classifies_the_seed(tmp_path, capsys, monkeypatch):
    # Acyclicity and the sink/source classes describe a seed; only a rendered
    # report (``seed check``) reads them.
    path = str(tmp_path / "fork.json")
    save_seed(FORK, path)

    def not_computed(*args, **kwargs):
        raise AssertionError("descriptive report field computed")

    monkeypatch.setattr("qca.seed.is_acyclic", not_computed)
    monkeypatch.setattr("qca.seed.sink_or_source", not_computed)
    MutatedBasis(EBasis(FORK))
    assert load_seed(path) == FORK
    code, out = run(capsys, "basis", "c", path, "--a=-1,-1,-1,0,0,0", "--no-cache")
    assert code == 0 and out.startswith("C = E(-1,-1,-1,0,0,0)")
    code, out = run(capsys, "verify", "compare-bases", "--seed", path, "--window", "1")
    assert code == 0 and out.startswith("PASS ")

    calls = []
    monkeypatch.setattr("qca.seed.is_acyclic", lambda seed: calls.append("acyclic") or True)
    monkeypatch.setattr(
        "qca.seed.sink_or_source",
        lambda seed, k, extended=True: calls.append(("class", k, extended)) or "source",
    )
    code, _ = run(capsys, "seed", "check", path)
    assert code == 0
    assert "acyclic" in calls and ("class", 2, True) in calls and ("class", 2, False) in calls
