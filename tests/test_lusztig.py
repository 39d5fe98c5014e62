"""Triangular-basis rows and basis independence."""

import itertools
import json
import multiprocessing
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from qca.crystal import rank2_principal_seed
from qca.ebasis import EBasis, ExpansionError, MutatedBasis
from qca.kronecker import KroneckerAlgebra, a11_seed
from qca.laurent import LaurentPoly, bar_rule, cancel_rule
from qca.lusztig import (
    RowCache,
    TriangularTable,
    compare_bases,
    phi_rank2_principal,
)
from qca.seed import principal_seed, seed_hash
from qca.verify import random_principal_seed

v = LaurentPoly.v_power


def positive_part(f):
    """``[f]_+``, the part of ``f`` at exponents ``>= 1``: the plain oracle of
    the bar rule, the unique ``p`` in ``v Z[v]`` with ``p - bar(p) = f``
    when ``f + bar(f) = 0``."""
    return LaurentPoly({e: x for e, x in f.items() if e >= 1})


@pytest.fixture(scope="module")
def affine_table():
    return TriangularTable(EBasis(a11_seed()))


def test_base_cases(affine_table):
    basis = affine_table.basis
    # Grading zero: no corrections.
    assert affine_table.p_row((1, 1)) == {}
    assert affine_table.element((1, 1)) == basis.element((1, 1))
    # First nontrivial row.
    assert affine_table.p_row((-1, -1)) == {(1, 1): -v(4)}
    alg = KroneckerAlgebra()
    assert affine_table.element((-1, -1)) == alg.x_delta()


def test_chebyshev_oracle(affine_table):
    # Independent oracle: the three-term recurrence evaluated in the torus.
    alg = KroneckerAlgebra()
    for r in (1, 2, 3):
        assert affine_table.element((-r, -r)) == alg.chebyshev(r)


@st.composite
def correction_inputs(draw):
    """Laurent polynomials of five shapes: arbitrary, zero, bar-invariant,
    and supported on one side of ``v^0`` only."""
    c = LaurentPoly(draw(st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=6)))
    shape = draw(st.sampled_from(["any", "zero", "symmetric", "positive", "negative"]))
    if shape == "zero":
        return LaurentPoly.zero()
    if shape == "symmetric":
        return c + c.bar()
    if shape == "positive":
        return LaurentPoly({e: x for e, x in c.items() if e > 0})
    if shape == "negative":
        return LaurentPoly({e: x for e, x in c.items() if e < 0})
    return c


@st.composite
def accumulators(draw):
    """Raw ``{v-exponent: integer}`` maps as the sweep pops them: the terms
    of a :func:`correction_inputs` polynomial plus entries cancelled to 0."""
    zeros = draw(st.sets(st.integers(-8, 8), max_size=4))
    return {**dict.fromkeys(zeros, 0), **dict(draw(correction_inputs()).items())}


@settings(deadline=None, max_examples=200)
@given(accumulators())
def test_settle_rules_read_raw_accumulators(raw):
    c = LaurentPoly(raw)
    p, settled = bar_rule(raw)
    assert p == positive_part(c.bar() - c) and settled == c + p
    assert p.in_v_zv() and settled.bar() == settled
    assert cancel_rule(raw) == (-c, LaurentPoly.zero())
    # Equality compares term maps; this names the zero-term rule outright.
    for poly in (p, settled, *cancel_rule(raw)):
        assert all(x for _, x in poly.items())


def test_verify_report(affine_table):
    rep = affine_table.verify((-2, -2))
    assert rep.ok
    rep = affine_table.verify((3, 5))
    assert rep.ok and rep.checks == 1  # only bar-invariance to check


# Corruptions of the computed row of (-1, -1), which is -v^4 E(1,1): a label
# at no smaller grading, a coefficient outside vZ[v] (adding 1 E(1,1) = X^(1,1)
# keeps the element bar-invariant, so only that check sees it), an explicit
# zero coefficient (the element is unchanged, so only that check sees it), and
# a change inside vZ[v] that breaks bar-invariance.
CORRUPTIONS = {
    "grading": lambda row: {**row, (-2, -2): v(1)},
    "coeff": lambda row: {**row, (1, 1): row[(1, 1)] + 1},
    "zero": lambda row: {**row, (0, 0): LaurentPoly.zero()},
    "not-bar-invariant": lambda row: {**row, (1, 1): row[(1, 1)] + v(2)},
}


def test_verify_flags_corruption(tmp_path):
    seed = a11_seed()
    row = TriangularTable(EBasis(seed)).p_row((-1, -1))
    for name, corrupt in CORRUPTIONS.items():
        bad = corrupt(row)
        table = TriangularTable(EBasis(seed))
        table._rows[(-1, -1)] = bad
        rep = table.verify((-1, -1))
        assert not rep.ok and rep.checks == 1 + 2 * len(bad), name
        # Stored in the cache, the same row is a miss and is recomputed.
        cache = RowCache(str(tmp_path / name), seed_hash(seed))
        cache.store((-1, -1), bad)
        assert TriangularTable(EBasis(seed), cache=cache).p_row((-1, -1)) == row, name
        assert cache.hits == 0, name


def test_verify_compares_the_held_element():
    # C(-1,-1) + X^(0,0) is still bar-invariant, but it is not the element the
    # row assembles to; verify reports it and keeps the held element as it is.
    seed = a11_seed()
    table = TriangularTable(EBasis(seed))
    wrong = table.element((-1, -1)) + seed.form().one()
    table._elements[(-1, -1)] = wrong
    assert wrong.bar() == wrong
    rep = table.verify((-1, -1))
    assert not rep.ok and rep.checks == 3
    assert table.element((-1, -1)) is wrong


def closure_row(basis, a):
    """Reference row by the closure recursion over the involution rows
    ``r[a, a']`` (the expansion of ``bar(E(a)) - E(a)``):

        p[a'] = [ r[a, a'] + sum_{a''} bar(p[a'']) * r[a'', a'] ]_+

    evaluated level by level in decreasing grading; an involution row sits
    strictly below its label, so a level is complete when it is reached.
    """
    pending = dict(basis.r_row(a))
    row = {}
    while pending:
        level = max(basis.grading(key) for key in pending)
        for key in sorted(k for k in pending if basis.grading(k) == level):
            f = pending.pop(key)
            assert f + f.bar() == LaurentPoly.zero(), (a, key)
            p = positive_part(f)
            if p:
                row[key] = p
                for key2, rc in basis.r_row(key).items():
                    pending[key2] = pending.get(key2, LaurentPoly.zero()) + p.bar() * rc
    return row


def test_p_row_matches_closure_oracle():
    window = range(-4, 5)
    cases = [(a11_seed(), list(itertools.product(window, window)) + [(-8, -8)])]
    window, frozen = range(-3, 4), (-1, 0, 1)
    for b, c in [(2, 2), (3, 2)]:
        labels = list(itertools.product(window, window, frozen, frozen))
        cases.append((rank2_principal_seed(b, c), labels))
    rng = random.Random(1206)
    for _ in range(3):
        seed = random_principal_seed(rng, 3)
        labels = [tuple(rng.randint(-2, 2) for _ in range(seed.m)) for _ in range(20)]
        cases.append((seed, labels))
    for seed, labels in cases:
        table = TriangularTable(EBasis(seed))
        oracle = EBasis(seed)
        for a in labels:
            assert table.p_row(a) == closure_row(oracle, a), (seed, a)


def test_p_row_cap():
    table = TriangularTable(EBasis(a11_seed(), expansion_cap=1))
    with pytest.raises(ExpansionError):
        table.p_row((-3, -3))


def test_p_row_grading_check():
    # A row label whose grading is not below the row's own label is an error.
    basis = EBasis(a11_seed())
    basis.grading = lambda a: 0
    with pytest.raises(ArithmeticError):
        TriangularTable(basis).p_row((-1, -1))


def test_support_sharper_order_affine(affine_table):
    # On this seed the supports shrink componentwise, not just in grading.
    for a1 in range(-3, 0):
        for a2 in range(-3, 1):
            a = (a1, a2)
            for key in affine_table.p_row(a):
                assert max(-key[0], 0) < max(-a[0], 0)
                assert max(-key[1], 0) < max(-a[1], 0)


def test_cluster_monomials(affine_table):
    # A label with no negative exchange entry gives the plain cluster monomial.
    for a in [(2, 1), (0, 0)]:
        assert affine_table.element(a) == affine_table.basis.form.monomial(a)
    ptable = TriangularTable(EBasis(principal_seed(((0, -1), (1, 0)), (1, 1))))
    a = (0, 0, -2, 3)  # frozen-only label
    assert ptable.element(a) == ptable.basis.form.monomial(a)


def test_phi_rank2_formula():
    assert phi_rank2_principal((-1, 0, 0, 0), 1, 2) == (-1, -2, 0, 0)
    for a in itertools.product(range(0, 3), range(-2, 3), [0], [0]):
        assert phi_rank2_principal(a, 2, 2) == (a[0], -a[1], a[2], a[3])
    with pytest.raises(ValueError):
        phi_rank2_principal((0, 0, 0, 0), 0, 1)


def test_phi_rank2_matches_empirical():
    for b, c in [(1, 1), (2, 1), (2, 2)]:
        mut = MutatedBasis(EBasis(principal_seed(((0, -b), (c, 0)), (c, b))))
        for a1, a2 in itertools.product(range(-2, 3), repeat=2):
            a = (a1, a2, 0, 0)
            assert mut.unit_label(a) == phi_rank2_principal(a, b, c)


def test_compare_bases_generators():
    basis = EBasis(principal_seed(((0, -1), (2, 0)), (2, 1)))
    m = basis.seed.m
    units = []
    for i in range(m):
        e = tuple(1 if j == i else 0 for j in range(m))
        units.append(e)
        units.append(tuple(-x for x in e))
    rep = compare_bases(basis, units)
    assert rep.ok, rep.summary()
    # Generator label correspondences.
    mut = MutatedBasis(basis)
    n = basis.seed.n
    e = lambda i: tuple(1 if j == i else 0 for j in range(m))
    neg = lambda t: tuple(-x for x in t)
    assert mut.unit_label(e(n - 1)) == neg(e(n - 1))
    assert mut.unit_label(neg(e(n - 1))) == e(n - 1)
    for i in range(n, m):
        assert mut.unit_label(e(i)) == e(i)
        assert mut.unit_label(neg(e(i))) == neg(e(i))
    for k in range(n - 1):
        assert mut.unit_label(e(k)) == e(k)


def test_compare_bases_window():
    basis = EBasis(principal_seed(((0, -1), (1, 0)), (1, 1)))
    labels = [
        (a1, a2, 0, 0) for a1, a2 in itertools.product(range(-1, 2), repeat=2)
    ]
    rep = compare_bases(basis, labels)
    assert rep.ok, rep.summary()


def test_compare_bases_fails_on_a_wrong_mutated_row(monkeypatch):
    # Every row of the mutated table gets coefficient v at its own label, so
    # each realized element is v E'(a) + ... and the unit labels, read in the
    # original table, stay right: only the comparison can fail, at each label.
    basis = EBasis(rank2_principal_seed(3, 2))
    p_row = TriangularTable.p_row

    def wrong_row(self, a):
        row = p_row(self, a)
        return row if self.basis is basis else {**row, tuple(a): v(1)}

    monkeypatch.setattr(TriangularTable, "p_row", wrong_row)
    labels = [(a1, a2, 0, 0) for a1, a2 in itertools.product(range(-1, 2), repeat=2)]
    rep = compare_bases(basis, labels)
    assert not rep.ok and rep.checks == len(labels)
    assert rep.failures == [
        f"a={a}: mutated element differs from original at {phi_rank2_principal(a, 3, 2)}"
        for a in labels
    ]


def test_triangular_properties_random_seeds():
    rng = random.Random(13)
    for _ in range(4):
        basis = EBasis(random_principal_seed(rng, rng.choice([2, 3])))
        table = TriangularTable(basis)
        for _ in range(10):
            a = tuple(rng.randint(-2, 2) for _ in range(basis.seed.m))
            assert table.verify(a).ok


def test_row_cache(tmp_path):
    seed = a11_seed()
    basis = EBasis(seed)
    h = seed_hash(seed)
    cache = RowCache(str(tmp_path), h)
    table = TriangularTable(basis, cache=cache)
    row = table.p_row((-2, -2))
    # Second table re-reads from disk.
    cache2 = RowCache(str(tmp_path), h)
    table2 = TriangularTable(EBasis(seed), cache=cache2)
    assert cache2.load((-3, -3)) is None and cache2.hits == 0
    assert table2.p_row((-2, -2)) == row
    assert cache2.hits == 1  # the row was read from disk, not recomputed
    # A different seed hash invalidates silently.
    cache3 = RowCache(str(tmp_path), "0" * 16)
    assert cache3.load((-2, -2)) is None
    # A stored line holds the label key and the row only.
    lines = [line for line in (tmp_path / f"{h}.json").read_text().split("\n") if line]
    assert [line.split("\t")[0] for line in lines] == ["-2,-2"]
    assert [set(json.loads(line.split("\t")[1])) for line in lines] == [{"p"}]


def test_row_cache_reads_element_payload(tmp_path):
    # A record that also holds the element under "C" still loads.
    seed = a11_seed()
    h = seed_hash(seed)
    table = TriangularTable(EBasis(seed))
    rec = {
        "p": [{"a": [1, 1], "coeff": "-v^4"}],
        "C": table.element((-1, -1)).to_records(),
    }
    (tmp_path / f"{h}.json").write_text(f"\n-1,-1\t{json.dumps(rec)}\n")
    cache = RowCache(str(tmp_path), h)
    assert cache.load((-1, -1)) == table.p_row((-1, -1))
    assert cache.hits == 1


# Corrupt row files: each reads as a miss, and the row is recomputed.
CORRUPT_FILES = {
    "list": lambda h: [],
    "rows-list": lambda h: {"seed_hash": h, "rows": []},
    "bad-key": lambda h: {"seed_hash": h, "rows": {"x,y": {"p": []}}},
}


@pytest.mark.parametrize("name", sorted(CORRUPT_FILES))
def test_row_cache_corrupt_file_is_a_miss(tmp_path, name):
    seed = a11_seed()
    h = seed_hash(seed)
    (tmp_path / f"{h}.json").write_text(json.dumps(CORRUPT_FILES[name](h)))
    cache = RowCache(str(tmp_path), h)
    assert cache.load((-2, -2)) is None and cache.hits == 0
    row = TriangularTable(EBasis(seed), cache=cache).p_row((-2, -2))
    assert row == TriangularTable(EBasis(seed)).p_row((-2, -2))
    # The rewritten file is well formed and serves the row.
    again = RowCache(str(tmp_path), h)
    assert again.load((-2, -2)) == row and again.hits == 1


@pytest.mark.parametrize(
    "rec",
    [
        None,
        [],
        {"p": 5},
        {"p": [{"a": [1, 1]}]},
        {"p": [{"coeff": "-v^4"}]},
        {"p": [{"a": [1], "coeff": "-v^4"}]},
        {"p": [{"a": ["x", 1], "coeff": "-v^4"}]},
        {"p": [{"a": [1, 1], "coeff": "-v^x"}]},
        {"p": [{"a": [1, 1], "coeff": 4}]},
        {"p": [7]},
        {"p": [{"a": [float("inf"), 1], "coeff": "-v^4"}]},
        # Labels are JSON integers, not numbers that truncate or convert to one.
        {"p": [{"a": [1.0, 1], "coeff": "-v^4"}]},
        {"p": [{"a": [1.5, 1], "coeff": "-v^4"}]},
        {"p": [{"a": [True, 1], "coeff": "-v^4"}]},
        {"p": [{"a": ["1", 1], "coeff": "-v^4"}]},
    ],
)
def test_row_cache_malformed_record_is_a_miss(tmp_path, rec):
    seed = a11_seed()
    h = seed_hash(seed)
    good = {"p": [{"a": [1, 1], "coeff": "-v^4"}]}
    (tmp_path / f"{h}.json").write_text(
        f"\n-1,-1\t{json.dumps(rec)}\n\n-1,0\t{json.dumps(good)}\n"
    )
    cache = RowCache(str(tmp_path), h)
    assert cache.load((-1, -1)) is None and cache.hits == 0
    # A second load reads the malformed record again: still a miss.
    assert cache.load((-1, -1)) is None and cache.hits == 0
    # The other record of the file still loads.
    assert cache.load((-1, 0)) == {(1, 1): -v(4)} and cache.hits == 1


def _store_disjoint_labels(directory, h, first, barrier):
    cache = RowCache(directory, h)
    cache.load((first, 0))  # both writers read the log before either stores
    barrier.wait(timeout=60)
    for i in range(first, first + 40):
        cache.store((i, 0), {(1, 1): v(i + 1)})


def test_row_cache_concurrent_writers_keep_every_row(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    h = "a" * 16
    writers = [
        ctx.Process(target=_store_disjoint_labels, args=(str(tmp_path), h, first, barrier))
        for first in (0, 40)
    ]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
    assert [w.exitcode for w in writers] == [0, 0]
    cache = RowCache(str(tmp_path), h)
    kept = [i for i in range(80) if cache.load((i, 0)) == {(1, 1): v(i + 1)}]
    assert len(kept) == 80 and cache.hits == 80


def test_row_cache_later_row_wins(tmp_path):
    cache = RowCache(str(tmp_path), "a" * 16)
    cache.store((-1, -1), {(1, 1): v(2)})
    cache.store((-1, -1), {(1, 1): -v(4)})
    assert cache.load((-1, -1)) == {(1, 1): -v(4)}
    assert RowCache(str(tmp_path), "a" * 16).load((-1, -1)) == {(1, 1): -v(4)}


def test_row_cache_load_sees_later_appends(tmp_path):
    reader = RowCache(str(tmp_path), "a" * 16)
    RowCache(str(tmp_path), "a" * 16).store((-1, -1), {(1, 1): -v(4)})
    assert reader.load((-1, -1)) == {(1, 1): -v(4)}
    # A row another writer appends after the first load is seen by the next.
    RowCache(str(tmp_path), "a" * 16).store((-2, -2), {(0, 0): v(1)})
    assert reader.load((-2, -2)) == {(0, 0): v(1)} and reader.hits == 2


def test_row_cache_store_is_one_write_per_row(tmp_path, monkeypatch):
    writes = []
    real_write = os.write

    def spy(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", spy)
    cache = RowCache(str(tmp_path), "a" * 16)
    rows = {(-1, -1): {(1, 1): -v(4)}, (-2, -2): {(0, 0): v(1), (2, 2): v(3)}, (1, 1): {}}
    for a, row in rows.items():
        cache.store(a, row)
    monkeypatch.undo()
    assert [w.split(b"\t")[0] for w in writes] == [b"\n-1,-1", b"\n-2,-2", b"\n1,1"]
    assert all(w.endswith(b"\n") and w.count(b"\n") == 2 for w in writes)
    assert b"".join(writes) == (tmp_path / f"{'a' * 16}.json").read_bytes()
    fresh = RowCache(str(tmp_path), "a" * 16)
    assert {a: fresh.load(a) for a in rows} == rows


def test_row_cache_torn_line(tmp_path):
    seed = a11_seed()
    h = seed_hash(seed)
    table = TriangularTable(EBasis(seed))
    old, new = {(1, 1): v(2)}, table.p_row((-1, -1))
    path = tmp_path / f"{h}.json"
    cache = RowCache(str(tmp_path), h)
    cache.store((-1, -1), old)
    cache.store((-2, -2), table.p_row((-2, -2)))
    cache.store((-1, -1), new)
    # Cut the newest line of (-1,-1) mid-record: the older line serves it.
    path.write_bytes(path.read_bytes()[:-8])
    cache = RowCache(str(tmp_path), h)
    assert cache.load((-1, -1)) == old
    assert cache.load((-2, -2)) == table.p_row((-2, -2))
    # Cut the only line of (-3,-3): it misses and is recomputed and appended,
    # and the torn line swallows neither the new record nor the others.
    cache.store((-3, -3), table.p_row((-3, -3)))
    path.write_bytes(path.read_bytes()[:-8])
    cache = RowCache(str(tmp_path), h)
    assert cache.load((-3, -3)) is None and cache.hits == 0
    row = TriangularTable(EBasis(seed), cache=cache).p_row((-3, -3))
    assert row == table.p_row((-3, -3))
    again = RowCache(str(tmp_path), h)
    assert again.load((-3, -3)) == row
    assert again.load((-2, -2)) == table.p_row((-2, -2))
    assert again.load((-1, -1)) == old and again.hits == 3
