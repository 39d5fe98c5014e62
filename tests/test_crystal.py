"""Crystal monomials, straightening identities, and embedding suites."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qca import crystal
from qca.crystal import Rank2Crystal, rank2_principal_seed
from qca.ebasis import EBasis
from qca.kronecker import a11_seed
from qca.laurent import LaurentPoly
from qca.lusztig import phi_rank2_principal
from qca.seed import QuantumSeed, double_seed, mutate, principal_seed, validate
from qca.verify import (
    _embedding_bases,
    _label_maps,
    check_bullet_embedding,
    check_exchange_relations,
    check_principal_identities,
    check_qbinomial_products,
    principal_product_identities,
    random_principal_seed,
)
from qca.torus import basis_vector, vec_neg, vec_restrict

v = LaurentPoly.v_power


@pytest.fixture(scope="module")
def cr11():
    return Rank2Crystal(1, 1)


def test_index_set(cr11):
    assert cr11.in_index_set((0, -3, 0, 1, 2, 0, 1))
    assert not cr11.in_index_set((0, 0, -1, 0, 0, 0, 0))
    assert cr11.in_interior((0, 0, 1, 0, 0, 1, 0))
    assert not cr11.in_interior((0, 0, 1, 0, 1, 0, 1))


def test_monomial_simple_cases(cr11):
    assert cr11.monomial((0, 0, 0, 0, 0, 0, 0)) == cr11.form.one()
    assert cr11.normalization_exponent((0, 0, 0, 0, 0, 0, 0)) == 0
    # Unmixed indices recover standard elements exactly.
    for a in [(1, 1, 0, 0), (-1, 2, 1, 0), (2, -2, 0, 1), (-2, -1, 0, 0)]:
        mm = cr11.label_to_index(a, primed=False)
        assert cr11.monomial(mm) == cr11.basis.element(a)
        mmp = cr11.label_to_index(a, primed=True)
        assert cr11.monomial(mmp) == cr11.mutated.element(a)


def uncached_chain(cr, mm):
    """``v^nu X^(0,0,m3,m4) X1p^m1p X^(0,m2,0,0) X^(m1,0,0,0) X2p^m2p X1pp^m1pp``,
    multiplied left to right from scratch, powers included, with ``nu`` from
    the closed form."""
    m3, m4, m1p, m2, m1, m2p, m1pp = mm
    out = cr.form.monomial((0, 0, m3, m4), v(cr.nu_explicit(mm)))
    for factor in (
        cr.basis.exchange_power(0, 1) ** m1p,
        cr.form.monomial((0, m2, 0, 0)),
        cr.form.monomial((m1, 0, 0, 0)),
        cr.basis.exchange_power(1, 1) ** m2p,
        cr.mutated.exchange_power(0, 1) ** m1pp,
    ):
        out = out * factor
    return out


# (b, c) -> (frozen, m2, other): frozen entries in -frozen..frozen, m2 in
# 0..m2 and the other four entries in 0..other.
CHAIN_WINDOWS = {
    (1, 1): (2, 2, 2),
    (2, 1): (2, 2, 2),
    (1, 2): (2, 2, 2),
    (2, 2): (2, 2, 2),
    (3, 2): (2, 2, 2),
    (1, 4): (1, 4, 1),
}


@pytest.mark.parametrize("b,c", list(CHAIN_WINDOWS))
def test_monomial_matches_uncached_chain(b, c):
    cr = Rank2Crystal(b, c)
    frozen, m2, other = CHAIN_WINDOWS[b, c]
    # Reverse order: every index reached by the m2 shift or the frozen
    # translation is asked for before its core.
    span, rest = range(-frozen, frozen + 1), range(other + 1)
    indices = list(itertools.product(span, span, rest, range(m2 + 1), rest, rest, rest))
    for mm in reversed(indices):
        assert cr.monomial(mm) == uncached_chain(cr, mm), mm


@pytest.mark.parametrize("b,c", list(CHAIN_WINDOWS))
def test_raw_monomial_builds_only_cores(monkeypatch, b, c):
    # The raw ordered product is built only at core indices.
    cr = Rank2Crystal(b, c)
    built = []
    ordered_product = Rank2Crystal._ordered_product

    def spy(self, core, nu):
        built.append(core)
        return ordered_product(self, core, nu)

    monkeypatch.setattr(Rank2Crystal, "_ordered_product", spy)
    frozen, m2, other = CHAIN_WINDOWS[b, c]
    span, rest = range(-frozen, frozen + 1), range(other + 1)
    for mm in itertools.product(span, span, rest, range(m2 + 1), rest, rest, rest):
        if mm[:2] != (0, 0) or mm[3]:
            cr.monomial(mm)
    assert built and all(core[:2] == (0, 0) and core[3] == 0 for core in built)


def test_rank2_principal_seed_rejects_nonpositive_parameters():
    with pytest.raises(ValueError, match="^parameters must be positive integers$"):
        rank2_principal_seed(0, 1)


def test_monomial_rejects_index_outside_set():
    cr = Rank2Crystal(1, 1)
    with pytest.raises(ValueError):
        cr.monomial((1, 0, 0, 0, -1, 0, 0))
    with pytest.raises(ValueError):
        cr.monomial((0, 0, 0, 0, -1, 0, 0))
    # The core (0, 0, 0, 0, 0, 0, 0) of a negative m2 is a valid index.
    for mm in [(0, 0, 0, -1, 0, 0, 0), (1, 0, 0, -1, 0, 0, 0), (0, 0, 0, 0, 0, -1, 0)]:
        with pytest.raises(ValueError):
            cr.monomial(mm)
    assert cr._monomials == {}


def test_one_ordered_product_per_core(monkeypatch):
    cr = Rank2Crystal(2, 1)
    built = []
    ordered_product = Rank2Crystal._ordered_product

    def spy(self, mm, nu):
        built.append(mm)
        return ordered_product(self, mm, nu)

    monkeypatch.setattr(Rank2Crystal, "_ordered_product", spy)
    rep = cr.verify_identities(bound=2, frozen_range=(0, 1))
    # The identity_suite digest pins this check count.
    assert rep.ok and rep.checks == 1515, rep.summary()
    # Only cores (0, 0, m'1, 0, m1, m'2, m''1) are built; the other indices
    # are m2 shifts and frozen translations of them.
    assert len(built) == len(set(built)) == 135
    assert all(mm[:2] == (0, 0) and mm[3] == 0 for mm in built)
    assert {(0, 0, mm[2], 0, *mm[4:]) for mm in cr._monomials} == set(built)
    assert len(cr._heads) == 16


def test_identity_failures_name_the_identity(monkeypatch):
    # Dropping the last right-hand term breaks every applicable identity.
    identity_terms = Rank2Crystal._identity_terms

    def truncated(self, mm):
        return [(name, terms[:-1]) for name, terms in identity_terms(self, mm)]

    monkeypatch.setattr(Rank2Crystal, "_identity_terms", truncated)
    rep = Rank2Crystal(1, 1).verify_identities(bound=1, frozen_range=(0, 0))
    assert rep.checks == 3 + len(rep.failures)
    assert rep.failures[0] == "fourth identity fails at (0, 0, 0, 0, 0, 0, 1)"
    assert "first identity fails at (0, 0, 1, 0, 1, 0, 0)" in rep.failures
    names = {f.split(" identity fails at ")[0] for f in rep.failures}
    assert names == {"first", "second", "third", "fourth"}


@pytest.mark.parametrize(
    "name,mm",
    [
        ("first", (0, 0, 1, 1, 1, 1, 1)),
        ("third", (1, 0, 1, 1, 1, 1, 1)),
        ("fourth", (0, 1, 1, 1, 0, 1, 1)),
    ],
)
def test_identity_fails_on_a_unit_shifted_coefficient(monkeypatch, name, mm):
    # Multiplying one coefficient by v keeps the identity true at v = 1, so
    # only an exact check can see it; the other rows at mm still apply.
    window = dict(bound=1, frozen_range=(0, 1))
    honest = Rank2Crystal(2, 1).verify_identities(**window)
    identity_terms = Rank2Crystal._identity_terms

    def shifted(self, index):
        rows = identity_terms(self, index)
        if index != mm:
            return rows
        names = [row for row, _ in rows]
        assert name in names and len(names) > 1
        return [
            (row, [*terms[:-1], (terms[-1][0], v(1) * terms[-1][1])] if row == name else terms)
            for row, terms in rows
        ]

    monkeypatch.setattr(Rank2Crystal, "_identity_terms", shifted)
    rep = Rank2Crystal(2, 1).verify_identities(**window)
    assert honest.ok and rep.checks == honest.checks
    assert rep.failures == [f"{name} identity fails at {mm}"]


@pytest.mark.parametrize("b,c", [(1, 1), (2, 1), (2, 2), (1, 3)])
def test_frozen_shift_shares_coefficients(b, c):
    cr = Rank2Crystal(b, c)
    for mm in cr._window(2, (-1, 1)):
        base = cr.monomial((0, 0, *mm[2:])).terms
        shifted = cr.monomial(mm).terms
        assert len(shifted) == len(base), mm
        assert all(x is y for x, y in zip(shifted.values(), base.values())), mm


def test_block_relations_all_pairs(monkeypatch):
    for b, c in [(1, 1), (2, 1), (2, 2), (1, 3)]:
        cr = Rank2Crystal(b, c)
        rep = cr.verify_block_relations()
        assert rep.ok and rep.checks == 3, rep.summary()
        # The same three, plus the Gaussian expansion at 0.
        rep = check_principal_identities(cr.seed)
        assert rep.ok and rep.checks == 4, rep.summary()
    # The block relations are the principal product identities, read from
    # the crystal's own bases: building another basis would raise.
    monkeypatch.setattr(crystal, "vanishes", lambda terms: False)
    monkeypatch.setattr(EBasis, "__init__", None)
    rep = cr.verify_block_relations()
    assert rep.failures == [
        "left product identity at 0",
        "mutated product identity at 0",
        "right product identity at 1",
    ]


@pytest.mark.parametrize("b,c", [(1, 1), (2, 1), (2, 2), (3, 2), (1, 4)])
def test_block_relations_are_the_rank2_exchange_products(b, c):
    # The three rank-2 exchange products written out by hand; each generated
    # identity has these terms, term for term, as torus elements.
    cr = Rank2Crystal(b, c)
    mono = cr.form.monomial
    x1, x2 = mono((1, 0, 0, 0)), mono((0, 1, 0, 0))
    x1p, x2p = cr.basis.exchange_power(0, 1), cr.basis.exchange_power(1, 1)
    x1pp = cr.mutated.exchange_power(0, 1)
    want = {
        "left product identity at 0": [
            (x1p * x1, 1), (cr.form.one(), -1), (mono((0, 0, 1, 0)) * x2**c, v(c, -1)),
        ],
        "right product identity at 1": [
            (x2 * x2p, 1), (mono((0, 0, 0, 1)), v(-b, -1)), (x1**b, -1),
        ],
        "mutated product identity at 0": [
            (x1 * x1pp, 1), (mono((0, 0, 1, c)), v(-c, -1)), (x2p**c, -1),
        ],
    }
    got = dict(principal_product_identities(cr.basis, cr.mutated))
    assert got.keys() == want.keys()
    for name, terms in got.items():
        assert [x * k for x, k in terms] == [x * k for x, k in want[name]], name


def test_identity_example(cr11):
    rep = cr11.verify_identities(bound=1, frozen_range=(0, 0))
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("b,c", [(1, 1), (2, 1)])
def test_identities_window(b, c):
    rep = Rank2Crystal(b, c).verify_identities(bound=2, frozen_range=(-1, 1))
    assert rep.ok and rep.checks == 3405, rep.summary()


def test_nu_explicit_agreement():
    rng = random.Random(14)
    for b, c in [(1, 1), (2, 1), (2, 2)]:
        rep = Rank2Crystal(b, c).verify_nu_agreement(80, rng)
        assert rep.ok, rep.summary()


def test_pi_terminal_cases(cr11):
    # On unmixed indices the reduction label matches the direct reading.
    for a in [(2, 1, 0, 0), (-1, -2, 1, 1), (0, 3, -1, 0)]:
        mm = cr11.label_to_index(a, primed=False)
        assert cr11.pi(mm) == a
    # On once-mutated indices it reproduces the closed correspondence.
    for a1, a2 in itertools.product(range(-2, 3), repeat=2):
        a = (a1, a2, 0, 0)
        mm = cr11.label_to_index(a, primed=True)
        assert cr11.pi(mm) == phi_rank2_principal(a, 1, 1)


@pytest.mark.parametrize("b,c", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
def test_pi_primed_matches_closed_label_map(b, c):
    # The rank-2 label map under one mutation, stated in two modules.
    cr = Rank2Crystal(b, c)
    ex, fr = range(-4, 5), range(-2, 3)
    for a in itertools.product(ex, ex, fr, fr):
        assert cr.pi(cr.label_to_index(a, primed=True)) == phi_rank2_principal(a, b, c), a


def test_reduction_targets_window(cr11):
    rep = cr11.verify_reduction_targets(bound=1)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("b,c", [(1, 1), (2, 2)])
def test_reduction_chain_preserves_pi(b, c):
    cr = Rank2Crystal(b, c)
    rng = random.Random(19)
    for _ in range(60):
        mm = (
            rng.randint(-1, 1),
            rng.randint(-1, 1),
            rng.randint(0, 2),
            rng.randint(0, 2),
            rng.randint(0, 2),
            rng.randint(0, 2),
            rng.randint(0, 2),
        )
        if not cr.in_interior(mm):
            continue
        target = cr.pi(mm)
        steps = 0
        cur = mm
        while True:
            nxt = reduction_step_oracle(cr, cur)
            if nxt is None:
                break
            assert cr.in_interior(nxt), (mm, cur, nxt)
            assert cr.pi(nxt) == target, (mm, cur, nxt)
            cur = nxt
            steps += 1
            assert steps < 200
        # Terminal index names a standard element directly.
        m3, m4, m1p, m2, m1, m2p, m1pp = cur
        assert m1p * m1 == 0 and m2 * m2p == 0 and m1pp == 0
        assert cr.monomial(cur) == cr.basis.element(target)


def reduction_step_oracle(cr, mm):
    """First term of the first applicable identity, written out by hand in
    the priority third, fourth, second, first."""
    c = cr.c
    m3, m4, m1p, m2, m1, m2p, m1pp = mm
    if m1 * m1pp > 0:
        return (m3 + 1, m4 + c, m1p, m2, m1 - 1, m2p, m1pp - 1)
    if m1 == 0 and m1pp > 0:
        return (m3, m4, m1p + 1, m2, 0, m2p + c, m1pp - 1)
    if m2 * m2p > 0:
        return (m3, m4 + 1, m1p, m2 - 1, m1, m2p - 1, m1pp)
    if m1p * m1 > 0:
        return (m3, m4, m1p - 1, m2, m1 - 1, m2p, m1pp)
    return None


@pytest.mark.parametrize("b,c", [(1, 1), (2, 1), (1, 2)])
def test_reduction_step_matches_oracle(b, c):
    # The oracle against the identity table: the first term of the first
    # applicable row, in the priority third, fourth, second, first.
    cr = Rank2Crystal(b, c)

    def first_term(mm):
        rows = dict(cr._identity_terms(mm))
        for name in ("third", "fourth", "second", "first"):
            if name in rows:
                return rows[name][0][0]
        return None

    steps = [
        (first_term(mm), reduction_step_oracle(cr, mm))
        for mm in itertools.product(range(-1, 2), range(-1, 2), *[range(3)] * 5)
    ]
    assert all(got == want for got, want in steps)
    assert any(got is None for got, _ in steps)


def test_standard_correspondence_suite(cr11):
    rep = cr11.verify_standard_correspondence(2)
    assert rep.ok, rep.summary()


# -- general-rank identity suites ------------------------------------------------


def test_qbinomial_identity():
    rep = check_qbinomial_products(6)
    assert rep.ok, rep.summary()


def test_exchange_relations_on_random_seeds():
    rng = random.Random(15)
    for _ in range(20):
        s = random_principal_seed(rng, rng.choice([1, 2, 3]))
        rep = check_exchange_relations(EBasis(s))
        assert rep.ok, rep.summary()


def test_principal_identities_random_and_degenerate():
    rng = random.Random(16)
    for _ in range(10):
        s = random_principal_seed(rng, rng.choice([2, 3]))
        rep = check_principal_identities(s)
        assert rep.ok, rep.summary()
    # Fully decoupled matrix degenerates consistently.
    rep = check_principal_identities(principal_seed(((0, 0), (0, 0)), (2, 3)))
    assert rep.ok, rep.summary()
    # Unit symmetrizers at rank 3.
    rep = check_principal_identities(
        principal_seed(((0, -1, -1), (1, 0, -1), (1, 1, 0)), (1, 1, 1))
    )
    assert rep.ok, rep.summary()


def test_principal_identities_reject_other_orders():
    # In the order (2, 1) the identities as stated fail 3 of their 4 checks.
    s = principal_seed(((0, 1), (-1, 0)), (1, 1)).replace(order=(1, 0))
    with pytest.raises(ValueError, match="natural order"):
        check_principal_identities(s)


def test_psi_generator_images():
    s = a11_seed()
    n, m = s.n, s.m
    psi, psi_prime = _label_maps(*_embedding_bases(s))
    for k in range(n):
        bk = s.column(k)
        ek = basis_vector(m, k)
        frozen = vec_restrict(bk, lambda i: i >= n)
        cluster = vec_restrict(bk, lambda i: i < n)
        e_frozen = tuple(1 if j == n + k else 0 for j in range(2 * n))
        assert psi(e_frozen) == frozen + vec_neg(cluster)
        assert psi_prime(e_frozen) == frozen + vec_neg(cluster)
        e_k = tuple(1 if j == k else 0 for j in range(2 * n))
        assert psi(e_k) == ek + ek
    # Truncation property on random labels.
    rng = random.Random(17)
    for _ in range(30):
        a = tuple(rng.randint(-2, 2) for _ in range(2 * n))
        assert psi(a)[:n] == a[:n]
        assert psi_prime(a)[:n] == a[:n]


def test_bullet_embedding_affine_window():
    s = a11_seed()
    samples = list(itertools.product((-1, 0, 1), repeat=4))
    rep = check_bullet_embedding(s, samples)
    assert rep.ok, rep.summary()


def test_bullet_embedding_principal_seed():
    rng = random.Random(18)
    s = rank2_principal_seed(1, 2)
    assert validate(s).valid
    samples = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(25)]
    rep = check_bullet_embedding(s, samples)
    assert rep.ok, rep.summary()


# Rank-2 seeds (3, 2) whose frozen coordinates were changed by a unimodular U
# (B' = P B, L' = P^-T L P^-1, P = diag(I, U)), so that one frozen entry is
# negative: in the first exchange column for U = ((1, 0), (-1, 1)), in the last
# for U = ((1, -1), (0, 1)).  Next to them, a doubled seed.
EMBEDDING_SEEDS = {
    "frozen-twisted-first": QuantumSeed(
        m=4,
        n=2,
        btilde=((0, -3), (2, 0), (1, 0), (-1, 1)),
        lam=((0, 0, -2, 0), (0, 0, -3, -3), (2, 3, 0, 6), (0, 3, -6, 0)),
        d=(2, 3),
        order=(0, 1),
    ),
    "frozen-twisted-last": QuantumSeed(
        m=4,
        n=2,
        btilde=((0, -3), (2, 0), (1, -1), (0, 1)),
        lam=((0, 0, -2, -2), (0, 0, 0, -3), (2, 0, 0, 6), (2, 3, -6, 0)),
        d=(2, 3),
        order=(0, 1),
    ),
    "double-principal-3-2": double_seed(rank2_principal_seed(3, 2)),
}

# (a, psi(a), psi'(a)) as the piecewise-linear tables of the maps gave them.
PSI_VALUES = {
    "frozen-twisted-first": [
        ((1, -1, 2, 0), (1, -1, 2, -2, 4, -5, 0, 0), (1, -1, 2, -2, 1, -3, 0, 0)),
        ((-1, 1, 0, 2), (-1, 1, 0, 1, 5, 1, 0, 0), (-1, 1, 0, 2, 14, -3, 0, 0)),
        ((-1, 1, 0, 1), (-1, 1, 0, 0, 2, 1, 0, 0), (-1, 1, 0, 1, 11, -3, 0, 0)),
        ((-1, 1, -1, 2), (-1, 1, -1, 2, 5, 3, 0, 0), (-1, 1, -1, 3, 14, -1, 0, 0)),
        ((-1, 1, -2, 0), (-1, 1, -2, 1, -1, 5, 0, 0), (-1, 1, -2, 2, 8, 1, 0, 0)),
        ((-1, 0, 1, 1), (-1, 0, 1, -1, 2, -2, 0, 0), (-1, 0, 1, 0, 8, -4, 0, 0)),
        ((-1, -1, -2, -1), (-1, -1, -2, 0, -1, 3, 0, 0), (-1, -1, -2, 1, 2, 3, 0, 0)),
        ((-2, 0, 2, 0), (-2, 0, 2, -4, -2, -4, 0, 0), (-2, 0, 2, -2, 10, -8, 0, 0)),
        ((0, -1, 2, -2), (0, -1, 2, -4, -3, -5, 0, 0), (0, -1, 2, -4, -6, -3, 0, 0)),
        ((-2, -1, -2, -1), (-2, -1, -2, -1, -2, 3, 0, 0), (-2, -1, -2, 1, 7, 1, 0, 0)),
    ],
    "frozen-twisted-last": [
        ((1, -1, 0, -1), (1, -1, 0, -1, 1, -1, 0, 0), (1, -1, 1, -1, -2, 1, 0, 0)),
        ((-2, -1, 0, -1), (-2, -1, 0, -1, -2, -1, 0, 0), (-2, -1, -3, -1, 7, -3, 0, 0)),
        ((-2, 0, 0, 0), (-2, 0, 0, 0, -2, 0, 0, 0), (-2, 0, -4, 0, 10, -4, 0, 0)),
        ((-1, 2, 0, 2), (-1, 2, -2, 2, 5, 2, 0, 0), (-1, 2, -6, 2, 17, -4, 0, 0)),
        ((-2, 1, -1, -1), (-2, 1, 0, -1, -5, 3, 0, 0), (-2, 1, -5, -1, 10, -3, 0, 0)),
        ((1, -1, 2, -1), (1, -1, 2, -1, 1, -5, 0, 0), (1, -1, 3, -1, -2, -3, 0, 0)),
        ((-1, -2, 2, -1), (-1, -2, 1, -1, 2, -6, 0, 0), (-1, -2, 1, -1, 2, -4, 0, 0)),
        ((-1, 2, -2, 2), (-1, 2, -4, 2, 5, 6, 0, 0), (-1, 2, -8, 2, 17, 0, 0, 0)),
        ((-1, -1, 1, 2), (-1, -1, -2, 2, 8, -3, 0, 0), (-1, -1, -3, 2, 11, -3, 0, 0)),
        ((-1, -1, -2, -1), (-1, -1, -2, -1, -1, 3, 0, 0), (-1, -1, -3, -1, 2, 3, 0, 0)),
    ],
    "double-principal-3-2": [
        (
            (2, -2, 2, 2),
            (2, -2, 2, 2, 0, 0, 0, 0, 14, -6, 0, 0, 0, 0, 0, 0),
            (2, -2, 2, 2, 0, 0, 0, 0, 8, -2, 0, 0, 0, 0, 0, 0),
        ),
        (
            (2, -2, 2, -2),
            (2, -2, 2, -2, 0, 0, 0, 0, 2, -6, 0, 0, 0, 0, 0, 0),
            (2, -2, 2, -2, 0, 0, 0, 0, -4, -2, 0, 0, 0, 0, 0, 0),
        ),
        (
            (2, -1, 2, 0),
            (2, -1, 2, 0, 0, 0, 0, 0, 5, -5, 0, 0, 0, 0, 0, 0),
            (2, -1, 2, 0, 0, 0, 0, 0, 2, -3, 0, 0, 0, 0, 0, 0),
        ),
        (
            (-2, -2, 0, -2),
            (-2, -2, 0, -2, 0, 0, 0, 0, -2, -2, 0, 0, 0, 0, 0, 0),
            (-2, -2, 0, -2, 0, 0, 0, 0, 4, -2, 0, 0, 0, 0, 0, 0),
        ),
        (
            (-1, -2, -2, 2),
            (-1, -2, -2, 2, 0, 0, 0, 0, 11, 2, 0, 0, 0, 0, 0, 0),
            (-1, -2, -2, 2, 0, 0, 0, 0, 11, 4, 0, 0, 0, 0, 0, 0),
        ),
        (
            (2, -1, 2, -1),
            (2, -1, 2, -1, 0, 0, 0, 0, 2, -5, 0, 0, 0, 0, 0, 0),
            (2, -1, 2, -1, 0, 0, 0, 0, -1, -3, 0, 0, 0, 0, 0, 0),
        ),
        (
            (-1, 1, -1, 1),
            (-1, 1, -1, 1, 0, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0),
            (-1, 1, -1, 1, 0, 0, 0, 0, 11, -1, 0, 0, 0, 0, 0, 0),
        ),
        (
            (-1, 1, 2, 1),
            (-1, 1, 2, 1, 0, 0, 0, 0, 2, -3, 0, 0, 0, 0, 0, 0),
            (-1, 1, 2, 1, 0, 0, 0, 0, 11, -7, 0, 0, 0, 0, 0, 0),
        ),
        (
            (-1, 0, 1, -1),
            (-1, 0, 1, -1, 0, 0, 0, 0, -4, -2, 0, 0, 0, 0, 0, 0),
            (-1, 0, 1, -1, 0, 0, 0, 0, 2, -4, 0, 0, 0, 0, 0, 0),
        ),
        (
            (-1, 0, 1, -2),
            (-1, 0, 1, -2, 0, 0, 0, 0, -7, -2, 0, 0, 0, 0, 0, 0),
            (-1, 0, 1, -2, 0, 0, 0, 0, -1, -4, 0, 0, 0, 0, 0, 0),
        ),
    ],
}


@pytest.mark.parametrize("name", list(EMBEDDING_SEEDS))
def test_psi_pinned_values(name):
    psi, psi_prime = _label_maps(*_embedding_bases(EMBEDDING_SEEDS[name]))
    for a, lbl, lblp in PSI_VALUES[name]:
        assert psi(a) == lbl, a
        assert psi_prime(a) == lblp, a


@pytest.mark.parametrize("name", list(EMBEDDING_SEEDS))
def test_bullet_embedding_frozen_twisted_and_doubled(name):
    s = EMBEDDING_SEEDS[name]
    samples = [a for a, _, _ in PSI_VALUES[name]]
    samples += itertools.product((-1, 0, 1), repeat=4)
    rep = check_bullet_embedding(s, samples)
    assert rep.ok and rep.checks == 17 + 3 * len(samples), rep.summary()


# Seeds whose order is not the natural one: the A2 principal seed in the order
# (2, 1), the rank-3 principal seed with entries +-1 in its only compatible
# order (2, 1, 3), and a mutated seed as ``qca seed mutate`` writes it.
UNNATURAL_ORDER_SEEDS = {
    "a2-order-21": principal_seed(((0, 1), (-1, 0)), (1, 1)).replace(order=(1, 0)),
    "pm1-rank3-order-213": principal_seed(
        ((0, 1, -1), (-1, 0, -1), (1, 1, 0)), (1, 1, 1)
    ).replace(order=(1, 0, 2)),
    "mutated-principal-3-2": mutate(rank2_principal_seed(3, 2), 1),
}


@pytest.mark.parametrize("name", list(UNNATURAL_ORDER_SEEDS))
def test_bullet_embedding_in_an_unnatural_order(name):
    s = UNNATURAL_ORDER_SEEDS[name]
    assert s.order != tuple(range(s.n)) and validate(s).order_compatible
    samples = list(itertools.product((-1, 0, 1), repeat=2 * s.n))
    rep = check_bullet_embedding(s, samples)
    assert rep.ok and rep.checks == 1 + 4 * s.n * s.n + 3 * len(samples), rep.summary()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.lists(st.lists(st.integers(-2, 2), min_size=6, max_size=6), min_size=1, max_size=6),
)
def test_bullet_embedding_random_principal_seeds(rng_seed, n, labels):
    s = random_principal_seed(random.Random(rng_seed), n)
    rep = check_bullet_embedding(s, [a[: 2 * n] for a in labels])
    assert rep.ok, rep.summary()
