"""Standard monomials, normalization, expansion, and the mutated basis."""

import itertools
import random
import re
from heapq import heapify, heappop, heappush

import pytest

from qca import ebasis
from qca.ebasis import EBasis, ExpansionError, MutatedBasis
from qca.kronecker import KroneckerAlgebra, a11_seed
from qca.laurent import LaurentPoly, bar_rule, cancel_rule, gaussian_binomial
from qca.lusztig import TriangularTable, _expansion_at_leading_label, compare_bases
from qca.crystal import rank2_principal_seed
from qca.seed import (
    QuantumSeed,
    compatible_orders,
    double_seed,
    mutate,
    principal_seed,
    seed_weight_order,
)
from qca.torus import (
    ContextMismatch,
    SkewForm,
    TorusElement,
    basis_vector,
    plus_part,
    vec_add,
    vec_neg,
    vec_restrict,
    vec_scale,
    vec_sub,
)
from qca.verify import (
    check_bar_triangularity,
    check_exchange_relations,
    check_expand_roundtrip,
    check_frozen_shift,
    check_order_transposition,
    random_principal_seed,
)

v = LaurentPoly.v_power


def vec_dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


# A sink fed by two sources: compatible orders (1, 2, 3) and (2, 1, 3).
FORK = principal_seed(((0, 0, -1), (0, 0, -1), (1, 1, 0)), (1, 1, 1))


@pytest.fixture(scope="module")
def affine():
    return EBasis(a11_seed())


@pytest.fixture(scope="module")
def principal21():
    return EBasis(principal_seed(((0, -2), (1, 0)), (1, 2)))


def test_exchange_vectors(affine):
    assert affine.e_prime(0) == (-1, 2)
    assert affine.e_prime(1) == (0, -1)
    # Formula reading for a zero column (data-level, not a valid seed).
    raw = QuantumSeed(
        m=2, n=2, btilde=((0, 0), (0, 0)), lam=((0, 0), (0, 0)), d=(1, 1), order=(0, 1)
    )
    from qca.seed import exchange_vector

    assert exchange_vector(raw, 0) == (-1, 0)


def test_x_prime(affine):
    form = affine.form
    assert affine.exchange_power(1, 1) == form.monomial((0, -1)) + form.monomial((2, -1))
    for k in (0, 1):
        x = affine.exchange_power(k, 1)
        assert x.bar() == x


def test_x_prime_leading_term_is_exchange_vector():
    rng = random.Random(21)
    for _ in range(8):
        basis = EBasis(random_principal_seed(rng, rng.choice([2, 3])))
        for k in range(basis.seed.n):
            g, c = basis.exchange_power(k, 1).leading_term(basis.order)
            assert g == basis.e_prime(k)
            assert c == LaurentPoly.one()


def test_x_prime_rank2_principal():
    b, c = 3, 2
    basis = EBasis(principal_seed(((0, -b), (c, 0)), (c, b)))
    form = basis.form
    assert basis.exchange_power(0, 1) == form.monomial((-1, c, 1, 0)) + form.monomial(
        (-1, 0, 0, 0)
    )
    assert basis.exchange_power(1, 1) == form.monomial((0, -1, 0, 1)) + form.monomial(
        (b, -1, 0, 0)
    )


def test_order_incompatible_seed_rejected():
    s = a11_seed()
    with pytest.raises(ValueError):
        EBasis(s.replace(order=(1, 0)))


def test_label_of_wrong_length_is_a_value_error(affine):
    for lookup in (affine.element, MutatedBasis(affine).element, TriangularTable(affine).element):
        for a in ((-1,), (1, 0, 0)):
            message = f"label {a} has length {len(a)}, not m = 2"
            with pytest.raises(ValueError, match=re.escape(message)):
                lookup(a)


def test_standard_monomial_positive_labels(affine):
    for a in [(0, 0), (2, 1), (0, 3)]:
        assert affine.element(a) == affine.form.monomial(a)
    assert affine.normalization_exponent((2, 1)) == 0


def test_standard_monomial_affine_base_case(affine):
    form = affine.form
    assert affine.normalization_exponent((-1, -1)) == 1
    assert affine.element((-1, -1)) == form.element(
        {(1, 1): v(4), (-1, 1): 1, (1, -1): 1, (-1, -1): 1}
    )
    # The un-normalized product is X'_1 X'_2, in the seed order.
    x1p, x2p = affine.exchange_power(0, 1), affine.exchange_power(1, 1)
    assert affine.element((-1, -1)) == (x1p * x2p).scalar_mul(v(1))
    # At (1, 1) the normalized element is the single twisted monomial.
    x1, x2 = form.monomial((1, 0)), form.monomial((0, 1))
    assert affine.element((1, 1)) == (x1 * x2).scalar_mul(v(1))


def test_affine_closed_form(affine):
    # Closed form on a window: v^(a1 a2) X3^[-a1]+ X1^[a1]+ X2^[a2]+ X0^[-a2]+
    alg = KroneckerAlgebra()
    X0, X1, X2, X3 = alg.var(0), alg.var(1), alg.var(2), alg.var(3)
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            closed = (
                X3 ** max(-a1, 0)
                * X1 ** max(a1, 0)
                * X2 ** max(a2, 0)
                * X0 ** max(-a2, 0)
            ).scalar_mul(v(a1 * a2))
            assert affine.element((a1, a2)) == closed


def test_rank2_principal_closed_form():
    for b, c in [(1, 1), (2, 1), (2, 2)]:
        basis = EBasis(principal_seed(((0, -b), (c, 0)), (c, b)))
        form = basis.form
        X1 = form.monomial((1, 0, 0, 0))
        X2 = form.monomial((0, 1, 0, 0))
        X1p, X2p = basis.exchange_power(0, 1), basis.exchange_power(1, 1)
        for a1, a2 in itertools.product(range(-2, 3), repeat=2):
            for a3, a4 in [(0, 0), (1, -1), (-2, 2)]:
                a = (a1, a2, a3, a4)
                q1, p1 = max(-a1, 0), max(a1, 0)
                q2, p2 = max(-a2, 0), max(a2, 0)
                pref = -c * a1 * a3 - b * a2 * a4 - b * c * q2 * a3
                closed = (
                    form.monomial((0, 0, a3, a4))
                    * X1p**q1
                    * X2**p2
                    * X1**p1
                    * X2p**q2
                ).scalar_mul(v(pref))
                assert basis.element(a) == closed


def test_leading_exponent_inverse(affine):
    assert affine.leading_exponent_inverse((-1, 1)) == (-1, -1)
    # A negative entry whose column has no positive part subtracts nothing.
    assert affine.leading_exponent_inverse((0, -3)) == (0, -3)
    # For an isolated principal seed, nonnegative exchange rows are fixed.
    iso = EBasis(principal_seed(((0, 0), (0, 0)), (1, 1)))
    t = (2, 3, -1, 4)
    assert iso.leading_exponent_inverse(t) == t


def test_lead_roundtrip_property():
    rng = random.Random(7)
    for _ in range(8):
        basis = EBasis(random_principal_seed(rng, rng.choice([2, 3])))
        for _ in range(25):
            t = tuple(rng.randint(-4, 4) for _ in range(basis.seed.m))
            a = basis.leading_exponent_inverse(t)
            assert basis.leading_exponent(a) == t
            b = tuple(rng.randint(-4, 4) for _ in range(basis.seed.m))
            assert basis.leading_exponent_inverse(basis.leading_exponent(b)) == b


def test_lead_roundtrip_on_mutated_seeds():
    # The mutated seed of MutatedBasis sweeps in the rotated order
    # (n-1, 0, ..., n-2), so a sweep in index order would solve the wrong rows.
    rng = random.Random(11)
    seeds = [rank2_principal_seed(3, 2), X_DPRIME_SEEDS["wild-rank3"]]
    seeds += [random_principal_seed(rng, 3) for _ in range(5)]
    for seed in seeds:
        basis = MutatedBasis(EBasis(seed)).abstract
        n = basis.seed.n
        assert basis.seed.order == (n - 1, *range(n - 1))
        for _ in range(100):
            t = tuple(rng.randint(-4, 4) for _ in range(basis.seed.m))
            assert basis.leading_exponent(basis.leading_exponent_inverse(t)) == t
            b = tuple(rng.randint(-4, 4) for _ in range(basis.seed.m))
            assert basis.leading_exponent_inverse(basis.leading_exponent(b)) == b


@pytest.mark.parametrize("mutated", [False, True], ids=["seed", "mutated"])
@pytest.mark.parametrize("name", ["kronecker", "principal-3-2", "wild-rank3", "pm1-rank3"])
def test_a_label_has_a_negative_exchange_entry_exactly_when_its_lead_has(name, mutated):
    # The sweep reads a lead without one as its own label and inverts only the
    # others.  A lead with one can be its own label too: (0, -3) on kronecker.
    seed = PM1_RANK3 if name == "pm1-rank3" else X_DPRIME_SEEDS[name]
    basis = EBasis(seed)
    if mutated:
        basis = MutatedBasis(basis).abstract
    n, m = seed.n, seed.m
    ranges = [range(-3, 4)] * n + [range(-1, 2)] * (m - n)
    for g in itertools.product(*ranges):
        a = basis.leading_exponent_inverse(g)
        unit = min(g[:n]) >= 0
        assert (min(a[:n]) >= 0) == unit
        if unit:
            assert a == g


def test_expand_basis_element_is_delta(affine):
    rng = random.Random(8)
    for _ in range(50):
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert affine.expand(affine.element(a)) == {a: LaurentPoly.one()}


def test_expand_affine_examples(affine):
    coeffs = affine.expand(affine.element((-1, -1)).bar())
    assert coeffs == {(-1, -1): LaurentPoly.one(), (1, 1): v(-4) - v(4)}
    xd = KroneckerAlgebra().x_delta()
    assert affine.expand(xd) == {(-1, -1): LaurentPoly.one(), (1, 1): -v(4)}


def test_expand_cap():
    basis = EBasis(a11_seed(), expansion_cap=1)
    x = basis.element((-1, -1)).bar()
    with pytest.raises(ExpansionError):
        basis.expand(x)


def test_expansion_cap_nonnegative():
    with pytest.raises(ValueError):
        EBasis(a11_seed(), expansion_cap=-1)
    # A zero cap admits no multiple at all.
    basis = EBasis(a11_seed(), expansion_cap=0)
    with pytest.raises(ExpansionError):
        basis.expand(basis.element((1, 1)))


def test_r_rows(affine):
    assert affine.r_row((2, 3)) == {}
    assert affine.r_row((0, 0)) == {}
    assert affine.r_row((-1, -1)) == {(1, 1): v(-4) - v(4)}


def test_bar_triangularity_failure_is_reported(monkeypatch):
    # With every label at one grading, each nonzero row breaks triangularity:
    # r_row still returns it, and the check records a failure.
    basis = EBasis(a11_seed())
    monkeypatch.setattr(basis, "grading", lambda a: 0)
    assert basis.r_row((-1, -1)) == {(1, 1): v(-4) - v(4)}
    rep = check_bar_triangularity(basis, random.Random(1), 20)
    assert rep.checks == 20 and not rep.ok


def test_r_row_closure_identity(affine):
    # Involutivity forces r + bar(r) + bar(r) . r = 0 rowwise.
    for a in [(-1, -1), (-2, -1), (-2, -2), (-1, -3)]:
        row_a = affine.r_row(a)
        candidates = set(row_a)
        for mid in row_a:
            candidates.update(affine.r_row(mid))
        for target in candidates:
            total = row_a.get(target, LaurentPoly.zero())
            total = total + total.bar()
            for mid, r_mid in row_a.items():
                inner = affine.r_row(mid).get(target)
                if inner is not None:
                    total = total + r_mid.bar() * inner
            assert total == LaurentPoly.zero(), (a, target)


def test_grading_counts_negative_exchange_entries(affine):
    assert affine.grading((-1, 2)) == 1
    assert affine.grading((1, 1)) == 0
    assert affine.grading((-3, -3)) == 6
    # Frozen entries do not count, negative or not.
    assert EBasis(FORK).grading((-1, 2, -3, -5, 0, 1)) == 4


def test_filtration_of_products(affine):
    rng = random.Random(9)
    for _ in range(20):
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        prod = affine.element(a) * affine.element(b)
        bound = affine.grading(a) + affine.grading(b)
        assert all(affine.grading(k) <= bound for k in affine.expand(prod))


def random_labels(length, count):
    """The ``count`` labels of ``length`` entries that the property checks
    draw from ``random.Random(10)``."""
    rng = random.Random(10)
    return [tuple(rng.randint(-2, 2) for _ in range(length)) for _ in range(count)]


def test_order_transposition_invariance():
    # The fork's two compatible orders differ by swapping its two sources.
    rep = check_order_transposition(FORK, random.Random(10), 25)
    assert rep.ok and rep.checks == 25, rep.summary()
    # An edgeless exchange graph admits every order: 5 others per label.
    edgeless = principal_seed(((0, 0, 0), (0, 0, 0), (0, 0, 0)), (1, 2, 1))
    assert len(compatible_orders(edgeless)) == 6
    rep = check_order_transposition(edgeless, random.Random(10), 25)
    assert rep.ok and rep.checks == 5 * 25, rep.summary()


def test_order_transposition_failure_is_reported(monkeypatch):
    element = EBasis.element

    def perturbed(self, a):
        e = element(self, a)
        return e if self.seed.order == FORK.order else e.scalar_mul(v(1))

    monkeypatch.setattr(EBasis, "element", perturbed)
    rep = check_order_transposition(FORK, random.Random(10), 25)
    assert rep.checks == 25 and len(rep.failures) == 25 and not rep.ok
    assert rep.failures[0] == f"E{random_labels(FORK.m, 1)[0]} differs under order [2,1,3]"
    # A seed with one compatible order has nothing to compare: no checks, a failed report.
    rep = check_order_transposition(rank2_principal_seed(1, 1), random.Random(10), 25)
    assert rep.checks == 0 and not rep.ok


def test_expand_roundtrip_failure_is_reported(monkeypatch):
    monkeypatch.setattr(EBasis, "expand", lambda self, x: {})
    rep = check_expand_roundtrip(EBasis(a11_seed()), random.Random(10), 20)
    assert rep.checks == 20 and not rep.ok
    assert rep.failures == [f"roundtrip fails at {a}" for a in random_labels(2, 20)]


def test_frozen_shift_failure_is_reported(monkeypatch):
    # A fixed expansion at the zero label does not move with the label.
    seed = rank2_principal_seed(2, 1)
    monkeypatch.setattr(EBasis, "expand", lambda self, x: {(0,) * seed.m: LaurentPoly.one()})
    rep = check_frozen_shift(MutatedBasis(EBasis(seed)), random.Random(10), 20)
    # Each check draws its label, then the frozen part of its shift.
    draws = random_labels(seed.m + seed.m - seed.n, 20)
    shifted = [(d[: seed.m], (0,) * seed.n + d[seed.m :]) for d in draws]
    assert rep.checks == 20 and not rep.ok
    assert rep.failures == [f"shift fails at {a} + {s}" for a, s in shifted if any(s)]


# -- the mutated basis ---------------------------------------------------------


@pytest.fixture(scope="module")
def mutated21(principal21):
    return MutatedBasis(principal21)


def test_prime_monomial_cases(mutated21):
    basis = mutated21.base
    m = basis.seed.m
    # No power of the mutated generator: a plain monomial of the old torus.
    g = (2, 0, -1, 3)
    assert mutated21._front(g, 0) == basis.form.monomial(g)
    # Unit vector at the mutation index gives the exchange element itself.
    e_n = tuple(1 if i == basis.seed.n - 1 else 0 for i in range(m))
    assert mutated21._front(e_n, 0) == basis.exchange_power(basis.seed.n - 1, 1)
    with pytest.raises(ValueError):
        mutated21._front((0, -1, 0, 0), 0)


def test_prime_monomial_multiplicative(mutated21):
    rng = random.Random(11)
    lam2 = mutated21.abstract.seed.form()
    for _ in range(40):
        g = tuple(rng.randint(-2, 2) for _ in range(4))
        h = tuple(rng.randint(-2, 2) for _ in range(4))
        g = g[:1] + (abs(g[1]),) + g[2:]
        h = h[:1] + (abs(h[1]),) + h[2:]
        lhs = mutated21._front(g, 0) * mutated21._front(h, 0)
        rhs = mutated21._front(vec_add(g, h), 0).scalar_mul(
            v(lam2.skew(g, h))
        )
        assert lhs == rhs


def test_x_dprime_trivial_when_decoupled():
    # Exchange entry to the mutation index vanishes: nothing changes.
    basis = EBasis(principal_seed(((0, 0), (0, 0)), (1, 1)))
    mut = MutatedBasis(basis)
    assert mut.exchange_power(0, 1) == basis.exchange_power(0, 1)


def test_x_dprime_rank2_closed_form():
    for b, c in [(1, 1), (2, 1), (2, 2), (1, 3)]:
        basis = EBasis(principal_seed(((0, -b), (c, 0)), (c, b)))
        mut = MutatedBasis(basis)
        form = basis.form
        got = mut.exchange_power(0, 1)
        closed = basis.exchange_power(0, 1) * basis.exchange_power(1, 1) ** c
        for s in range(1, c + 1):
            coeff = gaussian_binomial(c, s).substitute_power(2 * b).shifted(b * s * s)
            closed = closed - form.monomial((b * s - 1, 0, 1, c - s)).scalar_mul(coeff)
        assert got == closed
        # Mutated two-term shape, realized through normalized monomials.
        e2 = mut.abstract.e_prime(0)
        two_term = mut._front(e2, 0) + mut._front(vec_sub(e2, mut.abstract.seed.column(0)), 0)
        assert got == two_term
        # Exchange product with the original generator.
        lhs = form.monomial((1, 0, 0, 0)) * got
        rhs = form.monomial((0, 0, 1, c)).scalar_mul(v(-c)) + basis.exchange_power(1, 1) ** c
        assert lhs == rhs


def test_mutated_elements_generator_cases(mutated21):
    basis = mutated21.base
    form = basis.form
    n = basis.seed.n
    e = lambda i: tuple(1 if j == i else 0 for j in range(basis.seed.m))
    assert mutated21.element(e(n - 1)) == basis.exchange_power(n - 1, 1)
    assert mutated21.element(vec_scale(-1, e(n - 1))) == form.monomial(e(n - 1))
    for i in range(n, basis.seed.m):
        assert mutated21.element(e(i)) == form.monomial(e(i))
        assert mutated21.element(vec_scale(-1, e(i))) == form.monomial(
            vec_scale(-1, e(i))
        )
    for k in range(n - 1):
        assert mutated21.element(e(k)) == form.monomial(e(k))
        assert mutated21.element(vec_scale(-1, e(k))) == mutated21.exchange_power(k, 1)


def test_mutated_element_rank2_closed_form():
    for b, c in [(1, 1), (2, 1), (2, 2)]:
        basis = EBasis(principal_seed(((0, -b), (c, 0)), (c, b)))
        mut = MutatedBasis(basis)
        form = basis.form
        X1 = form.monomial((1, 0, 0, 0))
        X2 = form.monomial((0, 1, 0, 0))
        X2p = basis.exchange_power(1, 1)
        X1pp = mut.exchange_power(0, 1)
        for a1, a2 in itertools.product(range(-2, 3), repeat=2):
            for a3, a4 in [(0, 0), (1, -1)]:
                a = (a1, a2, a3, a4)
                q1, p1 = max(-a1, 0), max(a1, 0)
                q2, p2 = max(-a2, 0), max(a2, 0)
                pref = (
                    b * c * (q1 * q2 + q1 * a4 - c * q1 * a3 - p2 * a3)
                    - c * a1 * a3
                    + b * a2 * a4
                )
                closed = (
                    form.monomial((0, 0, a3, a4)) * X2**q2 * X1**p1 * X2p**p2 * X1pp**q1
                ).scalar_mul(v(pref))
                assert mut.element(a) == closed


def test_unit_label_and_frozen_shift(mutated21):
    rng = random.Random(12)
    seed = mutated21.base.seed
    for _ in range(25):
        a = tuple(rng.randint(-2, 2) for _ in range(seed.m))
        shift = (0,) * seed.n + tuple(
            rng.randint(-2, 2) for _ in range(seed.m - seed.n)
        )
        coeffs = mutated21.base.expand(mutated21.element(a))
        shifted = mutated21.base.expand(mutated21.element(vec_add(a, shift)))
        assert shifted == {vec_add(k, shift): cf for k, cf in coeffs.items()}
        assert mutated21.unit_label(vec_add(a, shift)) == vec_add(
            mutated21.unit_label(a), shift
        )


def test_unit_coefficient_conditions(mutated21):
    for a1, a2 in itertools.product(range(-2, 3), repeat=2):
        a = (a1, a2, 0, 0)
        coeffs = mutated21.base.expand(mutated21.element(a))
        units = [k for k, cf in coeffs.items() if cf.is_one()]
        assert len(units) == 1
        assert all(
            cf.in_v_zv() for k, cf in coeffs.items() if k != units[0]
        )


# -- exchange-power ladders and the in-place sweep -----------------------------


# The Kronecker seed, rank-2 principal seeds and a random rank-3 one.
LADDER_SEEDS = {
    "kronecker": a11_seed(),
    **{
        f"principal-{b}-{c}": principal_seed(((0, -b), (c, 0)), (c, b))
        for b, c in [(1, 1), (2, 1), (3, 2)]
    },
    "random-rank3": random_principal_seed(random.Random(4), 3),
}


# Seeds on which X''_k is also checked against its Gaussian-binomial
# expansion.  Besides a doubled and a wild rank-3 seed, the rank-2 seed (3, 2)
# with frozen coordinates changed by ((1, 0), (-1, 1)) has a frozen entry -1
# that the mutation lifts to 1, so the frozen correction in the expansion is
# nonzero there.
X_DPRIME_SEEDS = {
    **LADDER_SEEDS,
    "double-principal-3-2": double_seed(rank2_principal_seed(3, 2)),
    "wild-rank3": principal_seed(((0, -2, -2), (2, 0, -2), (2, 2, 0)), (1, 1, 1)),
    "frozen-twisted-3-2": QuantumSeed(
        m=4,
        n=2,
        btilde=((0, -3), (2, 0), (1, 0), (-1, 1)),
        lam=((0, 0, -2, 0), (0, 0, -3, -3), (2, 3, 0, 6), (0, 3, -6, 0)),
        d=(2, 3),
        order=(0, 1),
    ),
}


@pytest.mark.parametrize("seed", list(X_DPRIME_SEEDS.values()), ids=list(X_DPRIME_SEEDS))
def test_weight_order_pairs_to_symmetrizers(seed):
    w = seed_weight_order(seed).weights
    assert [vec_dot(w, seed.column(k)) for k in range(seed.n)] == list(seed.d)


# Checks of check_exchange_relations per seed of X_DPRIME_SEEDS.
EXCHANGE_CHECKS = {
    "kronecker": 6,
    "principal-1-1": 10,
    "principal-2-1": 10,
    "principal-3-2": 10,
    "random-rank3": 24,
    "double-principal-3-2": 18,
    "wild-rank3": 24,
    "frozen-twisted-3-2": 10,
}


@pytest.mark.parametrize("name", list(X_DPRIME_SEEDS))
def test_exchange_relations_on_x_dprime_seeds(name):
    # frozen-twisted-3-2 has a negative frozen entry; no random principal
    # seed does.
    rep = check_exchange_relations(EBasis(X_DPRIME_SEEDS[name]))
    assert rep.ok and rep.checks == EXCHANGE_CHECKS[name], rep.summary()


def test_compare_bases_frozen_twisted():
    # The one seed here whose mutation changes the sign of a frozen entry.
    basis = EBasis(X_DPRIME_SEEDS["frozen-twisted-3-2"])
    ex, fr = range(-2, 3), range(-1, 2)
    rep = compare_bases(basis, itertools.product(ex, ex, fr, fr))
    assert rep.ok and rep.checks == 225, rep.summary()


# Mutated principal seeds have negative frozen entries.  Each is taken in the
# order mutate gives it, and MutatedBasis mutates it once more at the end of
# that order; the second entry is the compare-bases window.
PM1_RANK3 = principal_seed(((0, 1, -1), (-1, 0, -1), (1, 1, 0)), (1, 1, 1)).replace(
    order=(1, 0, 2)
)
FROZEN_SIGN_SEEDS = {
    "principal-3-2-mu1": (mutate(rank2_principal_seed(3, 2), 0), 2),
    "principal-3-2-mu2": (mutate(rank2_principal_seed(3, 2), 1), 2),
    "pm1-rank3-mu2": (mutate(PM1_RANK3, 1), 1),
    "pm1-rank3-mu3": (mutate(PM1_RANK3, 2), 1),
}


@pytest.mark.parametrize("name", list(FROZEN_SIGN_SEEDS))
def test_compare_bases_and_frozen_shift_on_mutated_principal_seeds(name):
    seed, window = FROZEN_SIGN_SEEDS[name]
    assert any(x < 0 for row in seed.btilde[seed.n :] for x in row)
    basis = EBasis(seed)
    labels = [
        a + (0,) * (seed.m - seed.n)
        for a in itertools.product(range(-window, window + 1), repeat=seed.n)
    ]
    rep = compare_bases(basis, labels)
    assert rep.ok and rep.checks == len(labels), rep.summary()
    rep = check_frozen_shift(MutatedBasis(basis), random.Random(13), 10)
    assert rep.ok and rep.checks == 10, rep.summary()


def windowed(seed, w):
    """``seed`` with its compare-bases window: exchange entries in ``[-w, w]``,
    frozen entries 0."""
    return seed, [
        a + (0,) * (seed.m - seed.n) for a in itertools.product(range(-w, w + 1), repeat=seed.n)
    ]


# compare_bases reads each unit label off _expansion_at_leading_label; these
# are the labels on which that route is checked against the cold sweep.
ROUTE_CASES = {
    "principal-3-2": windowed(rank2_principal_seed(3, 2), 4),
    **{f"principal-{b}-{c}": windowed(rank2_principal_seed(b, c), 3) for b, c in [(2, 2), (1, 4), (4, 1)]},
    "pm1-rank3": windowed(PM1_RANK3, 1),
    "wild-rank3": windowed(X_DPRIME_SEEDS["wild-rank3"], 1),
    "frozen-twisted-3-2": (
        X_DPRIME_SEEDS["frozen-twisted-3-2"],
        list(itertools.product(range(-2, 3), range(-2, 3), range(-1, 2), range(-1, 2))),
    ),
}


@pytest.mark.parametrize("name", list(ROUTE_CASES))
def test_leading_label_route_agrees_with_the_cold_sweep(name):
    seed, labels = ROUTE_CASES[name]
    basis = EBasis(seed)
    mut = MutatedBasis(basis)
    table = TriangularTable(basis)
    element, leads = table.element, []
    table.element = lambda b: leads.append(b) or element(b)
    for a in labels:
        assert _expansion_at_leading_label(table, mut.element(a)) == basis.expand(mut.element(a))
        # The one triangular element the route read is at the unit label.
        [lead] = leads
        leads.clear()
        assert lead == mut.unit_label(a)
        # The route rests on the table's row being the expansion of its element.
        assert basis.expand(element(lead)) == table.expansion(lead)


def gaussian_x_dprime(mut, k):
    """``X''_k`` for ``k != k_mut`` as a combination of original
    standard elements with Gaussian-binomial coefficients in ``v^(2 d)``, ``d``
    the symmetrizer at ``k_mut``: a closed form of the mutated exchange
    binomial, kept as an oracle."""
    seed = mut.base.seed
    n1 = mut.k_mut
    bnk = seed.btilde[n1][k]
    frozen = lambda i: i >= seed.n
    phi = vec_add(
        vec_add(vec_neg(basis_vector(seed.m, k)), vec_scale(-bnk, basis_vector(seed.m, n1))),
        vec_sub(
            vec_restrict(plus_part(vec_neg(mut.abstract.seed.column(k))), frozen),
            vec_restrict(plus_part(vec_neg(seed.column(k))), frozen),
        ),
    )
    out = mut.base.element(phi)
    dn = seed.d[n1]
    for s in range(1, bnk + 1):
        coeff = gaussian_binomial(bnk, s).substitute_power(2 * dn).shifted(s * s * dn)
        label = vec_sub(mut.abstract.e_prime(k), vec_scale(s, seed.column(n1)))
        out = out - mut.base.element(label).scalar_mul(coeff)
    return out


def scratch_element(basis, a):
    """``E(a)`` as the ordered product built from scratch with ``**`` and a
    trailing ``v^nu``."""
    n = basis.seed.n
    raw = basis.form.monomial(tuple(x if i >= n else max(x, 0) for i, x in enumerate(a)))
    for k in basis.seed.order:
        if a[k] < 0:
            raw = raw * basis.exchange_power(k, 1) ** -a[k]
    return raw.scalar_mul(v(basis.normalization_exponent(a)))


def scratch_prime_monomial(mut, g):
    seed = mut.base.seed
    sigma = mut.abstract.form.chain_twist(
        vec_scale(g[i], basis_vector(seed.m, i)) for i in range(seed.m) if g[i]
    )
    out = mut.base.form.one()
    for i in range(seed.m):
        if i == mut.k_mut:
            out = out * mut.base.exchange_power(i, 1) ** g[i]
        elif g[i]:
            out = out * mut.base.form.monomial(vec_scale(g[i], basis_vector(seed.m, i)))
    return out.scalar_mul(v(-sigma))


def scratch_mutated_element(mut, a):
    """The realized mutated element as the ordered product in the order of
    the mutated seed, with ``**``, the plain generator at the mutation index
    and a trailing ``v^nu``."""
    n = mut.base.seed.n
    out = scratch_prime_monomial(mut, tuple(x if i >= n else max(x, 0) for i, x in enumerate(a)))
    for k in mut.abstract.seed.order:
        if a[k] < 0:
            x = mut.base.form.generator(k) if k == mut.k_mut else mut.exchange_power(k, 1)
            out = out * x ** -a[k]
    return out.scalar_mul(v(mut.abstract.normalization_exponent(a)))


def sample_labels(seed, rng, count):
    """Labels with exchange entries in -3..1 and frozen entries in -1..1."""
    return [
        tuple(rng.randint(-3, 1) if i < seed.n else rng.randint(-1, 1) for i in range(seed.m))
        for _ in range(count)
    ]


@pytest.mark.parametrize("seed", list(X_DPRIME_SEEDS.values()), ids=list(X_DPRIME_SEEDS))
def test_power_ladders_match_pow(seed):
    basis = EBasis(seed)
    mut = MutatedBasis(basis)
    for k in range(mut.k_mut):
        assert mut.exchange_power(k, 1) == gaussian_x_dprime(mut, k)
    # Out of order, so the ladders are extended by several entries at once.
    for q in (3, 0, 6, 1, 5, 2, 4):
        for k in range(seed.n):
            assert basis.exchange_power(k, q) == basis.exchange_power(k, 1) ** q
            assert mut.exchange_power(k, q) == mut.exchange_power(k, 1) ** q


@pytest.mark.parametrize("seed", list(LADDER_SEEDS.values()), ids=list(LADDER_SEEDS))
def test_elements_match_scratch_products(seed):
    basis = EBasis(seed)
    mut = MutatedBasis(basis)
    rng = random.Random(seed.m * 31 + sum(map(sum, seed.btilde)))
    for a in sample_labels(seed, rng, 40):
        assert basis.element(a) == scratch_element(basis, a)
        assert mut.element(a) == scratch_mutated_element(mut, a)
        g = a[:mut.k_mut] + (abs(a[mut.k_mut]),) + a[mut.k_mut + 1 :]
        assert mut._front(g, 0) == scratch_prime_monomial(mut, g)


# Rank-3 principal seeds: the wild and the +-1 seed have one compatible order
# each, (1, 2, 3) and (2, 1, 3); the fork has two.
ORDER_SEEDS = {
    "wild-rank3": X_DPRIME_SEEDS["wild-rank3"],
    "pm1-rank3": PM1_RANK3,
    "fork-rank3": principal_seed(((0, 0, -1), (0, 0, -1), (1, 1, 0)), (1, 1, 1)),
}


@pytest.mark.parametrize("name", list(ORDER_SEEDS))
def test_mutated_elements_match_scratch_in_every_compatible_order(name):
    seed = ORDER_SEEDS[name]
    orders = compatible_orders(seed)
    assert orders
    rng = random.Random(len(name))
    for order in orders:
        mut = MutatedBasis(EBasis(seed.replace(order=order)))
        k = mut.k_mut
        assert k == order[-1]
        for j in range(seed.n):
            if j != k:
                assert mut.exchange_power(j, 1) == gaussian_x_dprime(mut, j)
        for a in sample_labels(seed, rng, 30):
            assert mut.element(a) == scratch_mutated_element(mut, a)
            g = a[:k] + (abs(a[k]),) + a[k + 1 :]
            assert mut._front(g, 0) == scratch_prime_monomial(mut, g)


def sibling_labels(seed):
    """Four fixed exchange parts, two of them with the same negative part,
    each with every frozen part in -2..2 (-1..1 past four frozen entries)."""
    n = seed.n
    exchange = [(-1,) * n, (-2,) + (1,) * (n - 1), (-2,) + (0,) * (n - 1), (1,) * (n - 1) + (-1,)]
    bound = 2 if seed.m - n <= 4 else 1
    frozen = list(itertools.product(range(-bound, bound + 1), repeat=seed.m - n))
    return sorted(x + f for x in exchange for f in frozen)


@pytest.mark.parametrize("seed", list(X_DPRIME_SEEDS.values()), ids=list(X_DPRIME_SEEDS))
def test_sibling_shifts_match_scratch_products(seed):
    # A label sharing its non-unit part with an already-built one is built
    # as a unit shift of it; descending order changes which label comes first.
    labels = sibling_labels(seed)
    basis = EBasis(seed)
    mut = MutatedBasis(basis)
    expected = {a: (scratch_element(basis, a), scratch_mutated_element(mut, a)) for a in labels}
    for ordered in (labels, labels[::-1]):
        basis = EBasis(seed)
        mut = MutatedBasis(basis)
        for a in ordered:
            assert (basis.element(a), mut.element(a)) == expected[a], a


def test_ladder_entries_built_once(monkeypatch):
    seed = LADDER_SEEDS["random-rank3"]
    xs = []
    products = []  # (left, right); holding the operands keeps their ids unique
    original_mul = TorusElement.__mul__

    def spy_mul(self, other):
        if any(other is x for x in xs):
            products.append((self, other))
        return original_mul(self, other)

    def no_pow(self, k):
        raise AssertionError("a power was built by __pow__")

    monkeypatch.setattr(TorusElement, "__mul__", spy_mul)
    monkeypatch.setattr(TorusElement, "__pow__", no_pow)
    basis = EBasis(seed)
    mut = MutatedBasis(basis)
    xs += [basis.exchange_power(k, 1) for k in range(seed.n)]
    # Building X''_k already takes powers of X'_(n - 1).
    xs += [mut.exchange_power(k, 1) for k in range(seed.n)]
    labels = sample_labels(seed, random.Random(12), 60) + [(-4, -4, -4, 0, 0, 0)]
    for _ in range(2):
        for a in labels:
            basis.element(a)
            mut.element(a)
    monkeypatch.undo()
    # The labels reach power 4 of every X'_k and every X''_k; at the
    # mutation index X''_k is the plain generator, on a ladder too.
    ladders = [(basis.exchange_power, k) for k in range(seed.n)]
    ladders += [(mut.exchange_power, k) for k in range(seed.n)]
    for power, k in ladders:
        entries = [power(k, q) for q in range(5)]
        x = entries[1]
        for q in range(2, 5):
            built = [p for p in products if p[0] is entries[q - 1] and p[1] is x]
            assert len(built) == 1, (power.__name__, k, q)
        # No other product of a ladder entry with x happened.
        assert sum(1 for p in products if p[1] is x and any(p[0] is e for e in entries)) == 3


def object_sweep(basis, x, rule):
    """The sweep with one LaurentPoly per term update (``ce * p``, then
    ``s + ...``), kept as an oracle for :meth:`EBasis.sweep`."""
    key = basis.order.descending_key
    terms = dict(x.terms)
    heap = [(key(e), e) for e in terms]
    heapify(heap)
    multiples: dict = {}
    result: dict = {}
    while heap:
        g = heappop(heap)[1]
        p = rule(terms[g])
        if p:
            if len(multiples) == basis.expansion_cap:
                raise ExpansionError(f"expansion exceeded {basis.expansion_cap} steps")
            a = basis.leading_exponent_inverse(g)
            multiples[a] = p
            for e, ce in basis.element(a).terms.items():
                s = terms.get(e)
                if s is None:
                    terms[e] = ce * p
                    heappush(heap, (key(e), e))
                else:
                    terms[e] = s + ce * p
        c = terms.pop(g)
        if c:
            result[g] = c
    return multiples, TorusElement(basis.form, result)


def sweep_inputs(basis, rng):
    """Standard elements, their bars, products, and random combinations."""
    labels = sample_labels(basis.seed, rng, 12)
    out = []
    for a in labels:
        e = basis.element(a)
        out += [e, e.bar(), e.bar() - e]
    for a, b in zip(labels, labels[1:]):
        out.append(basis.element(a) * basis.element(b))
    for _ in range(6):
        x = basis.form.zero()
        for a in rng.sample(labels, 4):
            c = LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(2)})
            x = x + basis.element(a).scalar_mul(c)
        out.append(x)
    return out


def bar_oracle(c):
    """``[bar(c) - c]_+``, the part at exponents ``>= 1``, from its
    definition: the oracle of :func:`bar_rule`."""
    return LaurentPoly({e: x for e, x in (c.bar() - c).items() if e >= 1})


# Each settle rule of the sweep next to the ``rule(c)`` that the object
# sweep reads for it.
SETTLE_RULES = ((cancel_rule, lambda c: -c), (bar_rule, bar_oracle))


@pytest.mark.parametrize("seed", list(X_DPRIME_SEEDS.values()), ids=list(X_DPRIME_SEEDS))
def test_sweep_matches_object_oracle(seed):
    basis = EBasis(seed)
    rng = random.Random(seed.m * 17 + seed.d[0])
    for x in sweep_inputs(basis, rng):
        for rule, oracle in SETTLE_RULES:
            assert basis.sweep(x, rule) == object_sweep(basis, x, oracle)
        assert basis.expand(x) == {a: -p for a, p in object_sweep(basis, x, lambda c: -c)[0].items()}


def test_sweep_cap_matches_object_oracle():
    basis = EBasis(principal_seed(((0, -2), (1, 0)), (1, 2)))
    x = basis.element((-3, -2, 1, 0)).bar() + basis.element((-2, -3, 0, 1))
    raised = 0
    for cap in range(12):
        basis.expansion_cap = cap
        for rule, oracle in SETTLE_RULES:
            try:
                expected = object_sweep(basis, x, oracle)
            except ExpansionError:
                with pytest.raises(ExpansionError):
                    basis.sweep(x, rule)
                raised += 1
            else:
                assert basis.sweep(x, rule) == expected
    assert 0 < raised < 24


def test_triangular_rows_match_object_oracle():
    # The oracle basis builds every E(a) the object sweep reaches, including
    # the bare monomials that the in-place sweep settles without one.
    seed = X_DPRIME_SEEDS["wild-rank3"]
    oracle = EBasis(seed)
    table = TriangularTable(EBasis(seed))
    for r in range(1, 5):
        a = (-r, -r, -r, 0, 0, 0)
        row, element = object_sweep(oracle, oracle.element(a), bar_oracle)
        assert table.p_row(a) == row
        assert table.element(a) == element


@pytest.mark.parametrize("seed", list(X_DPRIME_SEEDS.values()), ids=list(X_DPRIME_SEEDS))
def test_elements_have_unit_leading_coefficient(seed):
    basis = EBasis(seed)
    rng = random.Random(seed.m * 13 + seed.d[-1])
    labels = sample_labels(seed, rng, 30)
    # Labels with no negative exchange entry are rare among the samples.
    labels += [tuple(abs(x) if i < seed.n else x for i, x in enumerate(a)) for a in labels[:10]]
    for a in labels:
        element = basis.element(a)
        assert element.leading_term(basis.order) == (basis.leading_exponent(a), LaurentPoly.one())
        if all(x >= 0 for x in a[: seed.n]):
            assert element == basis.form.monomial(a)


def test_sweep_builds_elements_only_at_negative_labels(monkeypatch):
    # The rows of the deep rank-3 benchmark workload: of the 1055 labels the
    # sweep multiplies, only 190 have a negative exchange entry.
    seed = X_DPRIME_SEEDS["wild-rank3"]
    asked = []
    original = EBasis.element

    def spy_element(self, a):
        asked.append(tuple(a))
        return original(self, a)

    monkeypatch.setattr(EBasis, "element", spy_element)
    basis = EBasis(seed)
    table = TriangularTable(basis)
    multiplied = set()
    for r in range(1, 8):
        a = (-r, -r, -r, 0, 0, 0)
        multiplied |= set(table.p_row(a))
        multiplied.add(a)
    monkeypatch.undo()
    assert asked and all(any(x < 0 for x in a[: seed.n]) for a in asked)
    assert len(basis._elements) == 190
    assert len(multiplied) == 1055


def test_deep_rows_build_one_ordered_product_per_exchange_part(monkeypatch):
    # The rows of the deep rank-3 benchmark workload build 190 elements from
    # 38 distinct exchange parts: one ordered product each, the rest shifts.
    built = []
    original = EBasis._ordered_product

    def spy(self, a, nu):
        built.append(a)
        return original(self, a, nu)

    monkeypatch.setattr(EBasis, "_ordered_product", spy)
    basis = EBasis(X_DPRIME_SEEDS["wild-rank3"])
    table = TriangularTable(basis)
    for r in range(1, 8):
        table.p_row((-r, -r, -r, 0, 0, 0))
    assert len(basis._elements) == 190
    assert len(built) == len(basis._siblings) == 38
    # Each record holds the cached element itself, not a second product.
    for a, (_, _, first) in zip(built, basis._siblings.values()):
        assert first is basis._elements[a]


def test_sweep_rejects_a_foreign_element(affine, principal21):
    x = principal21.element((-1, 0, 0, 0))
    with pytest.raises(ContextMismatch):
        affine.sweep(x, cancel_rule)


# -- per-index label data ---------------------------------------------------------


@pytest.mark.parametrize("seed", list(X_DPRIME_SEEDS.values()), ids=list(X_DPRIME_SEEDS))
def test_label_maps_match_the_chain_twist(seed):
    rng = random.Random(seed.m * 19 + seed.d[0])
    for basis in (EBasis(seed), MutatedBasis(EBasis(seed)).abstract):
        for a in sample_labels(basis.seed, rng, 40):
            factors = [basis._base_exponent(a)]
            factors += [vec_scale(-a[k], basis.e_prime(k)) for k in basis.seed.order if a[k] < 0]
            assert basis.normalization_exponent(a) == -basis.form.chain_twist(factors)
            assert basis.leading_exponent_inverse(basis.leading_exponent(a)) == a
        for k in (basis.seed.n, -1):
            with pytest.raises(ValueError, match="out of exchange range"):
                basis.e_prime(k)


def test_a_new_basis_computes_no_label_data(monkeypatch):
    # ``qca basis c`` builds one basis per request, so construction must
    # leave every exchange index's data to the first label that needs it.
    calls = []

    def spy(fn):
        def recorded(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return recorded

    monkeypatch.setattr(ebasis, "exchange_vector", spy(ebasis.exchange_vector))
    monkeypatch.setattr(SkewForm, "skew", spy(SkewForm.skew))
    bases = [EBasis(seed) for seed in X_DPRIME_SEEDS.values()]
    assert calls == []
    # The spies see the first label that reaches an exchange index.
    bases[0].element((-1,) + (0,) * (bases[0].seed.m - 1))
    assert "exchange_vector" in calls
