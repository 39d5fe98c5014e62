"""The rank-2 affine worked example: variables, Chebyshev family, cases."""

import pytest

from qca.kronecker import KroneckerAlgebra
from qca.laurent import LaurentPoly
from qca.torus import DivisionError, TorusElement, divide, quasi_commutes

v = LaurentPoly.v_power


@pytest.fixture(scope="module")
def alg():
    return KroneckerAlgebra()


def test_first_vars(alg):
    form = alg.form
    assert alg.var(0) == form.monomial((2, -1)) + form.monomial((0, -1))
    assert alg.var(3) == form.monomial((-1, 2)) + form.monomial((-1, 0))
    basis = alg.basis
    assert alg.var(3) == basis.exchange_power(0, 1)
    assert alg.var(0) == basis.exchange_power(1, 1)


def test_relations(alg):
    # Exchange and quasi-commutation relations along the strip, checked by
    # torus products.  Every variable either direction of var builds, from
    # -7 up to 7, and var(-1)..var(12), the benchmark's horizon 13.
    deep = KroneckerAlgebra(horizon=13)
    for a, ms in ((alg, range(-7, 8)), (deep, range(0, 12))):
        for m in ms:
            assert a.var(m + 1) * a.var(m - 1) == (a.var(m) ** 2).scalar_mul(v(2)) + 1
            assert quasi_commutes(a.var(m + 1), a.var(m), 1)


def test_laurent_phenomenon(alg):
    # Every variable within the horizon lands in the initial torus with
    # bar-invariant Laurent coefficients.
    for m in range(-5, 8):
        x = alg.var(m)
        assert x.bar() == x
        assert x


def test_horizon(alg):
    with pytest.raises(ValueError):
        alg.var(9)


def test_cluster_monomial_rejects_negative_exponents(alg):
    with pytest.raises(ValueError, match="^cluster monomial exponents must be nonnegative$"):
        alg.cluster_monomial(0, -1, 0)


def test_x_delta(alg):
    xd = alg.x_delta()
    basis = alg.basis
    assert xd == basis.element((-1, -1)) - basis.element((1, 1)).scalar_mul(v(4))
    assert xd.bar() == xd


def test_chebyshev_initial(alg):
    assert alg.chebyshev(0) == alg.form.one()
    assert alg.chebyshev(1) == alg.x_delta()
    assert alg.chebyshev(-1) == alg.form.zero()
    xd = alg.x_delta()
    assert alg.chebyshev(2) == xd * xd - 1
    for r in range(5):
        s = alg.chebyshev(r)
        assert s.bar() == s


def test_chebyshev_ladder_matches_the_recurrence():
    # A fresh algebra, asked out of order, against the recurrence run from
    # scratch for every r.
    alg = KroneckerAlgebra()
    z = alg.x_delta()

    def from_scratch(r):
        prev, cur = alg.form.zero(), alg.form.one()
        for _ in range(r):
            prev, cur = cur, z * cur - prev
        return cur

    for r in (7, 2, 12, 0, 5, 12, 1, 11, 3):
        assert alg.chebyshev(r) == from_scratch(r)
    assert alg.chebyshev(-1) == alg.form.zero()
    with pytest.raises(ValueError):
        alg.chebyshev(-2)


def test_chebyshev_family_report(alg):
    rep = alg.verify_chebyshev_family(4)
    assert rep.ok, rep.summary()


def test_chebyshev_family_report_names_a_ladder_entry_that_is_not_bar_invariant(monkeypatch):
    alg = KroneckerAlgebra()
    chebyshev = KroneckerAlgebra.chebyshev

    def broken(self, r):
        s = chebyshev(self, r)
        return s.scalar_mul(v(2)) if r == 3 else s

    monkeypatch.setattr(KroneckerAlgebra, "chebyshev", broken)
    rep = alg.verify_chebyshev_family(4)
    assert not rep.ok and rep.checks == 14
    assert rep.failures == [
        "product form fails at r=3",
        "bar-invariance fails at r=3",
        "triangular element at (-3,-3) is not the degree-3 element",
    ]


def test_chebyshev_family_report_names_a_wrong_product_form(monkeypatch):
    alg = KroneckerAlgebra()
    product_form = KroneckerAlgebra.product_form

    def wrong(self, r):
        return product_form(self, r) + (1 if r == 2 else 0)

    monkeypatch.setattr(KroneckerAlgebra, "product_form", wrong)
    rep = alg.verify_chebyshev_family(4)
    assert not rep.ok and rep.checks == 14
    assert rep.failures == ["product form fails at r=2"]


def spy_products(monkeypatch):
    """Record the operands of every torus product from now on."""
    products = []
    mul = TorusElement.__mul__

    def spy(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(TorusElement, "__mul__", spy)
    return products


def test_a_repeated_check_makes_no_torus_product(monkeypatch):
    alg = KroneckerAlgebra()
    first = alg.verify_chebyshev_family(6)
    products = spy_products(monkeypatch)
    second = alg.verify_chebyshev_family(6)
    assert products == []
    assert second == first
    assert first.ok and first.checks == 20


def test_kept_forms_are_shared():
    alg = KroneckerAlgebra()
    for r in range(-1, 7):
        assert alg.product_form(r) is alg.product_form(r)
    assert alg.x_delta() is alg.chebyshev(1)
    assert alg.x_delta() is alg.product_form(1)


def test_a_larger_check_builds_only_the_new_forms(monkeypatch):
    alg = KroneckerAlgebra(horizon=12)
    assert alg.verify_chebyshev_family(4).ok
    products = spy_products(monkeypatch)
    rep = alg.verify_chebyshev_family(10)
    assert rep.ok and rep.checks == 32
    x0, x1 = alg.var(0), alg.var(1)

    def built(right, shift):
        return [
            r
            for r in range(-1, 11)
            if any(a is alg.var(r + shift) and b is right for a, b in products)
        ]

    assert built(x0, 2) == built(x1, 1) == list(range(5, 11))


def test_kept_forms_match_a_fresh_algebra():
    alg = KroneckerAlgebra(horizon=12)
    assert alg.verify_chebyshev_family(10).ok
    assert alg.product_form(-1) == alg.form.zero()
    assert alg.product_form(0) == alg.form.one()
    for r in range(-1, 11):
        assert alg.product_form(r) == KroneckerAlgebra(horizon=12).product_form(r)


def test_cluster_labels_report(alg):
    rep = alg.verify_cluster_monomial_labels()
    assert rep.ok, rep.summary()


def test_cluster_labels_report_names_a_mismatch(alg, monkeypatch):
    cluster_monomial = KroneckerAlgebra.cluster_monomial

    def broken(self, m, a1, a2):
        out = cluster_monomial(self, m, a1, a2)
        return out + 1 if (m, a1, a2) == (0, 1, 0) else out

    monkeypatch.setattr(KroneckerAlgebra, "cluster_monomial", broken)
    rep = alg.verify_cluster_monomial_labels()
    assert rep.checks == 45
    assert rep.failures == ["label (0, -1) (m=0, a=(1,0)) mismatch"]


def test_alpha():
    assert KroneckerAlgebra.alpha(1) == (1, 0)
    assert KroneckerAlgebra.alpha(2) == (0, 1)
    assert KroneckerAlgebra.alpha(0) == (0, -1)
    assert KroneckerAlgebra.alpha(-1) == (-1, -2)
    assert KroneckerAlgebra.alpha(3) == (-1, 0)
    assert KroneckerAlgebra.alpha(4) == (-2, -1)


def test_e_times_x0_selected_cases(alg):
    basis = alg.basis
    E = basis.element
    x0 = alg.var(0)
    # Nonpositive second entry: exact match, no correction terms.
    a = (0, -1)
    assert (E(a) * x0).scalar_mul(v(0)) == E((0, -2))
    # One-step case.
    a = (1, 1)
    lhs = (E(a) * x0).scalar_mul(v(-1)) - E((1, 0))
    assert lhs == E((3, 0)).scalar_mul(v(2))
    # Boundary case with two corrections.
    a = (-1, 1)
    lhs = (E(a) * x0).scalar_mul(v(1)) - E((-1, 0))
    assert lhs == E((1, 0)).scalar_mul(v(2)) + E((1, 2)).scalar_mul(v(6))


def test_e_times_x0_report(alg):
    rep = alg.verify_e_times_x0(3)
    assert rep.ok, rep.summary()


def test_e_times_x0_report_names_a_failing_case(alg, monkeypatch):
    expected = KroneckerAlgebra._e_times_x0_expected

    def broken(self, a1, a2):
        out = expected(self, a1, a2)
        return out + 1 if (a1, a2) == (-1, 1) else out

    monkeypatch.setattr(KroneckerAlgebra, "_e_times_x0_expected", broken)
    rep = alg.verify_e_times_x0(2)
    assert rep.checks == 25
    assert rep.failures == ["case formula fails at a=(-1,1)"]


def test_division_cap_error():
    alg = KroneckerAlgebra()
    bad = alg.form.monomial((1, 0)) + alg.form.monomial((0, 1))
    with pytest.raises(DivisionError):
        divide(bad, alg.var(0), alg.basis.order, cap=10)


def test_exchange_packs_at_step_4(monkeypatch):
    # Every coefficient of the Kronecker variables sits on every 4th power of
    # v, so the division behind var(12) packs at step 4.  Its numerator
    # v^2 X_11^2 + 1 arrives as factor pairs: no torus product is made, and
    # only the popped coefficients, one per quotient term, are decoded.
    alg = KroneckerAlgebra(horizon=13)
    x, below = alg.var(11), alg.var(10)
    steps, decoded = [], []
    packed, from_packed = LaurentPoly.packed, LaurentPoly.from_packed

    def spy_packed(self, width, step=1):
        steps.append(step)
        return packed(self, width, step)

    def spy_from_packed(lo, n, width, step=1):
        decoded.append(step)
        return from_packed(lo, n, width, step)

    monkeypatch.setattr(LaurentPoly, "packed", spy_packed)
    monkeypatch.setattr(LaurentPoly, "from_packed", staticmethod(spy_from_packed))
    products = spy_products(monkeypatch)
    got = alg.var(12)
    assert steps and set(steps) == {4}
    assert products == []
    assert len(decoded) == len(got.terms)
    # The oracle: the same division with its numerator built by products.
    monkeypatch.undo()
    assert divide((x * x).scalar_mul(v(2)) + 1, below, alg.basis.order) == got
