"""Twisted multiplication, bar-involution, term orders, exact division."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qca import torus
from qca.laurent import LaurentPoly
from qca.torus import (
    ContextMismatch,
    DivisionError,
    SkewForm,
    TorusElement,
    WeightOrder,
    divide,
    plus_part,
    quasi_commutes,
    vanishes,
    vec_add,
    vec_neg,
    vec_sub,
)

v = LaurentPoly.v_power


def vec_dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


# The rank-2 affine context: twist matrix [[0,-1],[1,0]].
FORM = SkewForm(((0, -1), (1, 0)))
ORDER = WeightOrder((-1, 1))


def mono(e, c=1):
    return FORM.monomial(e, c)


def oracle_skew(form, e, f):
    """``sum_ij e_i L_ij f_j`` straight from the rows of the form, independent
    of the memoized twist kernel."""
    rows = form.rows
    return sum(e[i] * rows[i][j] * f[j] for i in range(form.m) for j in range(form.m))


def test_lattice_helpers():
    assert plus_part((-1, 2, -3)) == (0, 2, 0)
    assert plus_part((0, 0)) == (0, 0)
    a = (3, -5)
    minus = plus_part(tuple(-x for x in a))
    assert tuple(p - q for p, q in zip(plus_part(a), minus)) == a


def test_skew_form_validation():
    with pytest.raises(ValueError):
        SkewForm(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        SkewForm(((0, 1),))


def test_constructors_refuse_non_integers():
    # Each of these used to truncate: rows ((0, 1), (-1, 0)), X^(0,1) and
    # weights (1, 0).
    with pytest.raises(ValueError, match="integer"):
        SkewForm(((0, 1.5), (-1.5, 0)))
    with pytest.raises(ValueError, match="integer"):
        FORM.monomial((0.7, True))
    with pytest.raises(ValueError, match="integer"):
        WeightOrder((1.9, -0.5))


def test_monomial_products():
    assert mono((0, 1)) * mono((1, 0)) == mono((1, 1), v(1))
    assert mono((1, 0)) * mono((0, 1)) == mono((1, 1), v(-1))
    x = mono((3, -2), v(2) + 1)
    assert x * FORM.one() == x
    assert mono((-1, 2)) * mono((2, -1)) == mono((1, 1), v(3))


def test_context_mismatch():
    other = SkewForm(((0, 2), (-2, 0)))
    with pytest.raises(ContextMismatch):
        mono((1, 0)) * other.monomial((1, 0))


def test_mul_associative_on_random_monomials():
    rng = random.Random(3)
    for _ in range(40):
        a, b, c = (
            mono((rng.randint(-3, 3), rng.randint(-3, 3)), v(rng.randint(-2, 2)))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


def test_monomial_rule_matches_form():
    rng = random.Random(4)
    for _ in range(40):
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        f = (rng.randint(-3, 3), rng.randint(-3, 3))
        prod = mono(e) * mono(f)
        twist = oracle_skew(FORM, e, f)
        assert prod == FORM.monomial(
            tuple(x + y for x, y in zip(e, f)), v(twist)
        )


def test_bar():
    x = mono((1, 1), v(4))
    assert x.bar() == mono((1, 1), v(-4))
    rng = random.Random(5)
    for _ in range(25):
        terms = {
            (rng.randint(-2, 2), rng.randint(-2, 2)): v(rng.randint(-3, 3))
            for _ in range(3)
        }
        x = FORM.element(terms)
        assert x.bar().bar() == x
    for _ in range(25):
        x = mono((rng.randint(-2, 2), rng.randint(-2, 2)), v(rng.randint(-3, 3)))
        y = mono((rng.randint(-2, 2), rng.randint(-2, 2)), v(rng.randint(-3, 3)))
        assert (x * y).bar() == y.bar() * x.bar()


# Coefficients on both sides of bar-invariance: palindromes, constants and
# maps on one side of v^0; elements drawn from them include the zero element.
bar_coefficients = st.one_of(
    st.dictionaries(st.integers(0, 4), st.integers(-5, 5), max_size=3).map(
        lambda t: LaurentPoly({s * e: c for e, c in t.items() for s in (1, -1)})
    ),
    st.integers(-5, 5).map(LaurentPoly.from_int),
    st.dictionaries(st.integers(1, 4), st.integers(-5, 5), min_size=1, max_size=3).map(
        LaurentPoly
    ),
    st.dictionaries(st.integers(-4, -1), st.integers(-5, 5), min_size=1, max_size=3).map(
        LaurentPoly
    ),
)
bar_elements = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), bar_coefficients, max_size=4
).map(FORM.element)


@given(bar_elements)
def test_is_bar_invariant_is_bar_equality(x):
    assert x.is_bar_invariant() == (x.bar() == x)


def test_is_bar_invariant_examples():
    assert FORM.zero().is_bar_invariant() and FORM.one().is_bar_invariant()
    assert (mono((1, 0), v(1) + v(-1)) + mono((0, 1), 3)).is_bar_invariant()
    assert not (mono((1, 0), v(1) + v(-1)) + mono((0, 1), v(1))).is_bar_invariant()


def test_leading_monomial():
    # Four-term element with weights (-1, 1): exponent (-1,1) wins.
    x = FORM.element({(1, 1): v(4), (-1, 1): 1, (1, -1): 1, (-1, -1): 1})
    g, c = x.leading_term(ORDER)
    assert g == (-1, 1) and c == LaurentPoly.one()
    y = mono((2, -3), v(5))
    assert y.leading_term(ORDER) == ((2, -3), v(5))
    # Weight ties break lexicographically.
    z = FORM.element({(1, 1): 1, (-1, -1): 1})
    g, _ = z.leading_term(WeightOrder((1, -1)))
    assert g == (1, 1)
    with pytest.raises(ValueError):
        FORM.zero().leading_term(ORDER)


@st.composite
def weights_and_exponents(draw):
    m = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(-9, 9)] * m)
    return draw(vector), draw(st.lists(vector, min_size=1, max_size=8))


@settings(deadline=None, max_examples=100)
@given(weights_and_exponents())
def test_descending_key_matches_the_dot_product_key(case):
    w, exponents = case
    order = WeightOrder(w)

    def key(e):  # the order's plain statement: weight, then lex
        return (vec_dot(w, e), e)

    for e in exponents:
        assert order.descending_key(e) == (-vec_dot(w, e), vec_neg(e))
    # Ascending keys walk the order from the top down.
    descending = sorted(exponents, key=order.descending_key)
    assert descending == sorted(exponents, key=key, reverse=True)
    flat = SkewForm([[0] * len(w)] * len(w))
    x = flat.element({e: 1 for e in exponents})
    assert x.leading_term(order)[0] == max(exponents, key=key)


def left_divide(p, q, order, cap=10**6):
    """``r`` with ``q * r == p``: bar is an anti-automorphism, so this is the
    bar image of the right quotient of ``bar(p)`` by ``bar(q)``."""
    return divide(p.bar(), q.bar(), order, cap).bar()


def test_divide_examples():
    # Left-divide v^2 X^(2,0) + 1 by X^(0,1).
    p = mono((2, 0), v(2)) + 1
    q = mono((0, 1))
    r = left_divide(p, q, ORDER)
    assert r == mono((2, -1)) + mono((0, -1))
    assert q * r == p
    # Monomial division with the solved twist.
    r = left_divide(mono((1, 0)), mono((0, 1)), ORDER)
    assert r == mono((1, -1), v(-1))
    assert mono((0, 1)) * r == mono((1, 0))
    # Exactness on random monomial quotients.
    rng = random.Random(6)
    for _ in range(30):
        x = mono((rng.randint(-3, 3), rng.randint(-3, 3)), v(rng.randint(-2, 2)))
        qq = FORM.element(
            {
                (rng.randint(-2, 2), rng.randint(-2, 2)): v(rng.randint(-2, 2)),
                (rng.randint(-2, 2), rng.randint(-2, 2)): 1,
            }
        )
        if not qq:
            continue
        assert divide(x * qq, qq, ORDER) == x
        r = left_divide(qq * x, qq, ORDER)
        assert r == x and qq * r == qq * x
    # A divisor led by the unit -v^2: each quotient coefficient is a shift.
    q = mono((0, 1), -v(2)) + mono((1, 0), 3)
    x = mono((1, -1), v(1) + 2) + mono((0, -2), v(-1))
    assert divide(x * q, q, ORDER) == x
    assert left_divide(q * x, q, ORDER) == x


def test_str_format():
    assert str(FORM.zero()) == "0"
    assert str(mono((1, 0), -1)) == "-X^(1,0)"
    assert str(mono((1, 0), 2)) == "2*X^(1,0)"
    assert str(mono((1, 0), v(2))) == "v^2*X^(1,0)"


def test_divide_failure_modes():
    p = mono((1, 0)) + mono((0, 1))
    q = mono((0, 1)) + mono((1, 0), v(1, 2))
    with pytest.raises(DivisionError):
        left_divide(p, q, ORDER, cap=50)
    with pytest.raises(ZeroDivisionError):
        left_divide(p, FORM.zero(), ORDER)
    # Divisible, but the quotient needs two steps.
    with pytest.raises(DivisionError, match=r"^division exceeded 1 steps$"):
        divide((mono((1, 1)) + mono((2, 0))) * p, p, ORDER, cap=1)
    # A leading coefficient 1 over 2 is not in Z[v, v^-1].
    with pytest.raises(DivisionError, match=r"^not divisible$"):
        divide(p, p.scalar_mul(2), ORDER)


# -- oracles: the monomial rule and the rescan-and-rebuild division ------------


def naive_mul(x, y):
    """``X^e X^f = v^L(e,f) X^(e+f)``, term pair by term pair."""
    out = {}
    for e, ce in x.terms.items():
        for f, cf in y.terms.items():
            g = tuple(a + b for a, b in zip(e, f))
            out[g] = out.get(g, LaurentPoly.zero()) + (ce * cf).shifted(oracle_skew(x.form, e, f))
    return x.form.element(out)


def rebuild_divide(p, q, order, cap=10**6):
    """Right division that rescans the remainder for its leading term and
    rebuilds it from a full product at every step."""
    if not q:
        raise ZeroDivisionError("division by zero torus element")
    form = p.form
    gq, cq = q.leading_term(order)
    rem = p
    quot = {}
    steps = 0
    while rem:
        steps += 1
        if steps > cap:
            raise DivisionError(f"division exceeded {cap} steps")
        gr, cr = rem.leading_term(order)
        g = tuple(a - b for a, b in zip(gr, gq))
        try:
            t = cr.shifted(-oracle_skew(form, g, gq)).divide_exact(cq)
        except ValueError as exc:
            raise DivisionError("not divisible") from exc
        quot[g] = t
        piece = form.monomial(g, t)
        rem = rem - naive_mul(piece, q)
    return form.element(quot)


FORM3 = SkewForm(((0, 2, -1), (-2, 0, 3), (1, -3, 0)))
ORDER3 = WeightOrder((1, -2, 1))


def random_element(rng, form, terms, coeff_terms, mag, spread=3):
    """Up to ``terms`` terms, each with up to ``coeff_terms`` Laurent terms of
    absolute value at most ``mag``."""
    return form.element(
        {
            tuple(rng.randint(-spread, spread) for _ in range(form.m)): LaurentPoly(
                {rng.randint(-12, 12): rng.randint(-mag, mag) for _ in range(coeff_terms)}
            )
            for _ in range(terms)
        }
    )


# (torus terms, Laurent terms per coefficient): both sides of the dispatch
# between the dict loop and the packed product.
SHAPES = [(1, 1), (3, 2), (2, 12), (6, 2), (5, 10), (8, 16)]
MAGNITUDES = [1, 40, 10**6, 10**30]


def test_mul_matches_monomial_rule(monkeypatch):
    calls = []
    packed_mul = TorusElement._packed_mul

    def spy(x, y):
        calls.append(1)
        return packed_mul(x, y)

    monkeypatch.setattr(TorusElement, "_packed_mul", spy)
    rng = random.Random(11)
    products = 0
    for form in (FORM, FORM3):
        for shape_x in SHAPES:
            for shape_y in SHAPES:
                mag = rng.choice(MAGNITUDES)
                x = random_element(rng, form, *shape_x, mag)
                y = random_element(rng, form, *shape_y, rng.choice(MAGNITUDES))
                assert x * y == naive_mul(x, y)
                assert y * x == naive_mul(y, x)
                products += 2
    assert 0 < len(calls) < products  # both paths ran
    empty = FORM.zero()
    x = random_element(rng, FORM, 8, 16, 10**30)
    assert x * empty == empty * x == empty


def test_unit_monomial_dispatch(monkeypatch):
    calls = []
    shift_by_unit = TorusElement._shift_by_unit

    def spy(x, u, unit, side):
        calls.append(side)
        return shift_by_unit(x, u, unit, side)

    monkeypatch.setattr(TorusElement, "_shift_by_unit", spy)
    rng = random.Random(13)
    for form in (FORM, FORM3):
        others = [random_element(rng, form, *shape, rng.choice(MAGNITUDES)) for shape in SHAPES]
        others.append(form.zero())
        for k in (-3, 0, 5):
            for sign in (1, -1):
                e = tuple(rng.randint(-3, 3) for _ in range(form.m))
                u = form.monomial(e, v(k, sign))
                for y in others:
                    for x, z in ((u, y), (y, u)):
                        calls.clear()
                        assert x * z == naive_mul(x, z)
                        assert len(calls) == 1
        # Single terms whose coefficient is not a unit take the generic path.
        generic = [
            y for y in others if not (len(y.terms) == 1 and [*y.terms.values()][0].is_unit())
        ]
        for c in (v(3, 2), LaurentPoly({0: 1, 1: 1})):
            w = form.monomial(tuple(rng.randint(-3, 3) for _ in range(form.m)), c)
            for y in generic:
                calls.clear()
                assert w * y == naive_mul(w, y)
                assert y * w == naive_mul(y, w)
                assert not calls
    assert FORM.zero() * mono((1, 2), v(1, -1)) == FORM.zero()


def test_scalar_mul_by_unit_matches_termwise_product():
    rng = random.Random(15)
    for form in (FORM, FORM3):
        elements = [random_element(rng, form, *shape, rng.choice(MAGNITUDES)) for shape in SHAPES]
        elements.append(form.zero())
        for x in elements:
            before = {e: dict(c._terms) for e, c in x.terms.items()}
            for k in (-3, 0, 5):
                for sign in (1, -1):
                    unit = v(k, sign)
                    # From scratch: each coefficient times the unit by the
                    # Laurent product.
                    want = form.element({e: c * unit for e, c in x.terms.items()})
                    assert x.scalar_mul(unit) == x * unit == unit * x == want
            assert x.scalar_mul(-1) == form.element({e: c * -1 for e, c in x.terms.items()})
            # Shifting by v^0 may share coefficients; none of them changed.
            assert {e: dict(c._terms) for e, c in x.terms.items()} == before


def test_chain_twist_is_the_product_twist():
    rng = random.Random(14)
    for form in (FORM, FORM3):
        for count in range(6):
            vectors = [tuple(rng.randint(-3, 3) for _ in range(form.m)) for _ in range(count)]
            product = form.one()
            for u in vectors:
                product = naive_mul(product, form.monomial(u))
            total = tuple(sum(col) for col in zip(*vectors)) if vectors else (0,) * form.m
            assert product == form.monomial(total, v(form.chain_twist(vectors)))


@st.composite
def twist_cases(draw):
    """A skew form, a second form whose rows differ from it (for m >= 2),
    exponent vectors and two scalars."""
    m = draw(st.integers(1, 4))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(m) for j in range(i + 1, m)}
    rows = [[upper.get((i, j), 0) - upper.get((j, i), 0) for j in range(m)] for i in range(m)]
    other = [list(row) for row in rows]
    if m >= 2:
        k = draw(st.integers(-3, 3).filter(bool))
        other[0][1] += k
        other[1][0] -= k
    vectors = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * m), min_size=3, max_size=6))
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return SkewForm(rows), SkewForm(other), vectors, a, b


@settings(deadline=None, max_examples=60)
@given(twist_cases())
def test_twist_kernel_matches_the_double_sum(case):
    form, other, vectors, a, b = case
    units = [tuple(int(i == j) for j in range(form.m)) for i in range(form.m)]
    for _ in range(2):  # the second pass reads the memo
        for x in vectors:
            for y in vectors:
                # The other form is asked first, so a shared memo would leak
                # its entries into the first form's answers.
                assert other.skew(x, y) == oracle_skew(other, x, y)
                assert form.skew(x, y) == oracle_skew(form, x, y)
                assert form.skew(x, y) == -form.skew(y, x)
            assert form.lvec(x) == tuple(oracle_skew(form, u, x) for u in units)
            assert other.lvec(x) == tuple(oracle_skew(other, u, x) for u in units)
    e, f, g = vectors[:3]
    ae_bf = tuple(a * x + b * y for x, y in zip(e, f))
    assert form.skew(ae_bf, g) == a * form.skew(e, g) + b * form.skew(f, g)
    assert form.skew(g, ae_bf) == a * form.skew(g, e) + b * form.skew(g, f)
    chain = sum(
        oracle_skew(form, vectors[i], vectors[j])
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    )
    assert form.chain_twist(vectors) == chain


def test_lvec_rejects_a_wrong_length():
    with pytest.raises(ValueError):
        FORM.lvec((1, 2, 3))
    # The monomial constructor checks its own exponent and names both lengths.
    with pytest.raises(ValueError, match=r"^exponent length 3 != m = 2$"):
        FORM.monomial((1, 2, 3))


def test_packed_product_cancels_to_zero():
    rng = random.Random(12)
    x = random_element(rng, FORM, 6, 12, 10**30)
    y = random_element(rng, FORM, 6, 12, 50)
    assert (x * y) + ((-x) * y) == FORM.zero()
    assert x * y - x * y == FORM.zero()
    assert (x - x) * y == FORM.zero()


def test_divide_matches_rebuild_oracle(monkeypatch):
    widths = []
    packed = LaurentPoly.packed

    def spy(self, width, step=1):
        widths.append(width)
        return packed(self, width, step)

    monkeypatch.setattr(LaurentPoly, "packed", spy)
    rng = random.Random(13)
    repacked = 0
    for form, order in ((FORM, ORDER), (FORM3, ORDER3)):
        for shape_x in SHAPES[:5]:
            for shape_q in SHAPES[:5]:
                x = random_element(rng, form, *shape_x, rng.choice(MAGNITUDES), spread=2)
                q = random_element(rng, form, *shape_q, rng.choice(MAGNITUDES), spread=2)
                if not q:
                    continue
                p = naive_mul(x, q)
                widths.clear()
                got = divide(p, q, order)
                assert got == x == rebuild_divide(p, q, order)
                repacked += len(set(widths)) > 1
                # The left quotient, as a bar-conjugated right division.
                p = naive_mul(q, x)
                widths.clear()
                got = left_divide(p, q, order)
                assert got == x == rebuild_divide(p.bar(), q.bar(), order).bar()
                assert naive_mul(q, got) == p
                repacked += len(set(widths)) > 1
    assert repacked  # some division grew its digit width mid-way


# Forms whose twists are multiples of 2, 3 and 4, so that a twist never moves
# a coefficient off its lattice.
WIDE_FORMS = [
    (SkewForm(tuple(tuple(12 * x for x in row) for row in form.rows)), order)
    for form, order in ((FORM, ORDER), (FORM3, ORDER3))
]


def packing_steps(monkeypatch):
    """The list, filled as they happen, of the steps ``LaurentPoly.packed``
    is called with."""
    steps = []
    packed = LaurentPoly.packed

    def spy(self, width, step=1):
        steps.append(step)
        return packed(self, width, step)

    monkeypatch.setattr(LaurentPoly, "packed", spy)
    return steps


def strided_element(rng, form, terms, coeff_terms, mag, step, offsets, spread=3):
    """Like :func:`random_element`, with the exponents of each coefficient on
    ``o + step*Z`` for an ``o`` drawn from ``offsets``."""
    out = {}
    for _ in range(terms):
        o = rng.choice(offsets)
        out[tuple(rng.randint(-spread, spread) for _ in range(form.m))] = LaurentPoly(
            {o + step * rng.randint(-6, 6): rng.randint(-mag, mag) for _ in range(coeff_terms)}
        )
    return form.element(out)


@pytest.mark.parametrize("step", [2, 3, 4])
def test_strided_products_match_monomial_rule(monkeypatch, step):
    runs = []  # the steps of each packed product, one list per product
    packed_sums = torus._packed_sums

    def spy(left, right, acc, width, at):
        runs[-1].append(at)
        return packed_sums(left, right, acc, width, at)

    monkeypatch.setattr(torus, "_packed_sums", spy)
    rng = random.Random(20 + step)
    # Offset 0 only keeps every pair on one lattice; offsets 0 and 1 make
    # pairs meet off it, which restarts the product at a smaller step.
    for offsets in ((0,), (0, 1)):
        for form, _ in WIDE_FORMS:
            for shape_x in SHAPES[3:]:
                for shape_y in SHAPES[2:]:
                    mag = rng.choice(MAGNITUDES)
                    x = strided_element(rng, form, *shape_x, mag, step, offsets)
                    y = strided_element(rng, form, *shape_y, rng.choice(MAGNITUDES), step, offsets)
                    runs.append([])
                    assert x * y == naive_mul(x, y)
    runs = [r for r in runs if r]
    assert any(r == [step] for r in runs)  # packed at the drawn step
    assert any(len(r) > 1 and r[0] % step == 0 and r[-1] < step for r in runs)  # restarted


def test_strided_division_matches_rebuild_oracle(monkeypatch):
    steps = packing_steps(monkeypatch)
    rng = random.Random(21)
    kept = 0
    for step in (2, 3, 4):
        for offsets in ((0,), (0, 1)):
            for form, order in WIDE_FORMS:
                for shape_x in SHAPES[1:5]:
                    for shape_q in SHAPES[1:5]:
                        mag = rng.choice(MAGNITUDES)
                        x = strided_element(rng, form, *shape_x, mag, step, offsets, spread=2)
                        q = strided_element(rng, form, *shape_q, mag, step, offsets, spread=2)
                        if not q:
                            continue
                        p = naive_mul(x, q)
                        steps.clear()
                        assert divide(p, q, order) == x == rebuild_divide(p, q, order)
                        kept += bool(steps) and min(steps) >= step
    assert kept  # some division ran at the drawn step throughout


LEADS = [LaurentPoly.one(), LaurentPoly({0: 1, 2: 1})]


def off_lattice_case(lead):
    """``(x, q, order)`` whose division restarts at a smaller step.

    With q = c X^(0,0) + v X^(-1,0) + v X^(0,-1) on a flat form, c = ``lead``,
    and x = t X^(0,-1) - t X^(-1,0) + s X^(-1,-1), the two pairs of x and the
    rest of q that meet at X^(-1,-1) cancel, so p = x q keeps every
    coefficient on one lattice of step 2 (p at X^(-1,-1) is s c).  The
    first elimination still sends v t (odd exponents) to X^(-1,-1), whose
    remainder entry has even ones: the division starts over at step 1.
    """
    flat = SkewForm(((0, 0), (0, 0)))
    t, s = LaurentPoly({0: 1, 2: 3}), LaurentPoly({0: 2, 2: -1, 4: 5})
    q = flat.element({(0, 0): lead, (-1, 0): v(1), (0, -1): v(1)})
    x = flat.element({(0, -1): t, (-1, 0): -t, (-1, -1): s})
    return x, q, WeightOrder((1, 1))


@pytest.mark.parametrize("lead", LEADS)
def test_strided_division_restarts_off_the_lattice(monkeypatch, lead):
    steps = packing_steps(monkeypatch)
    x, q, order = off_lattice_case(lead)
    p = naive_mul(x, q)
    assert p.terms[(-1, -1)] == x.terms[(-1, -1)] * lead
    assert divide(p, q, order) == x == rebuild_divide(p, q, order)
    assert steps[0] == 2 and steps[-1] == 1


def widening_case():
    """``(x, q)`` whose division restarts at a wider digit.

    With y = X^(0,-1), every coefficient of q and of p = x q fits in one
    byte, so the remainder starts one byte wide, and eliminations push one
    remainder coefficient past a byte.  The running bound adds every
    elimination's largest contribution, so it reaches a byte's capacity no
    later than that coefficient: the division starts over at two bytes.
    """
    flat = SkewForm(((0, 0), (0, 0)))
    q = flat.element({(0, -k): c for k, c in enumerate((1, -1, -64, -2, 2))})
    x = flat.element({(0, -k): c for k, c in enumerate((1, -1, 1, -2, 0, 0, 0, 1)) if c})
    return x, q


def test_divide_bounds_sum_over_eliminations():
    # The restart at two bytes decodes the wide coefficient exactly.
    x, q = widening_case()
    p = naive_mul(x, q)
    assert max(coeff.l1() for coeff in p.terms.values()) < 128
    assert divide(p, q, ORDER, cap=50) == x
    assert q * left_divide(p, q, ORDER, cap=50) == p


def kernel_calls(monkeypatch):
    """The list, filled as they happen, of the ``(left, width, step)`` of each
    call to the packed kernel."""
    calls = []
    packed_sums = torus._packed_sums

    def spy(left, right, acc, width, step):
        calls.append((left, width, step))
        return packed_sums(left, right, acc, width, step)

    monkeypatch.setattr(torus, "_packed_sums", spy)
    return calls


def test_divide_eliminates_through_the_packed_kernel(monkeypatch):
    calls = kernel_calls(monkeypatch)
    q = mono((0, 0), LaurentPoly({0: 1, 1: 2})) + mono((-1, 0), v(1)) + mono((0, -1), 3)
    x = mono((2, 1), LaurentPoly({0: 1, 2: -1})) + mono((1, 1)) + mono((0, 0), v(-2))
    p = naive_mul(x, q)
    assert divide(p, q, ORDER) == x == rebuild_divide(p, q, ORDER)
    # One seeding call with the terms of p on the left, then one call per
    # elimination, with the one quotient term on the left.
    assert [len(left) for left, *_ in calls] == [len(p.terms)] + [1] * len(x.terms)
    assert {e for e, *_ in calls[0][0]} == set(p.terms)
    assert {left[0][0] for left, *_ in calls[1:]} == set(x.terms)


def test_divide_by_a_monomial_packs_no_quotient(monkeypatch):
    # Every digit of p and q fits one byte, but the quotient
    # (1 + v + ... + v^199)^2 X^(1,0) has the digit 200.
    calls = kernel_calls(monkeypatch)
    p = mono((1, 0), LaurentPoly({0: 1, 200: -2, 400: 1}))
    q = mono((0, 0), LaurentPoly({0: 1, 1: -2, 2: 1}))
    ones = LaurentPoly({k: 1 for k in range(200)})
    want = mono((1, 0), ones * ones)
    assert max(want.terms[(1, 0)]._terms.values()) == 200
    assert divide(p, q, ORDER) == want == rebuild_divide(p, q, ORDER)
    assert q * left_divide(p, q, ORDER) == p
    # Each division's one call seeds its numerator at one byte; no
    # elimination call packs the quotient.
    assert [(len(left), left[0][0], width, step) for left, width, step in calls] == [
        (1, (1, 0), 1, 1)
    ] * 2


def test_divide_cap_counts_the_final_attempt(monkeypatch):
    # The division of widening_case starts over at a wider digit; its cap
    # still counts the oracle's eliminations.
    calls = kernel_calls(monkeypatch)
    widths = []
    packed = LaurentPoly.packed

    def spy(self, width, step=1):
        widths.append(width)
        return packed(self, width, step)

    monkeypatch.setattr(LaurentPoly, "packed", spy)
    x, q = widening_case()
    p = naive_mul(x, q)
    cap = len(x.terms)  # one oracle step per quotient term
    assert divide(p, q, ORDER, cap) == x == rebuild_divide(p, q, ORDER, cap)
    # The seeding at one byte, then the seeding and every elimination at two.
    assert widths[0] == 1
    assert [width for _, width, _ in calls] == [1] + [2] * (1 + len(x.terms))
    for divider in (divide, rebuild_divide):
        with pytest.raises(DivisionError, match=rf"^division exceeded {cap - 1} steps$"):
            divider(p, q, ORDER, cap - 1)


def test_an_element_numerator_seeds_as_the_one_pair(monkeypatch):
    # An element p divides exactly as the one pair (p, X^0): the same kernel
    # calls from the seeding on, through a restart at a wider digit and at a
    # smaller step, and the same quotient.
    calls = kernel_calls(monkeypatch)
    rng = random.Random(37)
    cases = [(*widening_case(), ORDER)] + [off_lattice_case(lead) for lead in LEADS]
    for _ in range(30):
        form, order = rng.choice(((FORM, ORDER), (FORM3, ORDER3)))
        x = random_element(rng, form, *rng.choice(SHAPES[:5]), rng.choice(MAGNITUDES))
        q = random_element(rng, form, *rng.choice(SHAPES[:4]), rng.choice(MAGNITUDES))
        if q:
            cases.append((x, q, order))
    for i, (x, q, order) in enumerate(cases):
        p = naive_mul(x, q)
        runs = []
        for numerator in (p, ((p, q.form.one()),)):
            calls.clear()
            runs.append((divide(numerator, q, order), list(calls)))
        assert runs[0] == runs[1] and runs[0][0] == x
        widths = [width for _, width, _ in calls]
        steps = [step for *_, step in calls]
        if p:
            assert [e for e, *_ in calls[0][0]] == list(p.terms)  # the seeding
        if i == 0:
            assert widths[0] == 1 and widths[-1] == 2
        elif i <= len(LEADS):
            assert steps[0] == 2 and steps[-1] == 1


def test_divide_failures_match_rebuild_oracle():
    rng = random.Random(15)
    outcomes = set()
    for _ in range(60):
        form, order = rng.choice(((FORM, ORDER), (FORM3, ORDER3)))
        p = random_element(
            rng, form, rng.randint(0, 4), rng.randint(1, 4), rng.choice(MAGNITUDES)
        )
        q = random_element(
            rng, form, rng.randint(1, 3), rng.randint(1, 3), rng.choice([1, 3, 10**30])
        )
        if not q:
            continue
        if rng.choice(("right", "left")) == "left":
            # q r == p is the right division bar(r) bar(q) == bar(p).
            p, q = p.bar(), q.bar()
        cap = rng.randint(1, 12)
        try:
            want = rebuild_divide(p, q, order, cap)
        except DivisionError:
            with pytest.raises(DivisionError):
                divide(p, q, order, cap)
            outcomes.add("raises")
        else:
            got = divide(p, q, order, cap)
            assert got == want and naive_mul(got, q) == p
            outcomes.add("divides")
    assert outcomes == {"raises", "divides"}
    # Empty operands.
    q = random_element(rng, FORM, 3, 4, 10**30)
    assert divide(FORM.zero(), q, ORDER) == FORM.zero()
    with pytest.raises(ZeroDivisionError):
        divide(q, FORM.zero(), ORDER)


# -- numerators passed as factor pairs ------------------------------------------


def split(rng, x):
    """``x`` as two elements whose sum it is, each term going to one side."""
    sides = ({}, {})
    for e, c in x.terms.items():
        sides[rng.randrange(2)][e] = c
    return x.form.element(sides[0]), x.form.element(sides[1])


def factor_pairs(rng, x, q):
    """Pairs whose products sum to ``x * q``: with ``x = x1 + x2`` and
    ``q = q1 + q2``, the pairs ``(x1, q1)``, ``(x1, q2)`` and ``(x2, q)``."""
    (x1, x2), (q1, q2) = split(rng, x), split(rng, q)
    return [(x1, q1), (x1, q2), (x2, q)]


def built(pairs):
    return sum((naive_mul(x, y) for x, y in pairs), pairs[0][0].form.zero())


def test_pair_numerators_match_built_numerators():
    rng = random.Random(31)
    for form, order in ((FORM, ORDER), (FORM3, ORDER3)):
        for shape_x in SHAPES[:5]:
            for mag in MAGNITUDES:
                x = random_element(rng, form, *shape_x, mag, spread=2)
                q = random_element(rng, form, *rng.choice(SHAPES[:5]), mag, spread=2)
                if not q:
                    continue
                pairs = factor_pairs(rng, x, q)
                p = built(pairs)
                assert p == naive_mul(x, q)
                assert divide(pairs, q, order) == divide(p, q, order) == x
                assert rebuild_divide(p, q, order) == x
                # Left quotients: q r == sum y x is the right division of the
                # barred pairs, each reversed.
                barred = [(b.bar(), a.bar()) for a, b in factor_pairs(rng, q, x)]
                assert divide(barred, q.bar(), order).bar() == x


def test_pair_seeding_restarts_at_the_kernels_gcd(monkeypatch):
    # Two pairs whose coefficients sit on 4Z and on 2 + 4Z meet at every
    # exponent of x q: the seeding starts at step 4, the second pair meets
    # the first off its lattice, and the division starts over at step 2.
    results = []
    packed_sums = torus._packed_sums

    def spy(left, right, acc, width, step):
        results.append((step, packed_sums(left, right, acc, width, step)))
        return results[-1][1]

    monkeypatch.setattr(torus, "_packed_sums", spy)
    form, order = WIDE_FORMS[0]
    q = form.element({(0, 0): LaurentPoly({0: 1, 4: 2}), (-1, 0): LaurentPoly({4: 3})})
    x1 = form.element({(1, 1): LaurentPoly({0: 1, 8: -1}), (0, 1): LaurentPoly({4: 5})})
    x2 = form.element({(1, 1): LaurentPoly({2: 3, 6: 1}), (0, 1): LaurentPoly({-2: 1})})
    assert divide([(x1, q), (x2, q)], q, order) == x1 + x2 == rebuild_divide(
        naive_mul(x1 + x2, q), q, order
    )
    assert results[0][0] == results[1][0] == 4 and results[1][1] == 2
    assert {step for step, _ in results[2:]} == {2}


def test_pair_division_restarts_at_a_wider_digit(monkeypatch):
    # x = 10 (1 + X^(0,-1) + ... + X^(0,-19)) times q = 1 + X^(0,-1), passed
    # as pairs shaped like factor_pairs: the pair bound 10 + 10 + 20 fits one
    # byte, and each of the 20 eliminations adds 10 to the running bound, so
    # the division starts over at two bytes; the cap counts that attempt.
    calls = kernel_calls(monkeypatch)
    flat = SkewForm(((0, 0), (0, 0)))
    q1, q2 = flat.monomial((0, 0)), flat.monomial((0, -1))
    x1 = flat.element({(0, -k): 10 for k in range(0, 20, 2)})
    x2 = flat.element({(0, -k): 10 for k in range(1, 20, 2)})
    pairs = [(x1, q1), (x1, q2), (x2, q1 + q2)]
    assert torus._pair_bound(pairs) == 40
    cap = 20
    assert divide(pairs, q1 + q2, ORDER, cap) == x1 + x2
    widths = [width for _, width, _ in calls]
    assert widths[0] == 1 and widths[-1] == 2
    with pytest.raises(DivisionError, match=rf"^division exceeded {cap - 1} steps$"):
        divide(pairs, q1 + q2, ORDER, cap - 1)


def test_inexact_pair_numerators_fail_like_built_ones():
    rng = random.Random(33)
    outcomes = set()
    for _ in range(60):
        form, order = rng.choice(((FORM, ORDER), (FORM3, ORDER3)))
        mag = rng.choice(MAGNITUDES)
        pairs = [
            tuple(random_element(rng, form, rng.randint(0, 3), 3, mag) for _ in "xy")
            for _ in range(rng.randint(1, 3))
        ]
        q = random_element(rng, form, rng.randint(1, 3), rng.randint(1, 3), rng.choice([1, 3]))
        if not q:
            continue
        cap = rng.randint(1, 12)
        try:
            want = rebuild_divide(built(pairs), q, order, cap)
        except DivisionError as exc:
            with pytest.raises(DivisionError, match=f"^{exc}$"):
                divide(pairs, q, order, cap)
            with pytest.raises(DivisionError, match=f"^{exc}$"):
                divide(built(pairs), q, order, cap)
            outcomes.add(str(exc).split()[0])
        else:
            assert divide(pairs, q, order, cap) == want
            outcomes.add("divides")
    assert outcomes == {"divides", "division", "not"}


def test_pair_numerator_edge_cases():
    rng = random.Random(34)
    q = random_element(rng, FORM, 3, 4, 40)
    x = random_element(rng, FORM, 3, 4, 40)
    zero = FORM.zero()
    for pairs in ([], (), [(zero, x)], [(x, zero), (zero, zero)], [(x, q), (-x, q)]):
        assert divide(pairs, q, ORDER) == zero
    # A zero factor drops its pair before the digits are sized, so a partner
    # too wide for them is never packed.
    big = random_element(rng, FORM, 3, 4, 10**30)
    assert divide([(big, zero), (x, q), (zero, big)], q, ORDER) == x
    other = random_element(rng, FORM3, 2, 2, 3)
    for pairs in ([(x, other)], [(x, q), (other, other)]):
        with pytest.raises(ContextMismatch):
            divide(pairs, q, ORDER)
    with pytest.raises(ContextMismatch):
        divide(other, q, ORDER)


def test_packed_product_digits_follow_the_tighter_bound(monkeypatch):
    # Four terms of L1 norm 50 on each side: L1(x) L1(y) = 40000 needs
    # 4-byte digits, while the largest term of x times L1(y) = 10000 fits 2.
    widths = []
    packed = LaurentPoly.packed

    def spy(self, width, step=1):
        widths.append(width)
        return packed(self, width, step)

    monkeypatch.setattr(LaurentPoly, "packed", spy)
    rng = random.Random(35)

    def element():
        def coeff():
            return LaurentPoly({k: rng.choice((6, -6)) for k in range(8)} | {8: 2})

        return FORM.element({(i, rng.randint(-2, 2)): coeff() for i in range(4)})

    x, y = element(), element()
    assert [c.l1() for c in (*x.terms.values(), *y.terms.values())] == [50] * 8
    assert torus.digit_width(200 * 200) == 4
    assert x * y == naive_mul(x, y)
    assert set(widths) == {2}


def test_quasi_commutes():
    x2, x1 = mono((0, 1)), mono((1, 0))
    assert quasi_commutes(x2, x1, 1)
    assert quasi_commutes(x1, x1, 0)
    assert not quasi_commutes(x1, x2, 1)
    assert quasi_commutes(x1, x2, -1)


def summed(pairs):
    """``sum coeff * x`` built term by term with :meth:`TorusElement.scalar_mul`:
    the oracle of :func:`vanishes`."""
    return sum((x.scalar_mul(c) for x, c in pairs), FORM.zero())


# Integer, unit (+-v^k) and general Laurent coefficients.
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.builds(v, st.integers(-3, 3), st.sampled_from([1, -1])),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=3).map(LaurentPoly),
)
ELEMENTS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), min_size=1, max_size=3).map(
        LaurentPoly
    ),
    max_size=3,
).map(FORM.element)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(ELEMENTS, COEFFS), max_size=5))
def test_vanishes_matches_the_summed_oracle(pairs):
    total = summed(pairs)
    assert vanishes(pairs) == (total == 0)
    # Cancelling the sum leaves zero; cancelling it up to a factor v, which
    # agrees at v = 1, leaves zero only when the sum is zero.
    assert vanishes([*pairs, (total, -1)])
    assert vanishes([*pairs, (total, -v(1))]) == (total == 0)


def test_vanishes_fixed_cases():
    x = FORM.element({(1, -1): v(2) - 3, (0, 2): v(-1)})
    for c in (1, -2, v(3), v(-1, -1), v(1) + 2):
        assert vanishes([(x, c), (x, -c)])
        assert not vanishes([(x, c), (x, -v(1) * c)])
    assert vanishes([])
    assert vanishes([(x, 0), (FORM.zero(), v(1))])
    with pytest.raises(ContextMismatch):
        vanishes([(x, 1), (SkewForm(((0, 2), (-2, 0))).monomial((1, -1)), 1)])


def test_element_records_roundtrip():
    x = FORM.element({(1, -2): v(3) - 1, (0, 0): v(-1, 2)})
    assert x == x.__class__.from_records(FORM, x.to_records())


def test_unsupported_operands_are_type_errors():
    x = FORM.one()
    for other in (1.5, LaurentPoly.one(), "1", None):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other + x
        with pytest.raises(TypeError):
            x - other
        with pytest.raises(TypeError):
            other - x
    for other in (1.5, "1", None):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x
    # Integers and Laurent scalars still act.
    assert x + 1 == 1 + x == 2 and x - 1 == 0
    assert x * v(1) == v(1) * x == FORM.monomial((0, 0), v(1))
    # Another type compares unequal: the element defers, and so does str.
    assert x.__eq__("x") is NotImplemented
    assert (x == "x") is False and x != "x"


def test_int_minus_element():
    x = mono((1, 0), v(1)) + 2
    assert 1 - x == -(x - 1) == FORM.element({(1, 0): -v(1), (0, 0): -1})
    assert 3 - FORM.one() == 2 and 0 - FORM.zero() == 0


def test_scalar_mul_rejects_other_scalars():
    for c in (1.5, "1", None, FORM.one()):
        with pytest.raises(TypeError, match="^a torus scalar is an int or a LaurentPoly, not "):
            FORM.one().scalar_mul(c)


def test_constructors_reject_other_coefficients():
    # Kept unchanged, 2.5 and "1" would make terms that scalar_mul refuses.
    for c in (2.5, "1", None, FORM.one()):
        message = f"^a torus scalar is an int or a LaurentPoly, not {type(c).__name__}$"
        with pytest.raises(TypeError, match=message):
            FORM.monomial((1, 0), c)
        with pytest.raises(TypeError, match=message):
            FORM.element({(1, 0): 1, (0, 1): c})
    assert FORM.monomial((1, 0), 2).terms == {(1, 0): LaurentPoly.from_int(2)}
    assert FORM.element({(1, 0): v(1), (0, 1): 0}).terms == {(1, 0): v(1)}


def test_int_operand_is_its_constant_element():
    # +, - and == read an int k as k X^0, on either side.
    x = mono((1, 0), v(1))
    for k in (-2, 0, 3):
        kx = FORM.monomial((0, 0), k)
        assert x + k == k + x == x + kx
        assert x - k == x - kx and k - x == kx - x
        assert kx == k and k == kx and kx != k + 1
    assert x != 0 and x != 1


def test_constant_elements_hash_as_their_integers():
    zero_exp = (0, 0)
    for x, k in ((FORM.one(), 1), (FORM.zero(), 0), (FORM.monomial(zero_exp, -3), -3)):
        assert x == k and hash(x) == hash(k)
        assert len({x, k}) == 1
        assert {k: "a"}.get(x) == "a" and {x: "a"}.get(k) == "a"
    # A non-constant X^0 coefficient equals no integer; equal elements still
    # hash alike.
    x = FORM.monomial(zero_exp, v(1) + 2)
    y = FORM.element({zero_exp: 2 + v(1)})
    assert x == y and hash(x) == hash(y) and len({x, y, 2}) == 2
    # An element off X^0 hashes by its form and terms.
    assert hash(mono((1, 0)) + 1) == hash(1 + mono((1, 0)))
    assert len({mono((1, 0)), mono((0, 1)), FORM.one(), 1}) == 3


def test_negative_power_raises():
    x = mono((2, -1), v(3))
    # The inverse of a unit monomial is still one constructor call away.
    assert x * FORM.monomial((-2, 1), v(-3)) == FORM.one()
    for y in (x, mono((1, 0)) + 1):
        with pytest.raises(ValueError):
            y ** (-1)


def test_vec_add_sub_lengths():
    assert vec_add((1, -2, 3), (4, 5, -6)) == (5, 3, -3)
    assert vec_sub((1, -2, 3), (4, 5, -6)) == (-3, -7, 9)
    assert vec_add((), ()) == ()
    for a, b in [((1, 2), (1, 2, 3)), ((1, 2, 3), (1,)), ((), (0,))]:
        with pytest.raises(ValueError):
            vec_add(a, b)
        with pytest.raises(ValueError):
            vec_sub(a, b)
