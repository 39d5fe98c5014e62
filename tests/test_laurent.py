"""Ring arithmetic, involution, positive parts, Gaussian binomials."""

import pytest
from hypothesis import given, strategies as st

from qca.laurent import LaurentPoly, gaussian_binomial, parse_laurent

v = LaurentPoly.v_power


laurents = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(LaurentPoly)


def test_add_examples():
    assert v(1) + 1 + (-1) == v(1)
    assert (v(-2) - v(2)) + (v(2) - v(-2)) == LaurentPoly.zero()
    assert v(2) + v(2) == v(2, 2)


def test_mul_examples():
    assert (v(1) + v(-1)) * (v(1) - v(-1)) == v(2) - v(-2)
    f = v(3, 5) - v(-1) + 2
    assert f * LaurentPoly.one() == f
    assert (v(1) - 1) * (v(1) + 1) == v(2) - 1


def test_bar_examples():
    assert (v(2) + 1).bar() == v(-2) + 1
    d = 2
    assert (v(-d) - v(d)).bar() == -(v(-d) - v(d))
    f = v(5, 3) - v(-1)
    assert f.bar().bar() == f


def test_positive_part_examples():
    assert (v(-3) - v(3)).positive_part() == -v(3)
    assert LaurentPoly.from_int(5).positive_part() == LaurentPoly.zero()
    f = v(-4) - v(4)
    p = f.positive_part()
    assert p == -v(4)
    assert p - p.bar() == f


@given(laurents, laurents)
def test_bar_is_ring_involution(f, g):
    assert (f * g).bar() == f.bar() * g.bar()
    assert (f + g).bar() == f.bar() + g.bar()
    assert f.bar().bar() == f


@given(laurents, laurents, laurents)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(st.dictionaries(st.integers(min_value=1, max_value=8), st.integers(-9, 9), max_size=5))
def test_positive_part_solves_antisymmetric_equation(terms):
    p0 = LaurentPoly(terms)
    f = p0 - p0.bar()
    assert f + f.bar() == LaurentPoly.zero()
    p = f.positive_part()
    assert p.in_v_zv()
    assert p - p.bar() == f
    assert p == p0  # uniqueness among vZ[v] solutions


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1) == v(1) + 1
    assert gaussian_binomial(3, 2) == v(2) + v(1) + 1
    for r in range(6):
        assert gaussian_binomial(r, 0) == LaurentPoly.one()
    with pytest.raises(ValueError):
        gaussian_binomial(1, 2)


def test_gaussian_binomial_pascal_recurrence():
    # Independent oracle: [r, s] = [r-1, s-1] + t^s [r-1, s].
    for r in range(1, 8):
        for s in range(1, r + 1):
            lhs = gaussian_binomial(r, s)
            rhs = gaussian_binomial(r - 1, s - 1)
            if s <= r - 1:
                rhs = rhs + gaussian_binomial(r - 1, s).shifted(s)
            assert lhs == rhs


def test_substitute_power_examples():
    assert (v(1) + 1).substitute_power(4) == v(4) + 1
    assert LaurentPoly.one().substitute_power(-3) == LaurentPoly.one()
    assert (v(2) + v(1) + 1).substitute_power(2) == v(4) + v(2) + 1
    with pytest.raises(ValueError):
        (v(1) + 1).substitute_power(0)


def test_divide_exact():
    f = (v(3) - v(-2) + 1) * (v(1, 2) - v(-5))
    assert f.divide_exact(v(1, 2) - v(-5)) == v(3) - v(-2) + 1
    with pytest.raises(ValueError):
        (v(1) + 1).divide_exact(v(1) + 2)
    with pytest.raises(ZeroDivisionError):
        v(1).divide_exact(LaurentPoly.zero())


def test_constants_hash_as_their_integers():
    for c in (-3, 0, 1, 3, 2**70):
        p = LaurentPoly.from_int(c)
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c}
        assert {p: "x"}[c] == "x" and {c: "x"}[p] == "x"
    assert hash(LaurentPoly.zero()) == hash(0)
    assert 0 in {LaurentPoly.zero()}
    # Non-constants still hash by their terms.
    assert hash(v(1) + 3) == hash(LaurentPoly({0: 3, 1: 1}))
    assert len({v(1), v(1) + 0, v(-1), LaurentPoly.one(), 1}) == 3


def test_str_format():
    assert str(v(-2) + 2 - v(4, 3)) == "v^-2 + 2 - 3*v^4"
    assert str(LaurentPoly.zero()) == "0"
    assert str(-v(1)) == "-v"
    assert str(v(0, -7) + v(2, 2)) == "-7 + 2*v^2"


def test_parse_examples():
    assert parse_laurent("v^-2 + 2 - 3*v^4") == v(-2) + 2 - v(4, 3)
    assert parse_laurent("17") == LaurentPoly.from_int(17)
    assert parse_laurent("v") == v(1)
    assert parse_laurent("-v") == -v(1)
    assert parse_laurent("0") == LaurentPoly.zero()
    with pytest.raises(ValueError):
        parse_laurent("x^2")


@given(laurents)
def test_parse_roundtrip(f):
    assert parse_laurent(str(f)) == f


@given(laurents, st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_multiplication(f, k):
    expected = LaurentPoly.one()
    for _ in range(k):
        expected = expected * f
    assert f**k == expected
