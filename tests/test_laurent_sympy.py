"""Laurent products and the packed form, checked against sympy."""

import pytest
from hypothesis import given, strategies as st

from qca.laurent import LaurentPoly, digit_width, lattice_step

sympy = pytest.importorskip("sympy")

V = sympy.Symbol("v")

# Coefficients up to 10^30 reach digits wider than 8 bytes.
wide_laurents = st.dictionaries(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-(10**30), max_value=10**30),
    max_size=12,
).map(LaurentPoly)


def to_sympy(f):
    """``f`` as ``(lo, P)`` with ``f = v^lo * P(v)`` and ``P`` a sympy polynomial."""
    lo = f.min_exponent() if f else 0
    return lo, sympy.Poly.from_dict({(e - lo,): c for e, c in f.items()} or {(0,): 0}, V)


def sympy_product(f, g):
    (lo_f, p_f), (lo_g, p_g) = to_sympy(f), to_sympy(g)
    return {e + lo_f + lo_g: int(c) for (e,), c in (p_f * p_g).terms() if c}


@given(wide_laurents, wide_laurents)
def test_product_matches_sympy(f, g):
    assert dict((f * g).items()) == sympy_product(f, g)


@given(wide_laurents, wide_laurents)
def test_packed_form_matches_sympy(f, g):
    width = digit_width(max(f.l1() * g.l1(), f.l1(), g.l1()))
    (lo_f, n_f), (lo_g, n_g) = f.packed(width), g.packed(width)
    # The packed integer is the polynomial, shifted to start at v^0, at v = 2^k.
    for h, lo, n in ((f, lo_f, n_f), (g, lo_g, n_g)):
        assert to_sympy(h)[1].eval(2 ** (8 * width)) == n
        assert LaurentPoly.from_packed(lo, n, width) == h
    product = LaurentPoly.from_packed(lo_f + lo_g, n_f * n_g, width)
    assert dict(product.items()) == sympy_product(f, g)


@st.composite
def strided_laurents(draw, step):
    """A polynomial whose exponents all lie on ``lo + step*Z``."""
    lo = draw(st.integers(min_value=-12, max_value=12))
    slots = draw(
        st.dictionaries(
            st.integers(min_value=-8, max_value=8),
            st.integers(min_value=-(10**30), max_value=10**30),
            max_size=10,
        )
    )
    return LaurentPoly({lo + step * i: c for i, c in slots.items()})


strided_cases = st.integers(min_value=1, max_value=5).flatmap(
    lambda step: st.tuples(st.just(step), strided_laurents(step), strided_laurents(step))
)


@given(strided_cases)
def test_strided_packed_form_matches_sympy(case):
    step, f, g = case
    # The pair's own step is a multiple of the drawn one (or 1 with no gaps).
    assert lattice_step((f, g)) % step == 0 or max(len(f.items()), len(g.items())) < 2
    width = digit_width(max(f.l1() * g.l1(), f.l1(), g.l1()))
    (lo_f, n_f), (lo_g, n_g) = f.packed(width, step), g.packed(width, step)
    for h, lo, n in ((f, lo_f, n_f), (g, lo_g, n_g)):
        # With h = v^lo * P(v^step), the packed integer is P at 2^k: the
        # step - 1 zero digits between lattice points are left out.
        poly = sympy.Poly.from_dict({((e - lo) // step,): c for e, c in h.items()} or {(0,): 0}, V)
        assert poly.eval(2 ** (8 * width)) == n
        assert LaurentPoly.from_packed(lo, n, width, step) == h
    # A product of polynomials packed at one step decodes at that step.
    product = LaurentPoly.from_packed(lo_f + lo_g, n_f * n_g, width, step)
    assert dict(product.items()) == sympy_product(f, g)
