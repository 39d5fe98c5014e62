"""Ring arithmetic, involution, positive parts, Gaussian binomials."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qca.laurent import LaurentPoly, bar_rule, gaussian_binomial, parse_laurent

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
    # bar_rule(c) gives p = [bar(c) - c]_+ and the settled c + p.
    assert bar_rule({3: 1}) == (-v(3), LaurentPoly.zero())
    assert bar_rule({0: 5}) == (LaurentPoly.zero(), LaurentPoly.from_int(5))
    c = v(-2, 3) + v(2)
    p, settled = bar_rule({-2: 3, 2: 1})
    assert p == v(2, 2) and settled == v(-2, 3) + v(2, 3)
    assert p - p.bar() == c.bar() - c


@given(laurents, laurents)
def test_bar_is_ring_involution(f, g):
    assert (f * g).bar() == f.bar() * g.bar()
    assert (f + g).bar() == f.bar() + g.bar()
    assert f.bar().bar() == f


# Coefficients on both sides of bar-invariance: palindromes (a constant plus
# sums c (v^e + v^-e)), constants, the zero polynomial, maps on one side of
# v^0, and palindromes with one monomial added.
palindromes = st.dictionaries(st.integers(0, 8), st.integers(-50, 50), max_size=4).map(
    lambda t: LaurentPoly({s * e: c for e, c in t.items() for s in (1, -1)})
)
one_sided = st.builds(
    lambda t, s: LaurentPoly({s * e: c for e, c in t.items()}),
    st.dictionaries(st.integers(1, 8), st.integers(-50, 50), min_size=1, max_size=4),
    st.sampled_from((1, -1)),
)
bar_cases = st.one_of(
    laurents,
    palindromes,
    st.integers(-50, 50).map(LaurentPoly.from_int),
    st.just(LaurentPoly.zero()),
    one_sided,
    st.builds(lambda p, e, c: p + v(e, c), palindromes, st.integers(-8, 8), st.integers(-3, 3)),
)


def test_is_bar_invariant_examples():
    assert LaurentPoly.zero().is_bar_invariant()
    assert LaurentPoly.from_int(-7).is_bar_invariant()
    assert (v(3, 2) + 5 + v(-3, 2)).is_bar_invariant()
    assert not v(1).is_bar_invariant()
    assert not (v(2) + v(-2, 3)).is_bar_invariant()
    assert not (v(2) + v(-2) + v(-4)).is_bar_invariant()


@given(bar_cases)
def test_is_bar_invariant_is_bar_equality(f):
    assert f.is_bar_invariant() == (f.bar() == f)


@given(bar_cases, bar_cases)
def test_equality_is_term_equality(f, g):
    assert (f == g) == (f.items() == g.items()) == (not f != g)


@given(bar_cases, st.integers(-50, 50))
def test_equality_with_an_int_is_a_constant(f, k):
    constant = f.items() == ([(0, k)] if k else [])
    assert (f == k) == (k == f) == constant
    assert (f != k) == (k != f) == (not constant)
    if constant:
        assert hash(f) == hash(k)


def test_equality_with_other_types():
    p = LaurentPoly.from_int(3)
    assert p == 3 and 3 == p and p != 4 and 4 != p
    assert hash(p) == hash(3) and hash(LaurentPoly.zero()) == hash(0)
    assert LaurentPoly.zero() == 0 and 0 == LaurentPoly.zero()
    assert (v(1) == "v") is False and ("v" == v(1)) is False
    assert v(1) != "v" and (p == 3.0) is False and (p == [3]) is False
    assert len({p, 3}) == 1


@given(laurents, laurents, laurents)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(st.dictionaries(st.integers(min_value=1, max_value=8), st.integers(-9, 9), max_size=5))
def test_positive_part_solves_antisymmetric_equation(terms):
    # bar_rule at c = bar(p0) solves p - bar(p) = bar(c) - c = p0 - bar(p0)
    # in vZ[v], and the solution there is unique: it returns p0 itself.
    p0 = LaurentPoly(terms)
    c = p0.bar()
    p, settled = bar_rule(dict(c.items()))
    assert p.in_v_zv()
    assert p - p.bar() == c.bar() - c
    assert p == p0
    assert settled == c + p and settled.bar() == settled


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


def test_gaussian_binomial_divides_once_per_pair(monkeypatch):
    gaussian_binomial.cache_clear()
    divisions = []
    divide_exact = LaurentPoly.divide_exact

    def spy(self, other):
        divisions.append(other)
        return divide_exact(self, other)

    monkeypatch.setattr(LaurentPoly, "divide_exact", spy)
    first = gaussian_binomial(6, 3)
    assert len(divisions) == 1
    # A second call returns the same polynomial and divides nothing.
    assert gaussian_binomial(6, 3) is first and len(divisions) == 1
    assert first == parse_laurent("1 + v + 2*v^2 + 3*v^3 + 3*v^4 + 3*v^5 + 3*v^6 + 2*v^7 + v^8 + v^9")


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
    # Zero over a divisor that is no unit is zero.
    assert LaurentPoly.zero().divide_exact(v(1) + 2) == 0


def test_divide_exact_by_an_unsupported_operand_is_a_type_error():
    for divisor in (1.5, "v", None):
        with pytest.raises(TypeError, match="cannot divide a LaurentPoly by"):
            LaurentPoly.one().divide_exact(divisor)


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
    assert parse_laurent("v - v") == 0
    assert parse_laurent("1  + v") == 1 + v(1)
    with pytest.raises(ValueError):
        parse_laurent("x^2")


@given(laurents)
def test_parse_roundtrip(f):
    assert parse_laurent(str(f)) == f


def pair_sum(f, g):
    """``f * g`` summed one term pair at a time: the oracle of ``mul_into``."""
    out = LaurentPoly.zero()
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out = out + v(e1 + e2, c1 * c2)
    return out


@given(laurents, st.integers(min_value=-8, max_value=8))
def test_shift_by_minus_a_power_negates_the_shift(c, k):
    assert c.shifted(k, -1) == -c.shifted(k)


@given(laurents, st.integers(min_value=-8, max_value=8), st.sampled_from((1, -1)))
def test_divide_exact_by_a_unit_is_a_shift(c, k, sign):
    u = v(k, sign)
    assert c.divide_exact(u) == c.shifted(-k, sign)
    assert (c * u).divide_exact(u) == c


@given(laurents, laurents, laurents, laurents)
def test_mul_into_adds_products_in_place(f, g, h, k):
    # The map starts at h - f*g, so the pairs of f*g cancel every entry of
    # it that h lacks; a cancelled entry must be gone, not left at zero.
    acc = dict((h - pair_sum(f, g))._terms)
    f.mul_into(acc, g)
    g.mul_into(acc, k)
    assert acc == (h + pair_sum(g, k))._terms


# Outside ``qca.laurent``, the functions that may read a polynomial's term
# map, each with its reason; every other coefficient rule is a LaurentPoly
# method.
TERM_MAP_READERS = {
    "ebasis.py": {"EBasis.sweep": "measured inner loop: the accumulation of p * E(a)"},
    "torus.py": {
        "TorusElement.__mul__": "measured inner loop: the dict product and its pack test",
        "TorusElement.scalar_mul": "unpacks a unit scalar +-v^k",
        "TorusElement._shift_by_unit": "unpacks a unit coefficient +-v^k",
        "vanishes": "measured inner loop: the monomial branch, and its unpacked monomial",
    },
}


def term_map_readers(tree) -> set:
    """Qualified names of the functions that read an attribute ``_terms``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Attribute) and child.attr == "_terms":
                found.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_listed_functions_read_the_term_map():
    sources = Path(__file__).parent.parent / "src" / "qca"
    found = {}
    for path in sorted(sources.glob("*.py")):
        if path.name != "laurent.py":
            readers = term_map_readers(ast.parse(path.read_text(encoding="utf-8")))
            if readers:
                found[path.name] = readers
    assert found == {name: set(allowed) for name, allowed in TERM_MAP_READERS.items()}


def bar_comparisons(tree) -> set:
    """Qualified names of the functions that compare a ``.bar()`` result with
    ``==`` or ``!=``."""
    found = set()

    def is_bar(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "bar"
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif (
                isinstance(child, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in child.ops)
                and any(map(is_bar, (child.left, *child.comparators)))
            ):
                found.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def test_no_function_compares_a_barred_copy():
    # ``is_bar_invariant`` is the one test of bar-invariance; ``bar()`` stays
    # for the rows and products that need the barred element itself.
    sources = Path(__file__).parent.parent / "src" / "qca"
    found = {}
    for path in sorted(sources.glob("*.py")):
        comparisons = bar_comparisons(ast.parse(path.read_text(encoding="utf-8")))
        if comparisons:
            found[path.name] = comparisons
    assert found == {}


def test_bar_comparisons_finds_each_form():
    tree = ast.parse(
        "class A:\n"
        "    def f(self, x):\n"
        "        return x.bar() == x\n"
        "    def g(self, x):\n"
        "        return x != x.bar()\n"
        "    def h(self, x):\n"
        "        return x.bar().bar() is x or x.bar() < x\n"
        "def k(x):\n"
        "    y = x.bar()\n"
        "    return x.is_bar_invariant() and y * x == x\n"
        "z = 0 == w.bar()\n"
    )
    assert bar_comparisons(tree) == {"A.f", "A.g", "<module>"}


def test_only_wrap_builds_a_polynomial_without_init():
    """``laurent._wrap`` is the one function that calls ``LaurentPoly.__new__``
    (or ``cls.__new__``); every other constructor goes through it or
    ``__init__``."""
    sources = Path(__file__).parent.parent / "src" / "qca"
    found = set()

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "__new__"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id in ("LaurentPoly", "cls")
            ):
                found.add(".".join((module, *scope)))
            visit(child, inner, module)

    for path in sorted(sources.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path.stem)
    assert found == {"laurent._wrap"}
