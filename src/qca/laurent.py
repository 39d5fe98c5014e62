"""Exact arithmetic in the ring of integer Laurent polynomials in ``v``.

A polynomial is stored sparsely as a map ``exponent -> coefficient`` with
all coefficients nonzero, so equal polynomials always have identical term
maps.  Coefficients are plain Python integers and therefore never overflow.

For long products the torus layer uses a packed form (Kronecker
substitution): a polynomial whose exponents all lie on the lattice
``lo + s*Z`` becomes the single integer ``sum c_i * 2^(k*(i - lo)/s)`` with
signed ``k``-bit digits, so one big-integer product multiplies two
polynomials.  The stride ``s`` drops the digits of exponents off the
lattice, which are zero, so a polynomial in ``v^4`` packs four times
shorter.  The digit width is a whole number of bytes chosen from an exact
bound on the digits, which makes the packed form decode back to exactly the
same terms.

The ring carries the involution ``v -> v^-1`` (:meth:`LaurentPoly.bar`),
which is the scalar part of the bar-involution used everywhere else in this
package; :meth:`LaurentPoly.is_bar_invariant` tests for its fixed points in
place.  The triangular row's rule :func:`bar_rule`, ``p = [bar(c) - c]_+``
with ``[f]_+`` the part of ``f`` at exponents ``>= 1``, gives the unique
``p`` in ``v*Z[v]`` with ``p - bar(p) = bar(c) - c``; it and the
expansion's :func:`cancel_rule`, ``p = -c``, settle a popped raw
coefficient map of the elimination sweep, zeros allowed, into
``(p, c + p)`` in one pass; they, unit shifts, exact division and the
in-place term-pair product (:meth:`LaurentPoly.mul_into`) have their one
implementation here.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import cache
from math import gcd

__all__ = [
    "LaurentPoly", "bar_rule", "cancel_rule", "digit_width", "gaussian_binomial", "json_int",
    "lattice_step", "parse_laurent",
]

_BYTEORDER = sys.byteorder
# Array and memoryview formats of native unsigned integers, by size in bytes.
_FORMATS = {array(t).itemsize: t for t in "QLIHB"}


def digit_width(bound: int) -> int:
    """Bytes per packed digit so that every digit of absolute value at most
    ``bound`` fits as a signed digit.  Widths up to 8 bytes are rounded up
    to a native integer size, which is read without slicing."""
    width = bound.bit_length() // 8 + 1
    if width > 8:
        return width
    return next(w for w in (1, 2, 4, 8) if w >= width)


def lattice_step(coeffs) -> int:
    """The gcd of the exponent gaps within each of the polynomials
    ``coeffs``: the largest ``s`` such that each of them packs on one lattice
    ``lo + s*Z``.  It is 1 when no polynomial has two terms."""
    step = 0
    for c in coeffs:
        terms = c._terms
        if len(terms) > 1:
            lo = min(terms)
            step = gcd(step, *[e - lo for e in terms])
            if step == 1:
                return 1
    return step or 1


def _bias(count: int, width: int) -> int:
    """``2^(k-1)`` in each of ``count`` digits of ``k = 8*width`` bits."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _wrap(terms: dict) -> "LaurentPoly":
    """The polynomial with this term map, which must hold no zero: the one
    constructor that skips the zero filter of ``LaurentPoly.__init__``."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = terms
    return out


class LaurentPoly:
    """A sparse integer Laurent polynomial in one formal variable."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """Build from an ``exponent -> coefficient`` mapping; zeros are dropped."""
        if terms is None:
            self._terms = {}
        else:
            self._terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def v_power(cls, e: int, coeff: int = 1) -> "LaurentPoly":
        """The monomial ``coeff * v^e``."""
        return cls({e: coeff})

    @classmethod
    def from_int(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return NotImplemented

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        self.mul_into(terms, other)
        return _wrap(terms)

    __rmul__ = __mul__

    def mul_into(self, acc: dict, other: "LaurentPoly") -> None:
        """Add ``self * other`` into ``acc``, a ``v-exponent -> integer`` map
        updated in place, one term pair at a time.  A sum that cancels is
        deleted, so the pairs leave no zero entry behind."""
        get = acc.get
        right = other._terms.items()
        for e1, c1 in self._terms.items():
            for e2, c2 in right:
                e = e1 + e2
                s = get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]

    def __eq__(self, other):
        # A polynomial operand, the common case, is compared with no coercion call.
        if type(other) is not LaurentPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A constant equals its integer, so it hashes as that integer.
        terms = self._terms
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- involution and parts ----------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The image under ``v -> v^-1`` (negates every exponent)."""
        return _wrap({-e: c for e, c in self._terms.items()})

    def shifted(self, k: int, sign: int = 1) -> "LaurentPoly":
        """Multiply by the unit ``sign * v^k``, ``sign = +-1``: an exponent
        shift, with the sign folded into each coefficient."""
        if sign == 1:
            if k == 0:
                return self
            terms = {e + k: c for e, c in self._terms.items()}
        else:
            terms = {e + k: -c for e, c in self._terms.items()}
        return _wrap(terms)

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Substitute the variable by its ``k``-th power (``k != 0``)."""
        if k == 0:
            raise ValueError("substitution power must be nonzero")
        return _wrap({e * k: c for e, c in self._terms.items()})

    # -- predicates and views ------------------------------------------------

    def is_bar_invariant(self) -> bool:
        """Whether ``bar(self) == self``: the term map is a palindrome, its
        coefficient at ``v^e`` equal to the one at ``v^-e``.  Builds nothing."""
        terms = self._terms
        get = terms.get
        for e, c in terms.items():
            if get(-e) != c:
                return False
        return True

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_unit(self) -> bool:
        """Units of the Laurent ring are exactly ``+-v^k``."""
        if len(self._terms) != 1:
            return False
        return abs(next(iter(self._terms.values()))) == 1

    def in_v_zv(self) -> bool:
        """Membership in ``v*Z[v]`` (every exponent >= 1)."""
        return all(e >= 1 for e in self._terms)

    def items(self):
        """Terms in canonical (exponent-sorted) order."""
        return sorted(self._terms.items())

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def l1(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(map(abs, self._terms.values()))

    # -- packed form -----------------------------------------------------------

    def packed(self, width: int, step: int = 1):
        """``(lo, n)`` with ``n = sum c_e * 2^(8*width*(e - lo)/step)``.

        Every exponent must lie on the lattice ``lo + step*Z`` (see
        :func:`lattice_step`) and every coefficient must have absolute value
        below ``2^(8*width - 1)`` (see :func:`digit_width`).  The zero
        polynomial packs to ``(0, 0)``.
        """
        terms = self._terms
        if not terms:
            return 0, 0
        lo, hi = min(terms), max(terms)
        half = 1 << (8 * width - 1)
        get = terms.get
        digits = [get(e, 0) + half for e in range(lo, hi + 1, step)]
        fmt = _FORMATS.get(width)
        if fmt is None:
            raw = b"".join(d.to_bytes(width, _BYTEORDER) for d in digits)
        else:
            raw = array(fmt, digits)
        return lo, int.from_bytes(raw, _BYTEORDER) - _bias(len(digits), width)

    @staticmethod
    def from_packed(lo: int, n: int, width: int, step: int = 1) -> "LaurentPoly":
        """Inverse of :meth:`packed`.

        Exact whenever every digit of ``n`` has absolute value below
        ``2^(8*width - 1)``; a sum or product of packed polynomials decodes
        to the sum or product as long as its coefficients meet that bound
        (a product of polynomials packed at one step has that step too).
        """
        k = 8 * width
        # A top digit at index t makes |n| > 2^(k*t - 1), so this many digits
        # always covers n.
        count = abs(n).bit_length() // k + 1
        raw = (n + _bias(count, width)).to_bytes(count * width, _BYTEORDER)
        fmt = _FORMATS.get(width)
        if fmt is None:
            digits = [
                int.from_bytes(raw[i : i + width], _BYTEORDER)
                for i in range(0, len(raw), width)
            ]
        else:
            digits = memoryview(raw).cast(fmt)
        half = 1 << (k - 1)
        return _wrap({lo + step * i: d - half for i, d in enumerate(digits) if d != half})

    # -- exact division ------------------------------------------------------

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient ``self / divisor``; raises ValueError if inexact.

        A unit divisor ``+-v^k`` is a shift by its inverse.  Otherwise both
        operands shift into ordinary polynomials and integer long division
        runs from the top degree down.
        """
        coerced = self._coerce(divisor)
        if coerced is NotImplemented:
            raise TypeError(f"cannot divide a LaurentPoly by {type(divisor).__name__}")
        divisor = coerced
        if not divisor:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if divisor.is_unit():
            ((k, sign),) = divisor._terms.items()
            return self.shifted(-k, sign)
        if not self:
            return LaurentPoly.zero()
        # Shift both operands so they become ordinary polynomials; divisibility
        # in the Laurent ring only ever differs from the polynomial ring by a
        # unit, and the shift makes the division terminate.
        num_shift = self.min_exponent()
        den_shift = divisor.min_exponent()
        num = {e - num_shift: c for e, c in self._terms.items()}
        den = {e - den_shift: c for e, c in divisor._terms.items()}
        den_top = max(den)
        den_lead = den[den_top]
        quot: dict = {}
        while num:
            top = max(num)
            if top < den_top:
                raise ValueError("not divisible in Z[v, v^-1]")
            c, r = divmod(num[top], den_lead)
            if r != 0:
                raise ValueError("not divisible in Z[v, v^-1]")
            e = top - den_top
            quot[e] = c
            for de, dc in den.items():
                ne = de + e
                s = num.get(ne, 0) - dc * c
                if s:
                    num[ne] = s
                else:
                    num.pop(ne, None)
        return LaurentPoly({e + num_shift - den_shift: c for e, c in quot.items()})

    # -- text form -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if i == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?:(?P<coeff>\d+)\*?)?(?P<var>v(?:\^(?P<exp>[+-]?\d+))?)?$"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the textual form produced by :meth:`LaurentPoly.__str__`.

    Accepts terms ``c*v^e`` joined by `` + `` / `` - ``, plus bare integers
    and a bare ``v``.  Anything else, the empty string included, raises
    ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"a Laurent polynomial is text, not {type(text).__name__}")
    s = text.strip()
    if not s:
        raise ValueError("empty Laurent polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    # Fold the joining "+"/"-" into a sign on each chunk.
    s = s.replace(" - ", " -").replace(" + ", " ")
    terms: dict = {}
    for chunk in s.split(" "):
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse Laurent term {chunk!r} in {text!r}")
        c = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if m.group("sign") == "-":
            c = -c
        e = 0
        if m.group("var") is not None:
            e = int(m.group("exp")) if m.group("exp") is not None else 1
        s_new = terms.get(e, 0) + c
        if s_new:
            terms[e] = s_new
        else:
            terms.pop(e, None)
    return LaurentPoly(terms)


def bar_rule(raw: dict):
    """The triangular row's rule ``p = [bar(c) - c]_+``: ``p[e] = c[-e] - c[e]``
    for ``e >= 1``, so ``c + p`` is the part of ``c`` at exponents ``<= 0``,
    mirrored onto ``> 0``, and ``p = -c`` where ``c`` has no such part."""
    p = {e: -x for e, x in raw.items() if e > 0 and x}
    low = [(e, x) for e, x in raw.items() if e <= 0 and x]
    settled = dict(low)
    for e, x in low:
        if e:
            settled[-e] = x
            d = p.pop(-e, 0) + x
            if d:
                p[-e] = d
    return _wrap(p), _wrap(settled)


def cancel_rule(raw: dict):
    """The expansion's rule ``p = -c``, which settles every coefficient at 0."""
    return _wrap({e: -x for e, x in raw.items() if x}), LaurentPoly()


def json_int(x) -> int:
    """``x`` if it is an integer, as every number of the package's JSON files
    and torus constructors must be; a float, a boolean, a string or anything
    else raises ValueError, so that no reader truncates or converts a value."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


@cache
def gaussian_binomial(r: int, s: int) -> LaurentPoly:
    """The Gaussian binomial coefficient of ``r`` over ``s`` as a polynomial.

    Computed from the defining ratio of products of ``t^i - 1`` factors by
    exact division (the division is checked to leave no remainder), once per
    ``(r, s)``: later calls return the same object.  Sharing it is safe
    because no caller mutates a :class:`LaurentPoly`.  The result is an
    ordinary polynomial in the formal variable; substitute a power of ``v``
    as needed via :meth:`LaurentPoly.substitute_power`.
    """
    if r < 0 or s < 0 or r < s:
        raise ValueError(f"gaussian binomial needs r >= s >= 0, got ({r}, {s})")
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for i in range(s):
        num = num * (LaurentPoly.v_power(r - i) - 1)
        den = den * (LaurentPoly.v_power(s - i) - 1)
    return num.divide_exact(den)
