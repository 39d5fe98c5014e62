"""The based quantum torus: lattice vectors, skew forms, twisted products.

A torus element is a finite ``Z^m``-indexed family of Laurent coefficients;
monomials multiply by ``X^e * X^f = v^L(e,f) * X^{e+f}`` for a fixed
skew-symmetric integer form ``L``.  The module also provides the
bar-involution (an anti-automorphism fixing every ``X^e``), weight-based
term orders with lexicographic tiebreak, and exact right division by greedy
leading-term elimination.  Coefficient rules (unit shifts, exact division,
term-pair products) are :class:`LaurentPoly` methods; the only term-map
reads here are the unpacking of a unit and measured inner loops.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd
from operator import add, mul, neg, sub

from .laurent import LaurentPoly, digit_width, json_int, lattice_step, parse_laurent

__all__ = [
    "SkewForm",
    "TorusElement",
    "WeightOrder",
    "ContextMismatch",
    "DivisionError",
    "plus_part",
    "vec_add",
    "vec_sub",
    "vec_neg",
    "vec_scale",
    "vec_restrict",
    "basis_vector",
    "divide",
    "quasi_commutes",
    "vanishes",
]


# ---------------------------------------------------------------------------
# Lattice vectors are plain integer tuples.


def plus_part(a):
    """Componentwise ``max(., 0)``."""
    return tuple(x if x > 0 else 0 for x in a)


def vec_add(a, b):
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} != {len(b)}")
    return tuple(map(add, a, b))


def vec_sub(a, b):
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} != {len(b)}")
    return tuple(map(sub, a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(k: int, a):
    return tuple(k * x for x in a)


def vec_restrict(a, keep):
    """Zero out every component whose index fails the predicate ``keep``."""
    return tuple(x if keep(i) else 0 for i, x in enumerate(a))


def basis_vector(m: int, i: int):
    return tuple(1 if j == i else 0 for j in range(m))


# A product runs in packed form when it has at least this many torus term
# pairs and its coefficients average at least this many Laurent term pairs
# per torus pair.  Measured on a 2-core x86-64 machine with 20-64 torus
# pairs: packed products run at 0.6-0.7x the dict loop's speed at 4 Laurent
# pairs per torus pair, 0.8-0.95x at 16, 1.2-1.6x at 64 and 2-6x at 676;
# on the affine worked case a threshold of 16 is as fast as 32, and 64 is
# slower.
_PACK_MIN_PAIRS = 16


def _packed_sums(left, right, acc, width: int, step: int):
    """Add the packed product of every term pair into ``acc``, the one packed
    accumulation of the module: the product's and the division's.

    ``left`` holds ``(e, lo, n)`` and ``right`` holds ``(f, L . f, lo, n)``,
    each ``n`` a coefficient packed with ``width``-byte digits at exponent
    step ``step`` from ``v^lo`` up; the pair adds ``n_e * n_f``, from
    ``v^(lo_e + lo_f + L(e, f))`` up, to ``acc[e + f] = [lo_acc, n_acc]``.
    Returns the exponents that entered ``acc``; or, when a pair meets its
    entry on a lattice offset by a non-multiple of ``step``, the gcd of the
    step and the offset, an int to start over at, leaving ``acc`` part-filled.
    """
    k = 8 * width
    new = []
    for f, lf, lo_f, n_f in right:
        for e, lo_e, n_e in left:
            lo = lo_e + lo_f + sum(map(mul, e, lf))
            g = tuple(map(add, e, f))
            a = acc.get(g)
            if a is None:
                acc[g] = [lo, n_e * n_f]
                new.append(g)
            elif (lo - a[0]) % step:
                return gcd(step, lo - a[0])
            elif lo >= a[0]:
                a[1] += (n_e * n_f) << (k * ((lo - a[0]) // step))
            else:
                a[1] = (a[1] << (k * ((a[0] - lo) // step))) + n_e * n_f
                a[0] = lo
    return new


def _pair_bound(pairs) -> int:
    """The exact bound on each coefficient's L1 norm in ``sum x * y`` over
    pairs of nonzero elements, which sizes every packed accumulation's
    digits: at one exponent each term of a factor meets at most one of the
    other, so a pair adds ``min(max_e L1(x_e) sum_f L1(y_f), sum_e L1(x_e) max_f L1(y_f))``."""
    norms = [[[c.l1() for c in x.terms.values()] for x in pair] for pair in pairs]
    return sum(min(max(lx) * sum(ly), sum(lx) * max(ly)) for lx, ly in norms)


def _packed_pairs(pairs, width: int, step: int, lvec):
    """``(acc, step)``: a fresh :func:`_packed_sums` accumulator holding
    ``sum x * y`` over the ``(x, y)`` element pairs, packed at ``width`` and
    at ``step``, or at the smaller step the kernel returns when two term
    pairs meet off one lattice, from which the seeding starts over."""
    while True:
        acc: dict = {}  # exponent -> [v-exponent of digit 0, packed sum]
        for x, y in pairs:
            left = [(e, *c.packed(width, step)) for e, c in x.terms.items()]
            right = [(f, lvec(f), *c.packed(width, step)) for f, c in y.terms.items()]
            new = _packed_sums(left, right, acc, width, step)
            if isinstance(new, int):
                step = new
                break
        else:
            return acc, step


class ContextMismatch(ValueError):
    """Raised when torus elements from different contexts are combined."""


class DivisionError(ValueError):
    """Raised when exact torus division fails or exceeds its step cap."""


class SkewForm:
    """A skew-symmetric m x m integer bilinear form; the torus context.

    Every twist in the package goes through :meth:`lvec`, which memoizes
    ``L . f`` per form object; ``L(e, f)`` is then one dot product.
    """

    __slots__ = ("m", "rows", "_lvec")

    def __init__(self, rows):
        rows = tuple(tuple(map(json_int, row)) for row in rows)
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError("skew form matrix must be square")
        for i in range(m):
            for j in range(m):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError(f"matrix is not skew-symmetric at ({i}, {j})")
        self.m = m
        self.rows = rows
        self._lvec = {}  # exponent tuple -> L . f

    def lvec(self, f):
        """``L . f`` as a tuple, so that ``L(e, f) = e . lvec(f)``; ``f`` is a
        tuple of length ``m``.  Memoized on this form, keyed by ``f``."""
        lf = self._lvec.get(f)
        if lf is None:
            if len(f) != self.m:
                raise ValueError(f"exponent length {len(f)} != m = {self.m}")
            lf = self._lvec[f] = tuple(sum(map(mul, row, f)) for row in self.rows)
        return lf

    def skew(self, e, f) -> int:
        """Evaluate the form on two lattice vectors."""
        return sum(map(mul, e, self.lvec(f)))

    def chain_twist(self, vectors) -> int:
        """``sum_{i<j} L(u_i, u_j)``: the power of ``v`` in the ordered
        product ``X^u_1 * ... * X^u_k`` of unit-coefficient monomials."""
        total = 0
        acc = (0,) * self.m
        for u in vectors:
            total += self.skew(acc, u)
            acc = vec_add(acc, u)
        return total

    def __eq__(self, other):
        return isinstance(other, SkewForm) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SkewForm(m={self.m})"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "TorusElement":
        return TorusElement(self, {})

    def one(self) -> "TorusElement":
        return self.monomial((0,) * self.m)

    def monomial(self, e, coeff=1) -> "TorusElement":
        e = tuple(map(json_int, e))
        if len(e) != self.m:
            raise ValueError(f"exponent length {len(e)} != m = {self.m}")
        coeff = _scalar(coeff)
        return TorusElement(self, {e: coeff} if coeff else {})

    def generator(self, i: int) -> "TorusElement":
        """The basis monomial at the ``i``-th (0-based) standard vector."""
        return self.monomial(basis_vector(self.m, i))

    def element(self, terms) -> "TorusElement":
        out = {}
        for e, c in terms.items():
            c = _scalar(c)
            if c:
                out[tuple(e)] = c
        return TorusElement(self, out)


def _scalar(c) -> LaurentPoly:
    """A torus coefficient as a :class:`LaurentPoly`: an int is a constant,
    and anything but an int or a LaurentPoly raises TypeError."""
    if isinstance(c, int):
        return LaurentPoly.from_int(c)
    if not isinstance(c, LaurentPoly):
        raise TypeError(f"a torus scalar is an int or a LaurentPoly, not {type(c).__name__}")
    return c


class TorusElement:
    """A finite Laurent combination of torus basis monomials ``X^e``."""

    __slots__ = ("form", "terms")

    def __init__(self, form: SkewForm, terms):
        self.form = form
        self.terms = terms  # dict exponent-tuple -> nonzero LaurentPoly

    def _check(self, other: "TorusElement"):
        if self.form != other.form:
            raise ContextMismatch("torus elements live in different contexts")

    def _coerce(self, other):
        """``other`` as an element of this torus, an int ``k`` as ``k X^0``;
        None for an operand of any other type."""
        if isinstance(other, TorusElement):
            return other
        if isinstance(other, int):
            return self.form.monomial((0,) * self.form.m, other)
        return None

    # -- module structure ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return TorusElement(self.form, terms)

    __radd__ = __add__

    def __neg__(self):
        return TorusElement(self.form, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-other) if isinstance(other, (TorusElement, int)) else NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scalar_mul(self, c) -> "TorusElement":
        """Multiply by a Laurent (or integer) scalar."""
        c = _scalar(c)
        if not c:
            return TorusElement(self.form, {})
        if c.is_unit():  # +-v^k: an exponent shift
            ((k, sign),) = c._terms.items()
            terms = {e: x.shifted(k, sign) for e, x in self.terms.items()}
            return TorusElement(self.form, terms)
        return TorusElement(self.form, {e: x * c for e, x in self.terms.items()})

    # -- twisted multiplication -------------------------------------------------

    def __mul__(self, other):
        # The torus product is tested first: it is the hot path.
        if not isinstance(other, TorusElement):
            if isinstance(other, (int, LaurentPoly)):
                return self.scalar_mul(other)
            return NotImplemented
        self._check(other)
        # A unit monomial +-v^k X^u on either side only shifts exponents.
        if len(other.terms) == 1:
            ((u, c),) = other.terms.items()
            if c.is_unit():
                return self._shift_by_unit(u, c, 1)
        if len(self.terms) == 1:
            ((u, c),) = self.terms.items()
            if c.is_unit():
                return other._shift_by_unit(u, c, -1)
        pairs = len(self.terms) * len(other.terms)
        if pairs >= _PACK_MIN_PAIRS:
            laurent_pairs = sum(len(c._terms) for c in self.terms.values()) * sum(
                len(c._terms) for c in other.terms.values()
            )
            if laurent_pairs >= _PACK_MIN_PAIRS * pairs:
                return self._packed_mul(other)
        lvec = self.form.lvec
        acc: dict = {}  # exponent -> {v-exponent: integer coefficient}
        # Inline, not mul_into: a call per torus term pair cost rank3_deep 6% CPU (2-core Xeon).
        for f, cf in other.terms.items():
            lf = lvec(f)
            right = cf._terms.items()
            for e, ce in self.terms.items():
                twist = sum(map(mul, e, lf))
                g = tuple(map(add, e, f))
                out = acc.get(g)
                if out is None:
                    out = acc[g] = {}
                get = out.get
                for e1, c1 in ce._terms.items():
                    s1 = e1 + twist
                    for e2, c2 in right:
                        k = s1 + e2
                        out[k] = get(k, 0) + c1 * c2
        terms = {}
        for g, out in acc.items():
            c = LaurentPoly(out)
            if c:
                terms[g] = c
        return TorusElement(self.form, terms)

    def _shift_by_unit(self, u, unit, side):
        """This element times the unit monomial ``unit * X^u``, on the right
        for ``side = 1`` and on the left for ``side = -1``: each term ``X^e``
        moves to ``X^(e+u)`` and its coefficient is shifted by ``v^k`` and
        the twist ``side * L(e, u)``, and negated when ``unit = -v^k``."""
        ((k, sign),) = unit._terms.items()
        lu = self.form.lvec(u)
        terms = {}
        for e, ce in self.terms.items():
            twist = side * sum(map(mul, e, lu))
            terms[tuple(map(add, e, u))] = ce.shifted(k + twist, sign)
        return TorusElement(self.form, terms)

    def _packed_mul(self, other):
        """The product with every coefficient in packed form: the one pair
        ``(self, other)`` through :func:`_packed_pairs` at the width of
        :func:`_pair_bound`, each output coefficient decoded once.

        Coefficients pack at the step of :func:`lattice_step` over both
        operands, so each term pair's product lies on one lattice.  When the
        kernel reports two pairs meeting off one lattice, the product starts
        over at the smaller step it returns.
        """
        pairs = ((self, other),)
        step = lattice_step(chain(self.terms.values(), other.terms.values()))
        width = digit_width(_pair_bound(pairs))
        acc, step = _packed_pairs(pairs, width, step, self.form.lvec)
        terms = {
            g: LaurentPoly.from_packed(lo, n, width, step) for g, (lo, n) in acc.items() if n
        }
        return TorusElement(self.form, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scalar_mul(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = self.form.one()
        for _ in range(k):
            result = result * self
        return result

    # -- involution --------------------------------------------------------------

    def bar(self) -> "TorusElement":
        """Bar-involution: fixes every ``X^e`` and sends ``v -> v^-1``."""
        return TorusElement(self.form, {e: c.bar() for e, c in self.terms.items()})

    def is_bar_invariant(self) -> bool:
        """Whether ``bar(self) == self``: every coefficient is bar-invariant,
        as bar fixes every ``X^e``.  Builds no barred copy."""
        return all(map(LaurentPoly.is_bar_invariant, self.terms.values()))

    # -- structure views -----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.form == other.form and self.terms == other.terms

    def __hash__(self):
        # An element at X^0 alone equals the integer k when its coefficient
        # is k, so it hashes as that coefficient, which hashes as k.
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1:
            ((e, c),) = terms.items()
            if not any(e):
                return hash(c)
        return hash((self.form, frozenset(terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def leading_term(self, order: "WeightOrder"):
        """The ``(exponent, coefficient)`` pair that leads in the order."""
        if not self.terms:
            raise ValueError("zero element has no leading term")
        e = min(self.terms, key=order.descending_key)
        return e, self.terms[e]

    # -- text and records ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "X^(" + ",".join(str(x) for x in e) + ")"
            items = c.items()
            if len(items) == 1:
                (ce, cc) = items[0]
                if (ce, cc) == (0, 1):
                    parts.append(mono)
                    continue
                if (ce, cc) == (0, -1):
                    parts.append(f"-{mono}")
                    continue
                parts.append(f"{c}*{mono}")
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TorusElement({self})"

    def to_records(self):
        """Serializable list of ``{exp, coeff}`` records, sorted by exponent."""
        return [
            {"exp": list(e), "coeff": str(self.terms[e])} for e in sorted(self.terms)
        ]

    @classmethod
    def from_records(cls, form: SkewForm, records) -> "TorusElement":
        """Inverse of :meth:`to_records`; malformed records raise ValueError."""
        terms = {}
        try:
            for rec in records:
                e = tuple(map(json_int, rec["exp"]))
                if len(e) != form.m:
                    raise ValueError("exponent length does not match context")
                c = parse_laurent(rec["coeff"])
                if c:
                    terms[e] = terms.get(e, LaurentPoly.zero()) + c
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed torus element records: {exc!r}") from exc
        return cls(form, {e: c for e, c in terms.items() if c})


class WeightOrder:
    """Total order on exponents: weight functional first, then lex, stated
    once, by :meth:`descending_key`."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = tuple(map(json_int, weights))

    def descending_key(self, e):
        """A key whose ascending order is this order reversed: the leading
        exponent has the least key (``leading_term``, the division's heap)."""
        return (-sum(map(mul, self.weights, e)), tuple(map(neg, e)))

    def __repr__(self):
        return f"WeightOrder({self.weights})"


def divide(p, q: TorusElement, order: WeightOrder, cap: int = 10**6) -> TorusElement:
    """Exact right torus quotient: returns ``r`` with ``r * q == p``.

    ``p`` is a :class:`TorusElement` or a sequence of ``(x, y)`` element
    pairs meaning ``sum x * y``, which is never built: :func:`_packed_pairs`
    seeds the packed remainder with it.  An element is the one pair
    ``(p, X^0)``, seeded the same way.

    Since bar is an anti-automorphism, the left quotient ``r`` with
    ``q * r == p`` is ``bar(divide(bar(p), bar(q), order))``.  Works by
    cancelling the order-leading term of the running remainder against the
    leading term of ``q``; each step solves the one-monomial equation
    exactly, so the quotient is exact whenever division is possible.  Raises
    :class:`DivisionError` after ``cap`` steps or on a coefficient that does
    not divide, and :class:`ContextMismatch` for an operand of another form.

    The remainder is kept in packed form, with its exponents on a heap: each
    elimination adds ``-t X^g * q`` below the popped exponent through
    :func:`_packed_sums`, so a popped exponent never reappears, and only the
    popped coefficient is decoded.  Coefficients pack at the step of
    :func:`lattice_step` over the pairs and ``q``, which every quotient
    coefficient's gaps are multiples of too.  One running bound covers the
    L1 norm of every remainder coefficient: the numerator's
    :func:`_pair_bound`, plus, per elimination, ``L1(t)`` times the largest
    over the rest of ``q``, since an elimination reaches each exponent at
    most once.  When the bound would reach the digit capacity, or the kernel
    reports a contribution off its target's lattice (in the seeding too),
    the division starts over, at double width or at the kernel's smaller
    step, as the product does; ``cap`` counts the eliminations of the final
    attempt, and ``t`` is packed only after the bound check, and not at all
    for a monomial ``q``.
    """
    if not q:
        raise ZeroDivisionError("division by zero torus element")
    pairs = ((p, q.form.one()),) if isinstance(p, TorusElement) else tuple(p)
    for x in chain.from_iterable(pairs):
        q._check(x)
    pairs = [pair for pair in pairs if all(pair)]  # a zero's partner may not fit the digits
    lvec = q.form.lvec
    gq, cq = q.leading_term(order)
    lead = lvec(gq)
    # The terms of q below its leading term, with their twist vectors
    # (``X^g * X^h = v^(g . lvec(h)) X^(g+h)``); q's leading term cancels by
    # construction.
    rest = [(h, lvec(h), c) for h, c in q.terms.items() if h != gq]
    l1_rest = max((c.l1() for *_, c in rest), default=0)
    l1_p = _pair_bound(pairs)
    width = digit_width(max(l1_p, *(c.l1() for c in q.terms.values())))
    factors = chain.from_iterable(pairs)
    step = lattice_step(chain(q.terms.values(), *(x.terms.values() for x in factors)))
    key = order.descending_key
    while True:  # one attempt per width and step
        rem, step = _packed_pairs(pairs, width, step, lvec)
        right = [(h, lh, *c.packed(width, step)) for h, lh, c in rest]
        heap = [(key(e), e) for e in rem]
        heapify(heap)
        quot: dict = {}  # one entry per elimination
        bound = l1_p
        while heap:
            gr = heappop(heap)[1]
            lo, n = rem.pop(gr)
            if not n:
                continue
            if len(quot) >= cap:
                raise DivisionError(f"division exceeded {cap} steps")
            g = tuple(map(sub, gr, gq))
            cr = LaurentPoly.from_packed(lo, n, width, step)
            try:
                t = cr.shifted(-sum(map(mul, g, lead))).divide_exact(cq)
            except ValueError as exc:
                raise DivisionError("not divisible") from exc
            quot[g] = t
            if not rest:
                continue
            bound += t.l1() * l1_rest
            if bound.bit_length() >= 8 * width:
                width = max(2 * width, digit_width(bound))
                break
            lo_t, n_t = t.packed(width, step)
            new = _packed_sums([(g, lo_t, -n_t)], right, rem, width, step)
            if isinstance(new, int):
                step = new
                break
            for e in new:
                heappush(heap, (key(e), e))
        else:
            return TorusElement(q.form, quot)


def vanishes(pairs) -> bool:
    """Whether ``sum coeff * x`` over the ``(x, coeff)`` pairs is zero, with
    each ``coeff`` an int or a :class:`LaurentPoly`.

    Every term is added in place into one ``{v-exponent: int}`` map per
    exponent; no scaled element and no intermediate sum is built.  An
    identity ``lhs == sum rhs_i`` is checked as ``vanishes`` of ``(lhs, 1)``
    and the ``(rhs_i, -1)``.  Raises :class:`ContextMismatch` when the
    elements live in different contexts.
    """
    acc: dict = {}  # exponent -> {v-exponent: integer coefficient}
    form = None
    for x, c in pairs:
        if x.form is not form:
            if form is not None and x.form != form:
                raise ContextMismatch("torus elements live in different contexts")
            form = x.form
        if isinstance(c, int):
            k, a = 0, c
        elif len(c._terms) == 1:
            ((k, a),) = c._terms.items()
        else:
            for e, ce in x.terms.items():
                out = acc.get(e)
                if out is None:
                    out = acc[e] = {}
                ce.mul_into(out, c)
            continue
        # A monomial coefficient a * v^k shifts and scales each term; a
        # coefficient 1 starts a new exponent's map as a copy.  Inline, not
        # mul_into: a call per term cost identity_suite 11-18% CPU (2-core Xeon).
        copy = k == 0 and a == 1
        for e, ce in x.terms.items():
            out = acc.get(e)
            if out is None:
                if copy:
                    acc[e] = ce._terms.copy()
                    continue
                out = acc[e] = {}
            get = out.get
            for e1, c1 in ce._terms.items():
                j = e1 + k
                out[j] = get(j, 0) + c1 * a
    return not any(any(out.values()) for out in acc.values())


def quasi_commutes(x: TorusElement, y: TorusElement, t: int) -> bool:
    """Whether ``x * y == v^{2t} * y * x`` holds exactly."""
    return vanishes(((x * y, 1), (y * x, LaurentPoly.v_power(2 * t, -1))))
