"""The standard monomial basis of an acyclic seed, and its mutated twin.

For a label ``a`` in ``Z^m`` the raw standard monomial is the ordered
product of a frozen/positive-part monomial with powers of the exchange
binomials; the normalized element rescales it by the unique power of ``v``
making its leading term bar-invariant.  One builder, shared by both classes,
keeps a ladder of the powers of every exchange element, entry ``q`` built
once as entry ``q - 1`` times the element, and the rescaling rides on the
front monomial, so an element costs one product per nonzero exchange power,
or one unit shift of a cached element with the same non-unit part.
Because the order is compatible with the sign pattern of the exchange
matrix, the map from labels to leading exponents is unimodularly
triangular, which gives an exact greedy expansion algorithm for any element
of the spanned algebra.

:class:`MutatedBasis` takes the seed mutated at the order-last exchange
index of any compatible order, whose own :class:`EBasis` supplies every
label datum, and realizes its monomials and exchange elements inside the
original torus, which is what the basis-independence comparisons consume.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import mul

from .laurent import LaurentPoly, cancel_rule
from .seed import QuantumSeed, _one_based, exchange_vector, mutate, require_valid, seed_weight_order
from .torus import ContextMismatch, TorusElement, vec_add, vec_scale, vec_sub

__all__ = ["EBasis", "MutatedBasis", "ExpansionError", "unit_coefficient_label"]


class ExpansionError(RuntimeError):
    """Raised when a sweep exceeds its step cap."""


class _StandardMonomials:
    """Ordered products ``v^nu X^g x_k1^q1 x_k2^q2 ...`` cached per label, with
    the label data read from the :class:`EBasis` ``abstract``.  A subclass
    realizes ``v^nu X^g`` as :meth:`_front`, which also builds the exchange
    binomials ``x_k`` of :meth:`_generator`."""

    def __init__(self, form):
        self.form = form
        self._ladders: dict = {}  # k -> [x_k^0, x_k^1, ...]
        self._elements: dict = {}
        self._siblings: dict = {}  # non-unit key -> (u, nu_u, its first element)

    def exchange_power(self, k: int, q: int) -> TorusElement:
        """``x_k ** q`` for the exchange element ``x_k`` of :meth:`_generator`
        (``X'_k`` on :class:`EBasis`, ``X''_k`` on :class:`MutatedBasis`) from
        the ladder of its powers: each new entry is the previous one times
        ``x_k``, so every power is built once, by one product."""
        ladder = self._ladders.get(k)
        if ladder is None:
            ladder = self._ladders[k] = [self.form.one(), self._generator(k)]
        while len(ladder) <= q:
            ladder.append(ladder[-1] * ladder[1])
        return ladder[q]

    def _generator(self, k: int) -> TorusElement:
        """The exchange binomial ``X^e + X^(e - b_k)``, ``e = e'_k``, of
        ``abstract``, with each monomial realized by :meth:`_front`."""
        e = self.abstract.e_prime(k)
        return self._front(e, 0) + self._front(vec_sub(e, self.abstract.seed.column(k)), 0)

    def _ordered_product(self, a, nu: int) -> TorusElement:
        """``v^nu X^[a]_+`` times the exchange powers of ``a`` in order: one
        product per nonzero power."""
        labels = self.abstract
        out = self._front(labels._base_exponent(a), nu)
        for k in labels.seed.order:
            if a[k] < 0:
                out = out * self.exchange_power(k, -a[k])
        return out

    def _split(self, g, nu: int):
        """``(r, u, nu_u)`` with front ``v^nu X^g = v^nu_u X^u R``, ``R`` fixed by ``r``."""
        return None, g, nu

    def element(self, a) -> TorusElement:
        """The normalized standard basis element for label ``a``.  The first
        label ``a_0`` of a key ``(r, [-a]_+)`` is the ordered product
        ``v^nu_0 X^u_0 R``, with ``R`` fixed by the key; a later one is
        ``v^(nu_u - nu_0 - L(c, u_0)) X^c E(a_0)``, ``c = u - u_0``."""
        a = tuple(a)
        cached = self._elements.get(a)
        if cached is None:
            if len(a) != self.form.m:
                raise ValueError(f"label {a} has length {len(a)}, not m = {self.form.m}")
            labels = self.abstract
            nu = labels.normalization_exponent(a)
            r, u, nu_u = self._split(labels._base_exponent(a), nu)
            key = (r, tuple(min(x, 0) for x in a[: labels.seed.n]))
            first = self._siblings.get(key)
            if first is None:
                cached = self._ordered_product(a, nu)
                self._siblings[key] = (u, nu_u, cached)
            else:
                u0, nu0, e0 = first
                c = vec_sub(u, u0)
                shift = LaurentPoly.v_power(nu_u - nu0 - self.form.skew(c, u0))
                cached = e0._shift_by_unit(c, shift, -1)
            self._elements[a] = cached
        return cached

    def assemble(self, coeffs: dict) -> TorusElement:
        """Inverse of :meth:`EBasis.expand`: the element with these coefficients."""
        out = self.form.zero()
        for a, c in coeffs.items():
            out = out + self.element(a).scalar_mul(c)
        return out


class EBasis(_StandardMonomials):
    """Standard monomials of one validated, ordered seed: the front is the
    plain monomial and the generators are the exchange binomials.  The
    label maps and the expansion sweep act in this torus, so they live here
    and not on the builder."""

    def __init__(self, seed: QuantumSeed, expansion_cap: int = 10**5):
        if expansion_cap < 0:
            raise ValueError(f"expansion cap must be nonnegative, got {expansion_cap}")
        report = require_valid(seed)
        if not report.order_compatible:
            raise ValueError(
                "seed order is not sign-compatible with the exchange matrix; "
                f"violations at {_one_based(report.order_violations)}"
            )
        super().__init__(seed.form())
        self.seed = seed
        self.order = seed_weight_order(seed)
        self.expansion_cap = expansion_cap
        self._index_data: dict = {}  # k -> (e'_k, positive (i, b_ik), L e'_k)

    @property
    def abstract(self) -> EBasis:
        """This basis; a property, so that the basis holds no reference to itself."""
        return self

    # Both classes hold ``element`` themselves, so either can be wrapped alone.
    element = _StandardMonomials.element

    # -- generators ----------------------------------------------------------

    def _index(self, k: int):
        """``(e'_k, ((i, b_ik) with b_ik > 0), L e'_k)``, computed when first
        asked for, so that a basis built for one label pays for no other."""
        data = self._index_data.get(k)
        if data is None:
            e = exchange_vector(self.seed, k)
            positive = tuple((i, b) for i, b in enumerate(self.seed.column(k)) if b > 0)
            data = self._index_data[k] = (e, positive, self.form.lvec(e))
        return data

    def e_prime(self, k: int):
        """Leading exponent of the k-th exchange binomial."""
        return self._index(k)[0]

    def _front(self, g, nu: int) -> TorusElement:
        return self.form.monomial(g, LaurentPoly.v_power(nu))

    # -- labels and leading exponents ------------------------------------------

    def _base_exponent(self, a):
        n = self.seed.n
        return tuple(x if i >= n else max(x, 0) for i, x in enumerate(a))

    def leading_exponent(self, a):
        """Exponent of the term surviving when each exchange element is
        replaced by its leading monomial."""
        lead = self._base_exponent(a)
        for k in range(self.seed.n):
            q = max(-a[k], 0)
            if q:
                lead = vec_add(lead, vec_scale(q, self.e_prime(k)))
        return lead

    def leading_exponent_inverse(self, t):
        """The unique label whose leading exponent is ``t``.

        ``leading_exponent(a) = a + sum_k [-a_k]_+ [b_k]_+``, so one sweep
        along the order subtracts each column's positive part as soon as its
        label entry is known: compatibility puts every positive entry of
        column ``k`` in a later row or a frozen row, so ``a_k`` is final when
        the sweep reaches it.
        """
        a = list(t)
        for k in self.seed.order:
            q = -a[k]
            if q > 0:
                for i, bik in self._index(k)[1]:
                    a[i] -= q * bik
        return tuple(a)

    # -- normalization -----------------------------------------------------------

    def normalization_exponent(self, a) -> int:
        """Power of ``v`` making the leading term bar-invariant: minus the chain
        twist of ``X^b``, ``b = [a]_+`` on exchange entries, and ``X^(q_k e'_k)``,
        ``q = [-a]_+``, bilinearly ``sum_k q_k L(b, e'_k) + sum_{k<l} q_k q_l L(e'_k, e'_l)``."""
        acc = self._base_exponent(a)
        twist = 0
        for k in self.seed.order:
            q = -a[k]
            if q > 0:
                e, _, le = self._index(k)
                twist += q * sum(map(mul, acc, le))
                acc = tuple(x + q * y for x, y in zip(acc, e))
        return -twist

    # -- expansion ------------------------------------------------------------------

    def sweep(self, x: TorusElement, rule):
        """Walk the terms of ``x`` from the order-highest exponent down.

        At each exponent ``g`` with coefficient ``c`` the sweep adds
        ``p * E(a)``, where ``a`` is the label led by ``g``.  That element
        has unit coefficient at ``g`` and all other terms strictly below it,
        so the coefficient at ``g`` settles as ``c + p``, a visited
        coefficient never changes again, and the terms not yet visited form
        a heap.  Only the terms of ``E(a)`` below ``g`` are added, and a
        label with no negative exchange entry has none (``E(a) = X^a``), so
        no element is built for it.  Only a ``g`` with a negative exchange
        entry is inverted: a label has one exactly when its leading exponent
        does, and the inverse fixes any other ``g`` (it subtracts only at a
        negative entry, and a subtraction only lowers entries).  Each
        unvisited coefficient is a plain ``{v-exponent: integer}``
        accumulator updated in place, zeros kept; ``rule`` (``bar_rule`` or
        ``cancel_rule`` of :mod:`qca.laurent`) takes the popped one and
        returns ``(p, c + p)``.  Returns the nonzero multiples by label and
        the resulting element.  Raises :class:`ExpansionError` when more
        than ``expansion_cap`` multiples are needed.
        """
        if x.form != self.form:
            raise ContextMismatch("element lives in a different torus context")
        key = self.order.descending_key
        n = self.seed.n
        terms = {e: dict(c._terms) for e, c in x.terms.items()}
        heap = [(key(e), e) for e in terms]
        heapify(heap)
        multiples: dict = {}
        result: dict = {}
        while heap:
            g = heappop(heap)[1]
            p, c = rule(terms.pop(g))
            if p:
                if len(multiples) == self.expansion_cap:
                    raise ExpansionError(f"expansion exceeded {self.expansion_cap} steps")
                if min(g[:n]) >= 0:
                    multiples[g] = p
                else:
                    a = self.leading_exponent_inverse(g)
                    multiples[a] = p
                    # Inline, not mul_into: a call per term cost rank3_deep 2-10% CPU (2-core Xeon).
                    right = p._terms.items()
                    for e, ce in self.element(a).terms.items():
                        if e == g:
                            continue
                        acc = terms.get(e)
                        if acc is None:
                            acc = terms[e] = {}
                            heappush(heap, (key(e), e))
                        get = acc.get
                        for e1, c1 in ce._terms.items():
                            for e2, c2 in right:
                                k = e1 + e2
                                acc[k] = get(k, 0) + c1 * c2
            if c:
                result[g] = c
        return multiples, TorusElement(self.form, result)

    def expand(self, x: TorusElement) -> dict:
        """Coefficients of ``x`` in the standard basis (exact).

        This is the sweep that cancels every coefficient it reaches; it
        terminates for any ``x`` in the span.  Raises :class:`ExpansionError`
        if the cap is hit (the typical cause is an ``x`` outside the span).
        """
        multiples, _ = self.sweep(x, cancel_rule)
        return {a: -p for a, p in multiples.items()}

    def r_row(self, a) -> dict:
        """Expansion of ``bar(E) - E`` for label ``a``.  Bar-triangularity
        puts its nonzero entries only at labels of strictly smaller grading;
        ``verify.check_bar_triangularity`` checks that."""
        e = self.element(a)
        return self.expand(e.bar() - e)

    def grading(self, a) -> int:
        """Sum of the negative parts of the exchange entries of ``a``."""
        return sum(-x for x in a[: self.seed.n] if x < 0)


class MutatedBasis(_StandardMonomials):
    """Standard monomials of the once-mutated seed, realized in the
    original torus.

    Mutation happens at ``k_mut``, the last index of the seed's compatible
    order, which is a sink or isolated.  The mutated seed, whose order
    :func:`mutate` keeps compatible, has its own :class:`EBasis`,
    ``abstract``, which holds every label datum: exchange vectors, columns,
    base exponents, normalization and factor order.  This class only
    realizes the front monomials and the mutated generators inside the
    original torus; the one step that depends on the mutation is its
    front, :meth:`_front`, which realizes the monomial ``X'^g``.
    """

    def __init__(self, base: EBasis):
        super().__init__(base.form)
        self.base = base
        self.k_mut = base.seed.order[-1]
        self.abstract = EBasis(mutate(base.seed, self.k_mut), expansion_cap=base.expansion_cap)

    element = _StandardMonomials.element

    # -- mutated generators, realized ------------------------------------------

    def _generator(self, k: int) -> TorusElement:
        """``X''_k`` in the original torus: the plain generator ``X_k`` at the
        mutation index, else the binomial of ``abstract`` with each ``X'^g``
        realized by :meth:`_front`; its Gaussian-binomial expansion is
        checked in :func:`qca.verify.check_principal_identities`."""
        if k == self.k_mut:
            return self.form.generator(k)
        return super()._generator(k)

    def _front(self, g, nu: int) -> TorusElement:
        """``v^nu X'^g`` as one left unit shift of a ladder entry.

        With ``q = g[k]`` and ``h = g - q e_k``, ``X'^g = v^(-L'(h, q e_k))
        X'^h X'_k^q``.  The mutated form ``L'`` agrees with ``L`` away from
        ``k`` and ``L'(h, e_k) = L(h, e'_k)``, so ``X'^h`` is ``X^h`` and
        ``X'_k^q`` is the base ladder entry ``exchange_power(k, q)``.  A
        negative ``q`` raises ValueError: the two-term exchange element is
        not invertible inside the torus.
        """
        q, h, nu_h = self._split(g, nu)
        if q < 0:
            raise ValueError("mutated generator is not invertible in the torus")
        front = self.form.monomial(h, LaurentPoly.v_power(nu_h))
        return front * self.base.exchange_power(self.k_mut, q)

    def _split(self, g, nu: int):
        """``(q, h, nu - q L(h, e'_k))`` of :meth:`_front`: ``R`` is ``X'_k^q``."""
        k = self.k_mut
        q = g[k]
        h = (*g[:k], 0, *g[k + 1 :])
        return q, h, nu - q * self.form.skew(h, self.base.e_prime(k))

    def unit_label(self, a):
        """The base label carrying the unit coefficient of the expansion of
        ``a`` in the original basis, by :func:`unit_coefficient_label`."""
        return unit_coefficient_label(self.base.expand(self.element(a)), a)


def unit_coefficient_label(coeffs: dict, source):
    """The label of the one coefficient equal to 1 in an expansion whose every
    other coefficient lies in ``v Z[v]``: the paper's unit-coefficient
    condition.  Raises ValueError, naming the expanded ``source``, when it
    fails, since everything downstream depends on it."""
    unit = None
    for key, c in coeffs.items():
        if c.is_one():
            if unit is not None:
                raise ValueError(f"two unit coefficients in expansion of {source}")
            unit = key
        elif not c.in_v_zv():
            raise ValueError(f"coefficient at {key} in expansion of {source} is not in vZ[v]: {c}")
    if unit is None:
        raise ValueError(f"no unit coefficient in expansion of {source}")
    return unit
