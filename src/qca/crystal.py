"""Crystal monomials for the rank-2 principal seed with parameters (b, c).

The monomials are indexed by 7-tuples ``(m3, m4, m'1, m2, m1, m'2, m''1)``
whose last five entries are nonnegative; they interpolate between the
standard basis of the seed and the standard basis of its mutation, and they
satisfy the straightening identities that drive the basis-independence
argument.  Everything here is verified by direct torus arithmetic.
"""

from __future__ import annotations

import itertools

from .ebasis import EBasis, MutatedBasis, unit_coefficient_label
from .laurent import LaurentPoly, gaussian_binomial
from .report import Report
from .seed import QuantumSeed, principal_seed
from .torus import TorusElement, vanishes
from .verify import principal_product_identities

__all__ = ["rank2_principal_seed", "Rank2Crystal"]


def rank2_principal_seed(b: int, c: int) -> QuantumSeed:
    """Principal quantization of the rank-2 exchange matrix [[0,-b],[c,0]]."""
    if b < 1 or c < 1:
        raise ValueError("parameters must be positive integers")
    return principal_seed(((0, -b), (c, 0)), (c, b))


class Rank2Crystal:
    """Crystal-monomial machinery bound to one (b, c) principal seed.

    Only a core index ``(0, 0, m'1, 0, m1, m'2, m''1)`` costs an ordered
    product, of a head and a tail read off the power ladders of ``basis``
    and ``mutated``; :meth:`monomial` reaches every other index from its
    core in at most two cheap steps, each entry cached.
    """

    def __init__(self, b: int, c: int):
        self.b = b
        self.c = c
        self.seed = rank2_principal_seed(b, c)
        self.basis = EBasis(self.seed)
        self.mutated = MutatedBasis(self.basis)
        self.form = self.basis.form
        self._monomials: dict = {}
        # X'1^m'1 X^(m1,0,0,0) by (m'1, m1), and X'2^m'2 X''1^m''1 by
        # (m'2, m''1).
        self._heads: dict = {}
        self._tails: dict = {}

    # -- index set ----------------------------------------------------------

    @staticmethod
    def in_index_set(mm) -> bool:
        return len(mm) == 7 and all(x >= 0 for x in mm[2:])

    @staticmethod
    def in_interior(mm) -> bool:
        """The subset where at most two of the three special powers meet."""
        _, _, m1p, _, m1, _, m1pp = mm
        return m1p * m1 * m1pp == 0

    def _ordered_product(self, core, nu: int) -> TorusElement:
        """``v^nu`` times the stored head and tail of a core index, each built
        once from the bases' power ladders."""
        _, _, m1p, _, m1, m2p, m1pp = core
        head = self._heads.get((m1p, m1))
        if head is None:
            head = self.basis.exchange_power(0, m1p) * self.form.monomial((m1, 0, 0, 0))
            self._heads[(m1p, m1)] = head
        tail = self._tails.get((m2p, m1pp))
        if tail is None:
            tail = self.basis.exchange_power(1, m2p) * self.mutated.exchange_power(0, m1pp)
            self._tails[(m2p, m1pp)] = tail
        return LaurentPoly.v_power(nu) * head * tail

    def _leading_vectors(self, mm) -> list:
        """The leading exponents of the five factors after ``X^(0,0,m3,m4)``:
        ``X'1^m'1``, ``X^(0,m2,0,0)``, ``X^(m1,0,0,0)``, ``X'2^m'2`` and
        ``X''1^m''1``."""
        _, _, m1p, m2, m1, m2p, m1pp = mm
        return [
            (-m1p, 0, 0, 0),
            (0, m2, 0, 0),
            (m1, 0, 0, 0),
            (0, -m2p, 0, m2p),
            (-m1pp, 0, m1pp, self.c * m1pp),
        ]

    def normalization_exponent(self, mm) -> int:
        """Normalizes the leading term up to the interior twist correction."""
        m3, m4, m1p, _, _, _, m1pp = mm
        sigma = self.form.chain_twist(((0, 0, m3, m4), *self._leading_vectors(mm)))
        return self.c * m1p * m1pp - sigma

    def monomial(self, mm) -> TorusElement:
        """The normalized crystal monomial for an index in the set.

        Only a core index ``(0, 0, m'1, 0, m1, m'2, m''1)`` is an ordered
        product.  Compatibility gives ``L(b_0, e_1) = 0``, so all terms of
        ``X'1^m'1`` twist alike against ``X^u``, ``u = (0, m2, 0, 0)``: ``m2``
        is the unit shift ``v^(-L(u, l)) X^u`` of the core, ``l`` the sum of
        its leading vectors.  A frozen ``f = (0, 0, m3, m4)`` pairs to zero
        with every exchange column, so each monomial is homogeneous for
        ``e -> L(e, f)``; the twist of ``X^f`` is constant, the normalization
        cancels it, and frozen part ``f`` is frozen part ``(0, 0)`` with every
        exponent translated by ``f``, sharing its :class:`LaurentPoly` objects.
        """
        mm = tuple(mm)
        out = self._monomials.get(mm)
        if out is not None:
            return out
        if not self.in_index_set(mm):
            raise ValueError(f"index {mm} outside the admissible set")
        m3, m4, m1p, m2, m1, m2p, m1pp = mm
        base = (0, 0, m1p, m2, m1, m2p, m1pp)
        out = self._monomials.get(base)
        if out is None:
            core = (0, 0, m1p, 0, m1, m2p, m1pp)
            out = self._monomials.get(core)
            if out is None:
                out = self._ordered_product(core, self.normalization_exponent(core))
                self._monomials[core] = out
            if m2:
                u = (0, m2, 0, 0)
                lead = tuple(map(sum, zip(*self._leading_vectors(core))))
                out = out._shift_by_unit(u, LaurentPoly.v_power(-self.form.skew(u, lead)), -1)
                self._monomials[base] = out
        if m3 or m4:
            terms = {(e1, e2, e3 + m3, e4 + m4): x for (e1, e2, e3, e4), x in out.terms.items()}
            out = TorusElement(self.form, terms)
            self._monomials[mm] = out
        return out

    def nu_explicit(self, mm) -> int:
        """Closed form of the normalization exponent."""
        b, c = self.b, self.c
        m3, m4, m1p, m2, m1, m2p, m1pp = mm
        return (
            c * (m1p - m1 - (b * c - 1) * m1pp - b * m2p) * m3
            + b * (c * m1pp + m2p - m2) * m4
            + c * m1 * m1pp
            + b * m2 * m2p
            + b * c * m2 * m1pp
        )

    def pi(self, mm):
        """Label of the standard-basis element the monomial reduces to.

        Invariant under every straightening step and matching the direct
        identification on the terminal indices.
        """
        c = self.c
        m3, m4, m1p, m2, m1, m2p, m1pp = mm
        u = min(m1, m1pp)
        return (
            m1 - m1p - m1pp,
            m2 - m2p - c * (m1pp - u),
            m3 + u,
            m4 + min(m2 + c * u, m2p + c * m1pp),
        )

    @staticmethod
    def label_to_index(a, primed: bool) -> tuple:
        """The 7-tuple realizing a standard (or mutated-standard) label."""
        a1, a2, a3, a4 = a
        if primed:
            return (a3, a4, 0, max(-a2, 0), max(a1, 0), max(a2, 0), max(-a1, 0))
        return (a3, a4, max(-a1, 0), max(a2, 0), max(a1, 0), max(-a2, 0), 0)

    # -- straightening identities ------------------------------------------------

    def _identity_terms(self, mm) -> list:
        """The straightening identities that apply at ``mm``, first to fourth.

        Each is ``(name, terms)``: the monomial at ``mm`` equals the sum of
        ``coefficient * monomial(index)`` over the ``(index, coefficient)``
        terms; a coefficient is an int or a :class:`LaurentPoly`.
        """
        b, c = self.b, self.c
        v = LaurentPoly.v_power
        m3, m4, m1p, m2, m1, m2p, m1pp = mm
        rows = []
        if m1p * m1 > 0:
            rows.append(("first", [
                ((m3, m4, m1p - 1, m2, m1 - 1, m2p, m1pp), v(c * m1pp)),
                ((m3 + 1, m4, m1p - 1, m2 + c, m1 - 1, m2p, m1pp), v(c * (m1p + m1 - 1))),
            ]))
        if m2 * m2p > 0:
            # Second coefficient exponent is b*(m2 + m'2 - 1); derivable from the
            # exchange product since the commutation twists collected while moving
            # the frozen monomial leftwards cancel against the normalization.
            rows.append(("second", [
                ((m3, m4 + 1, m1p, m2 - 1, m1, m2p - 1, m1pp), 1),
                ((m3, m4, m1p, m2 - 1, m1 + b, m2p - 1, m1pp), v(b * (m2 + m2p - 1))),
            ]))
        if m1 * m1pp > 0:
            rows.append(("third", [
                ((m3 + 1, m4 + c, m1p, m2, m1 - 1, m2p, m1pp - 1), v(c * m1p)),
                ((m3, m4, m1p, m2, m1 - 1, m2p + c, m1pp - 1), v(c * (m1 + m1pp - 1))),
            ]))
        if m1 == 0 and m1pp > 0:
            terms = [((m3, m4, m1p + 1, m2, 0, m2p + c, m1pp - 1), 1)]
            for s in range(1, c + 1):
                coeff = gaussian_binomial(c, s).substitute_power(2 * b)
                terms.append((
                    (m3 + 1, m4 + c - s, m1p, m2, b * s - 1, m2p, m1pp - 1),
                    -coeff.shifted(c * m1p + b * s * (m2 + m2p + s)),
                ))
            rows.append(("fourth", terms))
        return rows

    @staticmethod
    def _window(bound: int, frozen_range):
        """Indices with frozen entries in ``frozen_range`` and the five
        others in ``0..bound``."""
        lo, hi = frozen_range
        span = range(lo, hi + 1)
        return itertools.product(span, span, *[range(bound + 1)] * 5)

    def verify_block_relations(self) -> Report:
        """The three short product relations the identities are built from:
        the principal product identities of the crystal's seed."""
        rep = Report(name=f"rank-2 block relations (b={self.b}, c={self.c})")
        for name, terms in principal_product_identities(self.basis, self.mutated):
            rep.record(vanishes(terms), name)
        return rep

    def verify_identities(self, bound: int = 2, frozen_range=(-1, 1)) -> Report:
        """Run every applicable straightening identity on a window of indices;
        each row holds when its right-hand side minus the monomial at the
        index vanishes."""
        rep = Report(name=f"straightening identities (b={self.b}, c={self.c})")
        rep.absorb(self.verify_block_relations())
        monomial = self.monomial
        for mm in self._window(bound, frozen_range):
            rows = self._identity_terms(mm)
            if rows:
                lhs = (monomial(mm), -1)
            for name, terms in rows:
                pairs = [(monomial(index), coeff) for index, coeff in terms]
                pairs.append(lhs)
                ok = vanishes(pairs)
                rep.record(ok, "" if ok else f"{name} identity fails at {mm}")
        return rep

    def verify_nu_agreement(self, count: int, rng) -> Report:
        """Condition-derived normalization equals the closed form on random
        indices with entries of absolute value at most 4."""
        rep = Report(name=f"normalization closed form (b={self.b}, c={self.c})")
        for _ in range(count):
            mm = (rng.randint(-4, 4), rng.randint(-4, 4))
            mm += tuple(rng.randint(0, 4) for _ in range(5))
            rep.record(
                self.normalization_exponent(mm) == self.nu_explicit(mm),
                f"normalization mismatch at {mm}",
            )
        return rep

    def verify_standard_correspondence(self, bound: int = 2) -> Report:
        """Crystal monomials at unmixed indices are the standard basis
        elements of the seed and of its mutation."""
        rep = Report(name=f"standard correspondence (b={self.b}, c={self.c})")
        for a1 in range(-bound, bound + 1):
            for a2 in range(-bound, bound + 1):
                for a3 in range(-1, 2):
                    for a4 in range(-1, 2):
                        a = (a1, a2, a3, a4)
                        rep.record(
                            self.monomial(self.label_to_index(a, primed=False))
                            == self.basis.element(a),
                            f"standard correspondence fails at {a}",
                        )
                        rep.record(
                            self.monomial(self.label_to_index(a, primed=True))
                            == self.mutated.element(a),
                            f"mutated correspondence fails at {a}",
                        )
        return rep

    def verify_reduction_targets(self, bound: int = 2) -> Report:
        """Interior monomials straighten to one standard monomial: their
        expansion meets :func:`qca.ebasis.unit_coefficient_label` with the
        unit at ``pi``."""
        rep = Report(name=f"reduction targets (b={self.b}, c={self.c})")
        for mm in self._window(bound, (-1, 1)):
            if self.in_interior(mm):
                try:
                    unit = unit_coefficient_label(self.basis.expand(self.monomial(mm)), mm)
                except ValueError as exc:
                    rep.record(False, str(exc))
                    continue
                rep.record(unit == self.pi(mm), f"reduction target fails at {mm}: unit at {unit}")
        return rep
