"""The rank-2 affine quantum cluster algebra with exchange entries +-2.

All cluster variables are indexed by the integers; consecutive pairs
quasi-commute with twist 2, and each new variable is produced from the
exchange relation by one exact torus division, so every variable lands in
the initial torus.  The imaginary-root element and its Chebyshev family
fill in the non-cluster part of the triangular basis; the verifiers below
check that against the triangular rows and the family's two-product closed
form, together with the labeling of cluster monomials and the
multiplication table of standard monomials by the 0-th variable.  An
algebra builds each of these elements once, so only a repeated or larger
check on the same algebra gains from keeping them.
"""

from __future__ import annotations

from .ebasis import EBasis
from .laurent import LaurentPoly
from .lusztig import TriangularTable
from .report import Report
from .seed import QuantumSeed
from .torus import TorusElement, divide

__all__ = ["a11_seed", "KroneckerAlgebra"]


def a11_seed() -> QuantumSeed:
    """The 2x2 seed with exchange entries +-2, twist matrix [[0,-1],[1,0]]."""
    return QuantumSeed(
        m=2,
        n=2,
        btilde=((0, -2), (2, 0)),
        lam=((0, -1), (1, 0)),
        d=(2, 2),
        order=(0, 1),
    )


class KroneckerAlgebra:
    """Cluster variables, Chebyshev elements and closed forms, each kept on
    first use, and verifiers for the seed above."""

    def __init__(self, horizon: int = 8):
        self.seed = a11_seed()
        self.basis = EBasis(self.seed)
        self.table = TriangularTable(self.basis)
        self.horizon = horizon
        self.form = self.basis.form
        self._chebyshev: list = []  # [S_0, S_1, ...], built on demand
        self._forms: dict = {}  # r -> product_form(r), built on demand
        self._vars = {
            1: self.form.monomial((1, 0)),
            2: self.form.monomial((0, 1)),
        }

    def var(self, m: int) -> TorusElement:
        """The cluster variable with index ``m``, memoized.

        The exchange relation ``X_{m+1} X_{m-1} = v^2 X_m^2 + 1`` gives
        ``X_{m+1}`` as a right quotient.  ``X_{m-1}`` is the left quotient
        ``bar(divide(bar(rhs), bar(X_{m+1})))``; as bar reverses products and
        fixes every cluster variable, that is the right quotient of
        ``v^-2 X_m^2 + 1`` by ``X_{m+1}``, its numerator passed as factor pairs.
        """
        if abs(m) > self.horizon:
            raise ValueError(f"index {m} beyond configured horizon {self.horizon}")
        if m in self._vars:
            return self._vars[m]
        lo, hi = min(self._vars), max(self._vars)
        while hi < m:
            self._vars[hi + 1] = self._exchange(hi, 2, hi - 1)
            hi += 1
        while lo > m:
            self._vars[lo - 1] = self._exchange(lo, -2, lo + 1)
            lo -= 1
        return self._vars[m]

    def _exchange(self, i: int, t: int, j: int) -> TorusElement:
        """The right quotient of ``v^t X_i^2 + 1`` by ``X_j``; exact by the
        Laurent phenomenon.  The numerator goes to :func:`divide` as the pairs
        ``(v^t X_i, X_i)`` and ``(1, 1)``, whose products seed the packed
        remainder, so ``X_i^2`` is never built."""
        x, one = self._vars[i], self.form.one()
        pairs = ((x.scalar_mul(LaurentPoly.v_power(t)), x), (one, one))
        return divide(pairs, self._vars[j], self.basis.order)

    def product_form(self, r: int) -> TorusElement:
        """``v^r X_(r+2) X_0 - v^(r+2) X_(r+1) X_1``, the closed form of the
        degree-``r`` Chebyshev element, kept: its two torus products are made
        once per algebra, which only a repeated check gains from."""
        if r not in self._forms:
            v = LaurentPoly.v_power
            self._forms[r] = (self.var(r + 2) * self.var(0)).scalar_mul(v(r)) - (
                self.var(r + 1) * self.var(1)
            ).scalar_mul(v(r + 2))
        return self._forms[r]

    def x_delta(self) -> TorusElement:
        """The imaginary-root element: the product form at ``r = 1``."""
        return self.product_form(1)

    def chebyshev(self, r: int) -> TorusElement:
        """Normalized second-kind Chebyshev evaluation at the imaginary-root
        element, via the three-term recurrence ``S_r = z S_{r-1} - S_{r-2}``
        with ``z = x_delta()``.  The algebra keeps the ladder
        ``[S_0, S_1, ...]``, so each ``S_r`` is built once, by one product."""
        if r < 0:
            if r == -1:
                return self.form.zero()
            raise ValueError("only r >= -1 supported")
        ladder = self._chebyshev
        if not ladder:
            ladder += (self.form.one(), self.x_delta())
        while len(ladder) <= r:
            ladder.append(ladder[1] * ladder[-1] - ladder[-2])
        return ladder[r]

    def cluster_monomial(self, m: int, a1: int, a2: int) -> TorusElement:
        """The bar-invariant monomial on the cluster ``(m, m+1)``."""
        if a1 < 0 or a2 < 0:
            raise ValueError("cluster monomial exponents must be nonnegative")
        out = self.var(m) ** a1 * self.var(m + 1) ** a2
        return out.scalar_mul(LaurentPoly.v_power(a1 * a2))

    @staticmethod
    def alpha(m: int):
        """Label of the cluster variable with index ``m``."""
        if m <= 1:
            return (m, m - 1)
        return (2 - m, 3 - m)

    # -- verifiers --------------------------------------------------------------

    def verify_chebyshev_family(self, r_max: int) -> Report:
        """Triangular elements on the diagonal ray equal the Chebyshev family,
        and the family telescopes into the two-product closed form."""
        rep = Report(name=f"chebyshev family r<= {r_max}")
        for r in range(0, r_max + 1):
            s = self.chebyshev(r)
            ok = s == self.product_form(r)
            rep.record(ok, "" if ok else f"product form fails at r={r}")
            ok = s.is_bar_invariant()
            rep.record(ok, "" if ok else f"bar-invariance fails at r={r}")
        for r in range(1, r_max + 1):
            ok = self.table.element((-r, -r)) == self.chebyshev(r)
            rep.record(
                ok, "" if ok else f"triangular element at (-{r},-{r}) is not the degree-{r} element"
            )
        return rep

    def verify_cluster_monomial_labels(self) -> Report:
        """Cluster monomials with exponents up to 2 appear in the triangular
        basis at the labels built from the variable-label vectors, for the
        clusters ``m = -1..3``."""
        rep = Report(name="cluster monomial labels m in (-1, 3), a <= 2")
        for m in range(-1, 4):
            al, ar = self.alpha(m), self.alpha(m + 1)
            for a1 in range(3):
                for a2 in range(3):
                    label = (a1 * al[0] + a2 * ar[0], a1 * al[1] + a2 * ar[1])
                    ok = self.table.element(label) == self.cluster_monomial(m, a1, a2)
                    rep.record(ok, "" if ok else f"label {label} (m={m}, a=({a1},{a2})) mismatch")
        return rep

    def _e_times_x0_expected(self, a1: int, a2: int):
        """Case table for the standard-monomial multiplication check."""
        E = self.basis.element
        v = LaurentPoly.v_power
        if a2 <= 0:
            return self.form.zero()
        if a1 >= 0:
            return E((a1 + 2, a2 - 1)).scalar_mul(v(2 * a2))
        if a1 == -1:
            return E((1, a2 - 1)).scalar_mul(v(2 * a2)) + E((1, a2 + 1)).scalar_mul(
                v(2 * (a2 + 2))
            )
        mid = v(2 * (a2 - a1 - 1)) + v(2 * (a2 - a1 + 1))
        return (
            E((a1 + 2, a2 - 1)).scalar_mul(v(2 * a2))
            + E((a1 + 2, a2 + 1)).scalar_mul(mid)
            + E((a1 + 2, a2 + 3)).scalar_mul(v(2 * (a2 - 2 * a1)))
        )

    def verify_e_times_x0(self, bound: int = 3) -> Report:
        """Exact case formulas for (twisted) standard monomial times the 0-th
        variable, on the centered square window of the given radius."""
        rep = Report(name=f"standard monomial times X_0, |a| <= {bound}")
        x0 = self.var(0)
        for a1 in range(-bound, bound + 1):
            for a2 in range(-bound, bound + 1):
                lhs = (self.basis.element((a1, a2)) * x0).scalar_mul(
                    LaurentPoly.v_power(-a1)
                ) - self.basis.element((a1, a2 - 1))
                ok = lhs == self._e_times_x0_expected(a1, a2)
                rep.record(ok, "" if ok else f"case formula fails at a=({a1},{a2})")
        return rep
