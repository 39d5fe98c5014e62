"""Identity and property suites over randomly generated principal seeds.

Everything here is exact: a suite either reproduces a stated identity, as an
equality of torus elements or as the exact vanishing of its two sides'
difference (:func:`qca.torus.vanishes`, each product passed as a factor
pair), or reports the first counterexample.  Random sampling is driven by a
caller-supplied ``random.Random`` so runs are reproducible.

The embedding suite maps a seed's principal seed into its doubled seed by
the bullet exponents and reads the matching labels ``psi`` and ``psi'`` off
leading exponents; one lattice map carries both the labels and the
elements.
"""

from __future__ import annotations

from .ebasis import EBasis, MutatedBasis
from .laurent import LaurentPoly, gaussian_binomial
from .lusztig import TriangularTable
from .report import Report
from .seed import (
    QuantumSeed,
    bullet_exponents,
    compatible_orders,
    double_seed,
    integer_rank,
    principal_seed,
)
from .torus import (
    basis_vector,
    plus_part,
    quasi_commutes,
    vanishes,
    vec_add,
    vec_neg,
    vec_restrict,
    vec_scale,
    vec_sub,
)

__all__ = [
    "random_principal_seed",
    "check_exchange_relations",
    "principal_product_identities",
    "check_principal_identities",
    "check_bullet_embedding",
    "check_qbinomial_products",
    "check_expand_roundtrip",
    "check_bar_triangularity",
    "check_triangular_properties",
    "check_order_transposition",
    "check_frozen_shift",
]


ENTRY_BOUND = 2
D_MAX = 2


def random_principal_seed(rng, n: int):
    """A principal seed over a random order-compatible exchange matrix.

    Symmetrizers are drawn from ``1..D_MAX``.  Entries above the diagonal are
    nonpositive and at most ``ENTRY_BOUND`` in size; the transposed entries
    are forced by the symmetrizers, skipping choices that would not divide
    or would exceed the bound.
    """
    d = tuple(rng.randint(1, D_MAX) for _ in range(n))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            choices = [
                t
                for t in range(-ENTRY_BOUND, 1)
                if (d[i] * t) % d[j] == 0 and abs(d[i] * t // d[j]) <= ENTRY_BOUND
            ]
            t = rng.choice(choices)
            B[i][j] = t
            B[j][i] = -(d[i] * t) // d[j]
    return principal_seed(tuple(tuple(r) for r in B), d)


def check_exchange_relations(basis: EBasis) -> Report:
    """Quasi-commutation table of the generators with the exchange elements."""
    seed = basis.seed
    form = basis.form
    rep = Report(name="exchange quasi-commutation relations")
    for k in range(seed.n):
        xk = basis.exchange_power(k, 1)
        ek_p = basis.e_prime(k)
        for i in range(seed.m):
            if i == k:
                continue
            xi = form.generator(i)
            t = form.skew(basis_vector(seed.m, i), ek_p)
            rep.record(quasi_commutes(xi, xk, t), f"generator {i} vs exchange {k}")
        lam = form.skew(ek_p, basis_vector(seed.m, k))
        xkgen = form.generator(k)
        rhs = form.monomial(plus_part(vec_neg(seed.column(k))))
        rep.record(_commutator_holds(xk, xkgen, lam, seed.d[k], rhs), f"exchange commutator at {k}")
    for j in range(seed.n):
        for k in range(seed.n):
            if j == k:
                continue
            bjk = seed.btilde[j][k]
            eps = (bjk > 0) - (bjk < 0)
            lamjk = form.skew(basis.e_prime(j), basis.e_prime(k))
            xj, xk = basis.exchange_power(j, 1), basis.exchange_power(k, 1)
            exponent = vec_add(
                vec_add(
                    vec_neg(vec_add(basis_vector(seed.m, j), basis_vector(seed.m, k))),
                    plus_part(vec_scale(-eps, seed.column(j))),
                ),
                plus_part(vec_scale(eps, seed.column(k))),
            )
            rhs = form.monomial(exponent)
            ok = _commutator_holds(xj, xk, lamjk, seed.d[j] * bjk, rhs)
            rep.record(ok, f"exchange pair commutator at ({j}, {k})")
    return rep


def _commutator_holds(x, y, lam: int, d: int, rhs) -> bool:
    """Whether ``v^-lam x y - v^lam y x = (v^-d - v^d) rhs`` holds exactly."""
    v = LaurentPoly.v_power
    return vanishes((((x, y), v(-lam)), ((y, x), v(lam, -1)), (rhs, v(-d, -1)), (rhs, v(d))))


def _mutated_exponent(seed: QuantumSeed, j: int):
    """The part of ``b_j`` above ``j``, moved by ``b_(n-1),j (e_(m-1) - e_(n-1))``:
    the exponent of the monomial in the mutated product identity at ``j``."""
    last = seed.n - 1
    above = vec_restrict(seed.column(j), lambda i: i > j)
    move = vec_sub(basis_vector(seed.m, seed.m - 1), basis_vector(seed.m, last))
    return vec_add(above, vec_scale(seed.btilde[last][j], move))


def principal_product_identities(basis: EBasis, mut: MutatedBasis):
    """The short product identities of a principal seed in natural order, as
    ``(name, terms)`` pairs for :func:`qca.torus.vanishes`, each product a
    factor pair: ``X_j X'_j`` (right, j > 0), ``X'_j X_j`` (left,
    j < n - 1) and ``X_j X''_j`` (mutated, j < n - 1) against monomials of
    the parts of ``b_j`` off ``j``."""
    seed, form = basis.seed, basis.form
    v = LaurentPoly.v_power
    last = seed.n - 1
    for j in range(seed.n):
        bj, dj = seed.column(j), seed.d[j]
        xj, xjp = form.generator(j), basis.exchange_power(j, 1)
        low = form.monomial(vec_neg(vec_restrict(bj, lambda i: i < j)))
        high = form.monomial(vec_restrict(bj, lambda i: i > j))
        if j > 0:
            yield f"right product identity at {j}", (((xj, xjp), 1), (high, v(-dj, -1)), (low, -1))
        if j < last:
            yield f"left product identity at {j}", (((xjp, xj), 1), (low, -1), (high, v(dj, -1)))
            yield f"mutated product identity at {j}", (
                ((xj, mut.exchange_power(j, 1)), 1),
                (form.monomial(_mutated_exponent(seed, j)), v(-dj, -1)),
                ((low, basis.exchange_power(last, seed.btilde[last][j])), -1),
            )


def check_principal_identities(seed: QuantumSeed) -> Report:
    """The principal product identities, then the Gaussian-binomial expansion
    of each mutated exchange element, each checked as the vanishing of its
    left side minus its right side.  Raises ValueError for any order but the
    natural one, where they do not hold as stated."""
    if seed.order != tuple(range(seed.n)):
        raise ValueError("the principal identities are stated for the natural order")
    basis = EBasis(seed)
    mut = MutatedBasis(basis)
    form = basis.form
    rep = Report(name="principal product identities")
    for name, terms in principal_product_identities(basis, mut):
        rep.record(vanishes(terms), name)
    # The Gaussian-binomial lemma for the mutated binomial X''_j.
    last = seed.n - 1
    dn, b_last = seed.d[last], seed.column(last)
    for j in range(last):
        bnj = seed.btilde[last][j]
        top = vec_sub(_mutated_exponent(seed, j), basis_vector(seed.m, j))
        low = (basis.exchange_power(j, 1), basis.exchange_power(last, bnj))
        expansion = [(mut.exchange_power(j, 1), 1), (low, -1)]
        for s in range(1, bnj + 1):
            coeff = gaussian_binomial(bnj, s).substitute_power(2 * dn).shifted(s * s * dn)
            expansion.append((form.monomial(vec_sub(top, vec_scale(s, b_last))), coeff))
        rep.record(vanishes(expansion), f"mutated element expansion at {j}")
    return rep


# ---------------------------------------------------------------------------
# The doubled-seed embeddings.


def _lattice_map(g, images):
    """``sum_i g_i images[i]``: the lattice map sending ``e_i`` to ``images[i]``."""
    out = (0,) * len(images[0])
    for gi, img in zip(g, images):
        if gi:
            out = vec_add(out, vec_scale(gi, img))
    return out


def _embedding_bases(seed: QuantumSeed):
    """The bullet exponents and the mutated bases of the principal and the
    doubled seed, each holding its unmutated basis as ``base``.  Both carry
    the order of ``seed``, so both mutate at the same index."""
    pbasis = EBasis(principal_seed(seed.exchange_matrix(), seed.d).replace(order=seed.order))
    dbasis = EBasis(double_seed(seed))
    return bullet_exponents(seed), MutatedBasis(pbasis), MutatedBasis(dbasis)


def _label_maps(exps, pmut: MutatedBasis, dmut: MutatedBasis):
    """The label maps ``psi`` and ``psi'`` as leading-exponent transport.

    A standard monomial is determined by its leading exponent, so ``psi(a)``
    is the doubled label led by the bullet image ``phi`` of the principal
    leading exponent of ``a``.  ``psi'`` transports between the two mutated
    seeds through ``phi'``, which differs from ``phi`` only at the mutation
    index ``k``.  Since ``phi`` sends the principal exchange column ``b_k`` to
    the doubled one, the embedded ``X'_k`` is the doubled seed's ``X'_k``
    times one monomial, of exponent ``phi`` of the principal ``e'_k`` minus
    the doubled ``e'_k``.
    """
    k = pmut.k_mut
    pbasis, dbasis = pmut.base, dmut.base
    primed = list(exps)
    primed[k] = vec_add(
        basis_vector(dbasis.seed.m, k),
        vec_sub(_lattice_map(pbasis.e_prime(k), exps), dbasis.e_prime(k)),
    )

    def transport(src: EBasis, dst: EBasis, images):
        return lambda a: dst.leading_exponent_inverse(
            _lattice_map(src.leading_exponent(a), images)
        )

    return transport(pbasis, dbasis, exps), transport(pmut.abstract, dmut.abstract, primed)


def check_bullet_embedding(seed: QuantumSeed, samples) -> Report:
    """Exact embedding of the principal-seed bases into the doubled seed.

    Checks the Gram identity of the embedded generators, linear independence
    of their exponents, and the two label-translation equalities on every
    sampled label.
    """
    rep = Report(name="principal-in-double embedding")
    n = seed.n
    exps, pmut, dmut = _embedding_bases(seed)
    pbasis, dbasis = pmut.base, dmut.base
    rep.record(
        integer_rank(exps) == 2 * n, "bullet exponents are linearly dependent"
    )
    for i in range(2 * n):
        for j in range(2 * n):
            rep.record(
                dbasis.form.skew(exps[i], exps[j]) == pbasis.form.skew(
                    basis_vector(2 * n, i), basis_vector(2 * n, j)
                ),
                f"gram mismatch at ({i}, {j})",
            )
    psi, psi_prime = _label_maps(exps, pmut, dmut)

    def embed(elt):
        return dbasis.form.element(
            {_lattice_map(g, exps): cf for g, cf in elt.terms.items()}
        )

    for a in samples:
        a = tuple(a)
        lbl = psi(a)
        rep.record(
            embed(pbasis.element(a)) == dbasis.element(lbl),
            f"standard embedding fails at {a}",
        )
        lblp = psi_prime(a)
        rep.record(
            embed(pmut.element(a)) == dmut.element(lblp),
            f"mutated embedding fails at {a}",
        )
        rep.record(
            lbl[:n] == a[:n] and lblp[:n] == a[:n],
            f"cluster truncation differs at {a}",
        )
    return rep


def check_qbinomial_products(r_max: int = 6) -> Report:
    """Binomial expansion of the twisted product against closed coefficients."""
    rep = Report(name=f"gaussian binomial products r <= {r_max}")
    for r in range(r_max + 1):
        acc = {0: LaurentPoly.one()}
        for p in range(1, r + 1):
            nxt: dict = {}
            for s, cf in acc.items():
                nxt[s] = nxt.get(s, LaurentPoly.zero()) + cf
                nxt[s + 1] = nxt.get(s + 1, LaurentPoly.zero()) + cf.shifted(2 * p - 1)
            acc = {s: cf for s, cf in nxt.items() if cf}
        for s in range(r + 1):
            want = gaussian_binomial(r, s).substitute_power(2).shifted(s * s)
            rep.record(
                acc.get(s, LaurentPoly.zero()) == want,
                f"coefficient mismatch at r={r}, s={s}",
            )
    return rep


# ---------------------------------------------------------------------------
# Structural property suites.


# Entries of the random labels and frozen shifts of the property suites lie
# in ``-LABEL_BOUND..LABEL_BOUND``.
LABEL_BOUND = 2


def _random_label(rng, m: int):
    return tuple(rng.randint(-LABEL_BOUND, LABEL_BOUND) for _ in range(m))


def check_expand_roundtrip(basis: EBasis, rng, count: int) -> Report:
    rep = Report(name="expansion of a basis element is a delta")
    for _ in range(count):
        a = _random_label(rng, basis.seed.m)
        coeffs = basis.expand(basis.element(a))
        rep.record(
            coeffs == {a: LaurentPoly.one()}, f"roundtrip fails at {a}"
        )
    return rep


def check_bar_triangularity(basis: EBasis, rng, count: int) -> Report:
    rep = Report(name="involution rows sit strictly below their label")
    for _ in range(count):
        a = _random_label(rng, basis.seed.m)
        level = basis.grading(a)
        rep.record(
            all(basis.grading(key) < level for key in basis.r_row(a)),
            f"triangularity fails at {a}",
        )
    return rep


def check_triangular_properties(table: TriangularTable, rng, count: int) -> Report:
    rep = Report(name="triangular element properties on random labels")
    for _ in range(count):
        a = _random_label(rng, table.basis.seed.m)
        rep.absorb(table.verify(a))
    return rep


def check_order_transposition(seed: QuantumSeed, rng, count: int) -> Report:
    """Standard elements do not depend on the compatible order: on ``count``
    random labels, ``E(a)`` under every other order of
    :func:`qca.seed.compatible_orders` equals ``E(a)`` under the seed's own.
    ``C(a)`` is not compared: it is determined by the ``E(a)`` and the bar
    involution, and ``seed_weight_order`` does not read the order.  A seed
    with one compatible order gets no checks, so its report fails."""
    rep = Report(name="order transposition invariance")
    own = EBasis(seed)
    others = [EBasis(seed.replace(order=o)) for o in compatible_orders(seed) if o != seed.order]
    for _ in range(count):
        a = _random_label(rng, seed.m)
        for other in others:
            order = ",".join(str(k + 1) for k in other.seed.order)
            rep.record(other.element(a) == own.element(a), f"E{a} differs under order [{order}]")
    return rep


def check_frozen_shift(mut: MutatedBasis, rng, count: int) -> Report:
    """Expansion coefficients are invariant under purely frozen label shifts."""
    rep = Report(name="frozen shift invariance of expansion coefficients")
    seed = mut.base.seed
    for _ in range(count):
        a = _random_label(rng, seed.m)
        shift = (0,) * seed.n + _random_label(rng, seed.m - seed.n)
        base_coeffs = mut.base.expand(mut.element(a))
        shifted_coeffs = mut.base.expand(mut.element(vec_add(a, shift)))
        expected = {vec_add(key, shift): cf for key, cf in base_coeffs.items()}
        rep.record(shifted_coeffs == expected, f"shift fails at {a} + {shift}")
    return rep
