"""Acceptance criteria: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) and enforces its runtime budget.
"""

import itertools
import random
import time

from qca.crystal import Rank2Crystal
from qca.ebasis import EBasis, MutatedBasis
from qca.kronecker import KroneckerAlgebra
from qca.laurent import LaurentPoly
from qca.lusztig import TriangularTable, compare_bases, phi_rank2_principal
from qca.seed import principal_seed
from qca.verify import (
    check_bar_triangularity,
    check_bullet_embedding,
    check_exchange_relations,
    check_expand_roundtrip,
    check_frozen_shift,
    check_order_transposition,
    check_principal_identities,
    check_qbinomial_products,
    check_triangular_properties,
    random_principal_seed,
)

v = LaurentPoly.v_power


def _conclude(number, label, ok, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_base_case():
    started = time.time()
    alg = KroneckerAlgebra()
    basis, table = alg.basis, alg.table
    c_elt = table.element((-1, -1))
    ok = c_elt == basis.element((-1, -1)) - basis.element((1, 1)).scalar_mul(v(4))
    xd = (alg.var(3) * alg.var(0)).scalar_mul(v(1)) - (
        alg.var(2) * alg.var(1)
    ).scalar_mul(v(3))
    ok = ok and c_elt == xd
    _conclude(1, "affine base case", ok, started, 1.0)


def test_criterion_2_chebyshev_family():
    started = time.time()
    alg = KroneckerAlgebra()
    ok = True
    for r in range(0, 5):
        lhs = alg.chebyshev(r)
        rhs = (alg.var(r + 2) * alg.var(0)).scalar_mul(v(r)) - (
            alg.var(r + 1) * alg.var(1)
        ).scalar_mul(v(r + 2))
        ok = ok and lhs == rhs
    for r in range(1, 5):
        ok = ok and alg.table.element((-r, -r)) == alg.chebyshev(r)
    _conclude(2, "diagonal ray is the Chebyshev family", ok, started, 60.0)


def test_criterion_3_cluster_monomial_labels():
    started = time.time()
    alg = KroneckerAlgebra()
    ok = True
    for m in range(-1, 4):
        al, ar = alg.alpha(m), alg.alpha(m + 1)
        for a1 in range(3):
            for a2 in range(3):
                label = (a1 * al[0] + a2 * ar[0], a1 * al[1] + a2 * ar[1])
                ok = ok and alg.table.element(label) == alg.cluster_monomial(m, a1, a2)
    _conclude(3, "cluster monomial labeling", ok, started, 60.0)


def test_criterion_4_multiplication_case_tables():
    started = time.time()
    rep = KroneckerAlgebra().verify_e_times_x0(3)
    _conclude(4, "multiplication case tables", rep.ok, started, 30.0)


def test_criterion_5_unit_coefficient_conditions():
    started = time.time()
    ok = True
    for b, c in [(1, 1), (2, 1), (2, 2)]:
        mut = MutatedBasis(EBasis(principal_seed(((0, -b), (c, 0)), (c, b))))
        for a1, a2 in itertools.product(range(-2, 3), repeat=2):
            a = (a1, a2, 0, 0)
            coeffs = mut.base.expand(mut.element(a))
            target = phi_rank2_principal(a, b, c)
            units = [k for k, cf in coeffs.items() if cf.is_one()]
            ok = ok and units == [target]
            ok = ok and all(
                cf.in_v_zv() for k, cf in coeffs.items() if k != target
            )
    _conclude(5, "unit coefficient conditions and label map", ok, started, 300.0)


def test_criterion_6_basis_independence():
    started = time.time()
    ok = True
    for b, c in [(1, 1), (2, 1)]:
        basis = EBasis(principal_seed(((0, -b), (c, 0)), (c, b)))
        labels = [
            (a1, a2, 0, 0)
            for a1, a2 in itertools.product(range(-2, 3), repeat=2)
        ]
        rep = compare_bases(basis, labels)
        ok = ok and rep.ok
    _conclude(6, "triangular basis is mutation independent", ok, started, 300.0)


def test_criterion_7_identity_suites():
    started = time.time()
    rng = random.Random(31415)
    ok = check_qbinomial_products(6).ok
    seeds = [random_principal_seed(rng, rng.choice([1, 2, 3])) for _ in range(20)]
    for s in seeds:
        ok = ok and check_exchange_relations(EBasis(s)).ok
        if s.n >= 2:
            ok = ok and check_principal_identities(s).ok
    for b, c in [(1, 1), (2, 1), (2, 2)]:
        cr = Rank2Crystal(b, c)
        ok = ok and cr.verify_identities(bound=2, frozen_range=(-1, 1)).ok
        ok = ok and cr.verify_nu_agreement(200, rng).ok
    _conclude(7, "identity suites", ok, started, 300.0)


def test_criterion_8_property_suite():
    started = time.time()
    rng = random.Random(271828)
    ok = True
    seeds = [random_principal_seed(rng, rng.choice([2, 3])) for _ in range(5)]
    for s in seeds:
        basis = EBasis(s)
        ok = ok and check_expand_roundtrip(basis, rng, 100).ok
        ok = ok and check_bar_triangularity(basis, rng, 30).ok
        ok = ok and check_triangular_properties(
            TriangularTable(basis), rng, 30
        ).ok
    mut = MutatedBasis(EBasis(seeds[0]))
    ok = ok and check_frozen_shift(mut, rng, 50).ok
    ok = (
        ok
        and check_order_transposition(
            principal_seed(((0, 0, -1), (0, 0, -1), (1, 1, 0)), (1, 1, 1)),
            rng,
            30,
        ).ok
    )
    psi_seed = random_principal_seed(rng, 2)
    samples = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(50)]
    ok = ok and check_bullet_embedding(psi_seed, samples).ok
    _conclude(8, "structural property suite", ok, started, 600.0)
