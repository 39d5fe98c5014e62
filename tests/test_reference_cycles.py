"""Bases are freed by reference counting alone.

A basis that refers to itself, directly or through its parts, lives until
the cyclic collector runs, and so does every element it cached.  Each case
here builds an object with some elements, switches the collector off, and
checks that dropping the last reference frees the object and its parts at
once.
"""

import gc
import weakref

import pytest

from qca.crystal import Rank2Crystal, rank2_principal_seed
from qca.ebasis import EBasis, MutatedBasis
from qca.kronecker import KroneckerAlgebra
from qca.lusztig import TriangularTable

SEED = rank2_principal_seed(2, 3)
LABELS = [(-2, -1, 0, 0), (-1, -2, 1, 0), (1, -1, 0, 1), (-1, 0, 0, 0)]


def built_ebasis():
    basis = EBasis(SEED)
    for a in LABELS:
        basis.element(a)
    basis.expand(basis.element(LABELS[0]).bar())
    return basis, []


def built_mutated_basis():
    mut = MutatedBasis(EBasis(SEED))
    for a in LABELS:
        mut.element(a)
        mut.abstract.element(a)
    mut.unit_label(LABELS[0])
    return mut, [mut.abstract, mut.base]


def built_triangular_table():
    table = TriangularTable(EBasis(SEED))
    for a in LABELS:
        table.element(a)
    return table, [table.basis]


def built_crystal():
    crystal = Rank2Crystal(2, 1)
    for mm in [(0, 0, 1, 1, 1, 0, 0), (1, 0, 0, 2, 0, 1, 1), (0, 1, 2, 0, 0, 0, 1)]:
        crystal.monomial(mm)
    return crystal, [crystal.basis, crystal.mutated]


def built_kronecker():
    alg = KroneckerAlgebra(horizon=4)
    alg.var(4)
    alg.var(-2)
    alg.table.element((-2, -2))
    alg.verify_chebyshev_family(2)
    return alg, [alg.basis, alg.table]


@pytest.fixture()
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "build",
    [built_ebasis, built_mutated_basis, built_triangular_table, built_crystal, built_kronecker],
    ids=lambda build: build.__name__.removeprefix("built_"),
)
def test_freed_without_the_cyclic_collector(build, no_cyclic_gc):
    obj, parts = build()
    refs = [weakref.ref(x) for x in (obj, *parts)]
    del obj, parts
    assert [r() for r in refs] == [None] * len(refs)
