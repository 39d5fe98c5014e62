"""Exact computation of canonical triangular bases in quantum cluster
algebras with acyclic seeds."""

from .laurent import LaurentPoly, gaussian_binomial, parse_laurent
from .torus import (
    ContextMismatch,
    DivisionError,
    SkewForm,
    TorusElement,
    WeightOrder,
    divide,
    quasi_commutes,
    vanishes,
)
from .seed import (
    QuantumSeed,
    compatible_orders,
    double_seed,
    is_acyclic,
    load_seed,
    mutate,
    principal_seed,
    save_seed,
    seed_hash,
    sink_or_source,
    validate,
)
from .ebasis import EBasis, ExpansionError, MutatedBasis
from .lusztig import RowCache, TriangularTable, compare_bases, phi_rank2_principal
from .kronecker import KroneckerAlgebra, a11_seed
from .crystal import Rank2Crystal, rank2_principal_seed
from .report import Report

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "gaussian_binomial",
    "parse_laurent",
    "SkewForm",
    "TorusElement",
    "WeightOrder",
    "divide",
    "quasi_commutes",
    "vanishes",
    "ContextMismatch",
    "DivisionError",
    "QuantumSeed",
    "validate",
    "mutate",
    "is_acyclic",
    "compatible_orders",
    "sink_or_source",
    "principal_seed",
    "double_seed",
    "load_seed",
    "save_seed",
    "seed_hash",
    "EBasis",
    "MutatedBasis",
    "ExpansionError",
    "TriangularTable",
    "RowCache",
    "compare_bases",
    "phi_rank2_principal",
    "KroneckerAlgebra",
    "a11_seed",
    "Rank2Crystal",
    "rank2_principal_seed",
    "Report",
]
