"""Canonical triangular basis elements by bar-invariant elimination.

The triangular element ``C(a)`` is the unique bar-invariant element of
``E(a) + sum_{a'} v Z[v] E(a')``.  It is built directly in the torus: sweep
the terms of ``E(a)`` from the order-highest exponent down, and wherever a
coefficient ``c`` is not bar-invariant add ``[bar(c) - c]_+`` times the
standard element led by that exponent, the unique multiple in ``v Z[v]``
that makes the coefficient bar-invariant.  Each added element lies strictly
below the exponent it corrects, so coefficients already visited stay fixed.
"""

from __future__ import annotations

import json
import os
import tempfile

from .ebasis import EBasis, MutatedBasis
from .laurent import LaurentPoly, parse_laurent
from .report import Report
from .torus import TorusElement

__all__ = [
    "TriangularTable",
    "RowCache",
    "phi_rank2_principal",
    "cluster_monomial_check",
    "compare_bases",
]


class TriangularTable:
    """Per-seed table of correction rows and assembled basis elements."""

    def __init__(self, basis: EBasis, cache: "RowCache | None" = None):
        self.basis = basis
        self.cache = cache
        self._rows: dict = {}
        self._elements: dict = {}

    def p_row(self, a) -> dict:
        """Correction coefficients for label ``a`` (excluding ``a`` itself)."""
        a = tuple(a)
        row = self._rows.get(a)
        if row is not None:
            return row
        if self.cache is not None:
            row = self.cache.load(a)
            if row is not None:
                self._rows[a] = row
                return row
        basis = self.basis
        row, element = basis.sweep(basis.element(a), _bar_correction)
        bound = basis.grading(a)
        for key in row:
            if basis.grading(key) >= bound:
                raise ArithmeticError(f"row of {a} has label {key} at no smaller grading")
        self._rows[a] = row
        self._elements[a] = element
        if self.cache is not None:
            self.cache.store(a, row)
        return row

    def expansion(self, a) -> dict:
        """Full standard-basis expansion of the triangular element."""
        a = tuple(a)
        out = {a: LaurentPoly.one()}
        out.update(self.p_row(a))
        return out

    def element(self, a) -> TorusElement:
        """The triangular basis element for label ``a`` as a torus element."""
        a = tuple(a)
        self.p_row(a)
        element = self._elements.get(a)
        if element is None:  # the row was read from the cache
            element = self._elements[a] = self.basis.assemble(self.expansion(a))
        return element

    def verify(self, a) -> Report:
        """Re-check the defining properties of a computed row."""
        a = tuple(a)
        rep = Report(name=f"triangular properties at {a}")
        elt = self.basis.assemble(self.expansion(a))
        rep.record(elt.bar() == elt, "element is not bar-invariant")
        bound = self.basis.grading(a)
        for key, p in self.p_row(a).items():
            rep.record(p.in_v_zv(), f"correction at {key} not in vZ[v]: {p}")
            rep.record(
                self.basis.grading(key) < bound,
                f"support label {key} does not have smaller grading than {a}",
            )
        return rep


def _bar_correction(c: LaurentPoly) -> LaurentPoly:
    """The multiple in ``v Z[v]`` whose sum with ``c`` is bar-invariant:
    ``[bar(c) - c]_+``, whose coefficient at ``v^e`` (``e >= 1``) is
    ``c[-e] - c[e]``, read straight from the terms of ``c``."""
    get = c._terms.get
    return LaurentPoly({e: get(-e, 0) - get(e, 0) for e in map(abs, c._terms) if e})


def cluster_monomial_check(table: TriangularTable, a) -> bool:
    """Whether the triangular element for a nonnegative label is the plain
    cluster monomial."""
    a = tuple(a)
    n = table.basis.seed.n
    if any(x < 0 for x in a[:n]):
        raise ValueError("label must be nonnegative on exchange indices")
    return table.element(a) == table.basis.form.monomial(a)


def phi_rank2_principal(a, b: int, c: int):
    """Label correspondence under one mutation of the rank-2 principal seed."""
    if b < 1 or c < 1:
        raise ValueError("parameters must be positive")
    a1, a2, a3, a4 = a
    q1 = max(-a1, 0)
    return (a1, -c * q1 - a2, a3, a4 + min(c * q1, max(-a2, 0)))


def compare_bases(basis: EBasis, labels) -> Report:
    """Exact equality of triangular elements across one sink mutation.

    For every label the mutated-seed element is computed by the same
    elimination run inside the mutated torus, realized back in the original
    torus, and compared against the original element at the corresponding
    label (recovered as the unit coefficient of the realized expansion).
    """
    rep = Report(name="triangular basis agrees across mutation")
    mut = MutatedBasis(basis)
    table = TriangularTable(basis)
    table2 = TriangularTable(mut.abstract)
    for a in labels:
        a = tuple(a)
        try:
            phi_a = mut.unit_label(a)
        except ValueError as exc:
            rep.record(False, f"a={a}: {exc}")
            continue
        expected = table.element(phi_a)
        realized = mut.realize(table2.expansion(a))
        rep.record(
            realized == expected,
            f"a={a}: mutated element differs from original at {phi_a}",
        )
    return rep


class RowCache:
    """On-disk store of computed rows, keyed by the seed content hash.

    One JSON file per seed hash; a mismatched header invalidates the file.
    Writes go through a temp file and rename so concurrent readers never see
    a torn file.
    """

    def __init__(self, directory: str, seed_hash: str):
        self.directory = directory
        self.seed_hash = seed_hash
        self.path = os.path.join(directory, f"{seed_hash}.json")
        self._records = None  # label -> {"p": [...]}
        self.hits = 0

    def _load_all(self):
        if self._records is not None:
            return
        self._records = {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        # A corrupt file or row key is a miss; the row is recomputed.
        if not isinstance(data, dict) or data.get("seed_hash") != self.seed_hash:
            return
        rows = data.get("rows")
        if not isinstance(rows, dict):
            return
        for key, rec in rows.items():
            try:
                a = tuple(int(x) for x in key.split(","))
            except ValueError:
                continue
            self._records[a] = rec

    def load(self, a):
        """The stored row for ``a``, or None; a malformed record is dropped
        and reads as a miss."""
        self._load_all()
        a = tuple(a)
        if a not in self._records:
            return None
        try:
            row = {}
            for item in self._records[a]["p"]:
                label = tuple(int(x) for x in item["a"])
                if len(label) != len(a):
                    raise ValueError(f"label {label} does not match {a}")
                row[label] = parse_laurent(item["coeff"])
        except (KeyError, TypeError, ValueError, OverflowError):
            del self._records[a]
            return None
        self.hits += 1
        return row

    def store(self, a, row: dict):
        self._load_all()
        self._records[tuple(a)] = {
            "p": [{"a": list(lbl), "coeff": str(c)} for lbl, c in sorted(row.items())],
        }
        os.makedirs(self.directory, exist_ok=True)
        payload = {
            "seed_hash": self.seed_hash,
            "rows": {
                ",".join(str(x) for x in label): rec
                for label, rec in self._records.items()
            },
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
