"""Canonical triangular basis elements by bar-invariant elimination.

The triangular element ``C(a)`` is the unique bar-invariant element of
``E(a) + sum_{a'} v Z[v] E(a')``.  It is built directly in the torus: sweep
the terms of ``E(a)`` from the order-highest exponent down, and wherever a
coefficient ``c`` is not bar-invariant add ``[bar(c) - c]_+`` times the
standard element led by that exponent, the unique multiple in ``v Z[v]``
that makes the coefficient bar-invariant (:func:`~qca.laurent.bar_rule`).
Each added element lies strictly below the exponent it corrects, so
coefficients already visited stay fixed.
"""

from __future__ import annotations

import json
import os

from .ebasis import EBasis, MutatedBasis, unit_coefficient_label
from .laurent import LaurentPoly, bar_rule, json_int, parse_laurent
from .report import Report
from .torus import TorusElement

__all__ = [
    "TriangularTable",
    "RowCache",
    "phi_rank2_principal",
    "compare_bases",
    "expansion_records",
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
            row = self.cache.load(a, self._row_faults)
            if row is not None:
                self._rows[a] = row
                return row
        basis = self.basis
        row, element = basis.sweep(basis.element(a), bar_rule)
        # The sweep makes the element bar-invariant: no bar() is spent on it.
        faults = self._row_faults(a, row, assemble=False)
        if faults:
            raise ArithmeticError(faults[0])
        self._rows[a] = row
        self._elements[a] = element
        if self.cache is not None:
            self.cache.store(a, row)
        return row

    def _row_faults(self, a, row, assemble: bool = True) -> list:
        """Every way ``row`` fails to be the row of ``C(a)``: a label at no
        smaller grading than ``a``, a coefficient that is zero or outside
        ``vZ[v]``, and with ``assemble``, once those pass, an assembled element
        that is not bar-invariant or differs from the element already held
        for ``a``.  By uniqueness only the row of ``C(a)`` passes; its element
        is kept for :meth:`element`, and a held element is never replaced."""
        grading = self.basis.grading
        bound = grading(a)
        faults = []
        for key, c in row.items():
            if grading(key) >= bound:
                faults.append(f"row of {a} has label {key} at no smaller grading")
            if not c or not c.in_v_zv():
                faults.append(f"row of {a} has coefficient {c} at {key}, zero or outside vZ[v]")
        if assemble and not faults:
            element = self.basis.assemble({a: LaurentPoly.one(), **row})
            if not element.is_bar_invariant():
                faults.append(f"row of {a} assembles to no bar-invariant element")
            elif self._elements.setdefault(a, element) != element:
                faults.append(f"row of {a} assembles to another element than the one held")
        return faults

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
        return self._elements[a]

    def verify(self, a) -> Report:
        """Re-check the defining properties of a computed row: bar-invariance
        with agreement with the held element, and, per label, grading and
        coefficient, one check each."""
        a = tuple(a)
        row = self.p_row(a)
        return Report(f"triangular properties at {a}", 1 + 2 * len(row), self._row_faults(a, row))


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
    label: the one carrying the unit coefficient of the realized ``E'(a)``,
    expanded by :func:`_expansion_at_leading_label`.
    """
    rep = Report(name="triangular basis agrees across mutation")
    mut = MutatedBasis(basis)
    table = TriangularTable(basis)
    table2 = TriangularTable(mut.abstract)
    for a in labels:
        a = tuple(a)
        try:
            phi_a = unit_coefficient_label(_expansion_at_leading_label(table, mut.element(a)), a)
        except ValueError as exc:
            rep.record(False, f"a={a}: {exc}")
            continue
        expected = table.element(phi_a)
        realized = mut.assemble(table2.expansion(a))
        rep.record(
            realized == expected,
            f"a={a}: mutated element differs from original at {phi_a}",
        )
    return rep


def _expansion_at_leading_label(table: TriangularTable, x: TorusElement) -> dict:
    """Exact standard-basis expansion of ``x``: that of ``x - C(l)`` plus the
    row of ``C(l)``, ``l`` the label led by the leading term of ``x``; exact
    for any ``l`` by linearity, and no sweep at all where ``x = C(l)``."""
    basis = table.basis
    lead = basis.leading_exponent_inverse(x.leading_term(basis.order)[0])
    coeffs = basis.expand(x - table.element(lead))
    for b, c in table.expansion(lead).items():
        s = coeffs.pop(b, 0) + c
        if s:
            coeffs[b] = s
    return coeffs


class RowCache:
    """On-disk store of computed rows, keyed by the seed content hash.

    One append-only log per seed hash.  Each row is one line, ``label key``
    (e.g. ``-1,-1``), a tab, and the compact JSON ``{"p": [...]}``, written
    with a single ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
    writers on one host never drop each other's rows.  Every record starts
    with a newline, so a torn earlier line cannot swallow it.  The newest
    record of a label that decodes and passes the reader's check wins; a line
    that is not a record (a torn one, or a file in another format) reads as a
    miss.  Each load re-reads the log and decodes only the label it is asked
    for, so it sees the rows other writers have appended since.
    """

    def __init__(self, directory: str, seed_hash: str):
        self.directory = directory
        self.path = os.path.join(directory, f"{seed_hash}.json")
        self.hits = 0

    def load(self, a, check=None):
        """The stored row for ``a``, or None.  The log is read afresh and the
        records of ``a`` are decoded newest first; a malformed one, or one for
        which ``check(a, row)`` returns faults, is skipped for the next older one."""
        a = tuple(a)
        try:
            with open(self.path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except OSError:
            return None
        prefix = _label_key(a) + b"\t"
        for line in reversed(lines):
            if not line.startswith(prefix):
                continue
            try:
                row = {}
                for item in json.loads(line[len(prefix):])["p"]:
                    label = tuple(map(json_int, item["a"]))
                    if len(label) != len(a):
                        raise ValueError(f"label {label} does not match {a}")
                    row[label] = parse_laurent(item["coeff"])
            except (KeyError, TypeError, ValueError, RecursionError):
                continue
            if not (check and check(a, row)):
                self.hits += 1
                return row
        return None

    def store(self, a, row: dict):
        """Append the row for ``a`` as one record line, in one write."""
        body = json.dumps({"p": expansion_records(row)}, separators=(",", ":")).encode()
        os.makedirs(self.directory, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, b"\n" + _label_key(a) + b"\t" + body + b"\n")
        finally:
            os.close(fd)


def expansion_records(coeffs: dict) -> list:
    """The ``{"a", "coeff"}`` records of an expansion, sorted by label: the
    rows of the cache log and the expansions ``qca basis`` writes."""
    return [{"a": list(a), "coeff": str(c)} for a, c in sorted(coeffs.items())]


def _label_key(a) -> bytes:
    return ",".join(map(str, a)).encode()
