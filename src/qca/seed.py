"""Quantum seeds: validation, mutation, acyclicity, derived constructions.

A seed is the data ``(m, n, Btilde, Lambda, d, order)``: an extended
integer exchange matrix with ``n`` exchange columns and ``m - n`` frozen
rows, a compatible skew-symmetric form on ``Z^m``, positive symmetrizers,
and a linear order on the exchange indices.  All indices in this module are
0-based; seed files and the reports and errors the ``qca`` command prints
use 1-based ones, converted where they are written.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from itertools import islice

from .laurent import json_int
from .torus import (
    SkewForm,
    WeightOrder,
    basis_vector,
    plus_part,
    vec_add,
    vec_neg,
    vec_restrict,
)

__all__ = [
    "QuantumSeed",
    "SeedReport",
    "validate",
    "is_acyclic",
    "compatible_orders",
    "sink_or_source",
    "mutate",
    "exchange_vector",
    "principal_seed",
    "double_seed",
    "bullet_exponents",
    "seed_to_dict",
    "parse_seed",
    "require_valid",
    "read_json",
    "read_seed",
    "load_seed",
    "save_seed",
    "seed_hash",
]


_FIELDS = ("m", "n", "btilde", "lam", "d", "order")


class QuantumSeed:
    """The six fields are fixed at construction: ``==``, ``hash`` and
    ``repr`` read them, and setting or deleting an attribute raises
    AttributeError.  Caches sit in ``__dict__`` beside them, so a pickled
    seed carries them and :meth:`replace` does not."""

    def __init__(self, m: int, n: int, btilde: tuple, lam: tuple, d: tuple, order: tuple):
        # btilde: m rows of n entries; lam: m rows of m entries, skew-symmetric;
        # d: n positive symmetrizers; order: a permutation of range(n).
        self.__dict__.update(zip(_FIELDS, (m, n, btilde, lam, d, order)))
        if not (1 <= self.n <= self.m):
            raise ValueError("need 1 <= n <= m")
        if len(self.btilde) != self.m or any(len(r) != self.n for r in self.btilde):
            raise ValueError("extended exchange matrix must be m x n")
        if len(self.lam) != self.m or any(len(r) != self.m for r in self.lam):
            raise ValueError("skew form matrix must be m x m")
        if len(self.d) != self.n or any(x <= 0 for x in self.d):
            raise ValueError("need n positive symmetrizers")
        if sorted(self.order) != list(range(self.n)):
            raise ValueError("order must be a permutation of the exchange indices")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.m, self.n, self.btilde, self.lam, self.d, self.order)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in zip(_FIELDS, self._fields()))
        return f"QuantumSeed({body})"

    def replace(self, **changes) -> QuantumSeed:
        """A new seed with ``changes`` to its fields, checked as the
        constructor checks; no cached form or validity carries over."""
        return QuantumSeed(**dict(zip(_FIELDS, self._fields()), **changes))

    def column(self, k: int):
        """The k-th exchange column as a vector in Z^m."""
        return tuple(self.btilde[i][k] for i in range(self.m))

    def form(self) -> SkewForm:
        """The skew form of ``lam``, built once per seed object.  It is kept
        in ``__dict__`` rather than as a field, so ``==``, ``hash`` and
        ``replace`` ignore it."""
        form = self.__dict__.get("_form")
        if form is None:
            form = self.__dict__["_form"] = SkewForm(self.lam)
        return form

    def exchange_matrix(self):
        """The top n x n block."""
        return tuple(tuple(row[:]) for row in (r[: self.n] for r in self.btilde[: self.n]))


def _one_based(pairs):
    """Index pairs as reports and errors print them, 1-based."""
    return [(i + 1, j + 1) for i, j in pairs]


class SeedReport:
    """The three validity lists, 0-based; the rest describes the seed and is
    computed only when the report is rendered (``qca seed check``)."""

    listed_orders = 24  # at most, in a rendered report: every order at rank 4

    def __init__(self, seed: QuantumSeed, skew_violations, compat_violations, order_violations):
        self.seed = seed
        self.skew_violations = skew_violations
        self.compat_violations = compat_violations
        self.order_violations = order_violations

    @cached_property
    def acyclic(self) -> bool:
        return is_acyclic(self.seed)

    @cached_property
    def sink_source_exchange(self) -> list:
        return [sink_or_source(self.seed, k, extended=False) for k in range(self.seed.n)]

    @cached_property
    def sink_source_extended(self) -> list:
        return [sink_or_source(self.seed, k, extended=True) for k in range(self.seed.n)]

    @cached_property
    def _orders(self) -> list:
        """The first ``listed_orders + 1`` compatible orders of an acyclic
        seed: there can be n!, so a rendered report lists only so many."""
        if not self.acyclic:
            return []
        return list(islice(_linear_extensions(self.seed), self.listed_orders + 1))

    @property
    def compatible_orders(self) -> list:
        return self._orders[: self.listed_orders]

    @property
    def compatible_orders_complete(self) -> bool:
        return len(self._orders) <= self.listed_orders

    @property
    def valid(self) -> bool:
        return not self.skew_violations and not self.compat_violations

    @property
    def order_compatible(self) -> bool:
        return not self.order_violations

    def violations(self):
        """One line per skew-symmetry or compatibility violation."""
        return [
            f"skew-symmetry violated at ({i + 1}, {j + 1})"
            for i, j in self.skew_violations
        ] + [
            f"compatibility violated at (i={i + 1}, j={j + 1})"
            for i, j in self.compat_violations
        ]

    def lines(self):
        """The verdicts on one line, then the violations, order and classes."""
        verdicts = ["valid" if self.valid else "INVALID"]
        verdicts.append("acyclic" if self.acyclic else "not acyclic")
        if self.acyclic:
            orders = [f"[{','.join(str(k + 1) for k in o)}]" for o in self.compatible_orders]
            if not self.compatible_orders_complete:
                orders.append("...")
            verdicts.append("compatible orders: " + ", ".join(orders))
        out = ["; ".join(verdicts)]
        out.extend("  " + line for line in self.violations())
        out.append(
            "seed order compatible"
            if self.order_compatible
            else "seed order NOT compatible: " + str(_one_based(self.order_violations))
        )
        for k, (ex, ext) in enumerate(
            zip(self.sink_source_exchange, self.sink_source_extended)
        ):
            out.append(f"  k={k + 1}: {ex} in exchange graph, {ext} in extended graph")
        return out

    def to_dict(self):
        return {
            "valid": self.valid,
            "acyclic": self.acyclic,
            "order_compatible": self.order_compatible,
            "skew_violations": _one_based(self.skew_violations),
            "compat_violations": _one_based(self.compat_violations),
            "order_violations": _one_based(self.order_violations),
            "compatible_orders": [[k + 1 for k in o] for o in self.compatible_orders],
            "compatible_orders_complete": self.compatible_orders_complete,
            "sink_source_exchange": self.sink_source_exchange,
            "sink_source_extended": self.sink_source_extended,
        }


def validate(seed: QuantumSeed) -> SeedReport:
    """Check skew-symmetry, compatibility and the order, in one pass.

    Compatibility asks ``L(b_j, e_i) = d_j`` if ``i == j`` and 0 otherwise;
    since ``L`` is skew, ``L(b_j, e_i) = -(L b_j)_i``, so each exchange
    column costs one ``lvec``.  Every violating pair is listed.
    """
    lam = seed.lam
    skew_bad = [
        (i, j) for i in range(seed.m) for j in range(seed.m) if lam[i][j] != -lam[j][i]
    ]
    compat_bad = []
    if not skew_bad:
        form = seed.form()
        for j in range(seed.n):
            lb = form.lvec(seed.column(j))
            compat_bad.extend(
                (i, j) for i in range(seed.m) if -lb[i] != (seed.d[j] if i == j else 0)
            )
    pos = {k: p for p, k in enumerate(seed.order)}
    order_bad = [(i, j) for j, i in _exchange_edges(seed) if pos[i] < pos[j]]
    return SeedReport(seed, skew_bad, compat_bad, order_bad)


def require_valid(seed: QuantumSeed) -> SeedReport:
    """The report of a valid seed; raises ValueError naming every
    skew-symmetry and compatibility violation of an invalid one.  Each seed
    object is validated once: ``__dict__`` keeps its three lists, as for
    the form, but not the report, which refers back to the seed."""
    lists = seed.__dict__.get("_validity")
    if lists is None:
        r = validate(seed)
        lists = (r.skew_violations, r.compat_violations, r.order_violations)
        seed.__dict__["_validity"] = lists
    report = SeedReport(seed, *map(list, lists))
    if not report.valid:
        raise ValueError("seed fails validation: " + "; ".join(report.violations()))
    return report


def _exchange_edges(seed: QuantumSeed):
    """Directed edges j -> i of the exchange graph (entry (i, j) positive)."""
    return [
        (j, i)
        for i in range(seed.n)
        for j in range(seed.n)
        if seed.btilde[i][j] > 0
    ]


def _exchange_graph(seed: QuantumSeed):
    """Successor lists and in-degrees of the exchange graph."""
    succ = [[] for _ in range(seed.n)]
    indeg = [0] * seed.n
    for j, i in _exchange_edges(seed):
        succ[j].append(i)
        indeg[i] += 1
    return succ, indeg


def is_acyclic(seed: QuantumSeed) -> bool:
    """Whether peeling sources removes every vertex of the exchange graph."""
    succ, indeg = _exchange_graph(seed)
    queue = [k for k in range(seed.n) if indeg[k] == 0]
    seen = 0
    while queue:
        k = queue.pop()
        seen += 1
        for i in succ[k]:
            indeg[i] -= 1
            if indeg[i] == 0:
                queue.append(i)
    return seen == seed.n


def _linear_extensions(seed: QuantumSeed):
    """The linear orders with no positive entry above the diagonal, lazily.

    These are the linear extensions of the exchange graph, so they
    are enumerated by repeatedly picking an available source; a placed index
    is marked by in-degree -1, and every change is undone on the way back.
    """
    succ, indeg = _exchange_graph(seed)
    prefix = []

    def extend():
        if len(prefix) == seed.n:
            yield tuple(prefix)
            return
        for k in range(seed.n):
            if indeg[k] == 0:
                indeg[k] = -1
                prefix.append(k)
                for i in succ[k]:
                    indeg[i] -= 1
                yield from extend()
                for i in succ[k]:
                    indeg[i] += 1
                prefix.pop()
                indeg[k] = 0

    return extend()


def compatible_orders(seed: QuantumSeed) -> list:
    """Every compatible order; there are n! for an edgeless exchange graph."""
    return list(_linear_extensions(seed))


def sink_or_source(seed: QuantumSeed, k: int, extended: bool = True) -> str:
    """Classify exchange index ``k`` in the exchange graph.

    With ``extended=True`` frozen rows also contribute outgoing edges
    (edge ``k -> i`` whenever the (i, k) entry of the extended matrix is
    positive), which can demote a sink to "neither"; incoming edges only
    ever come from exchange indices.  An isolated vertex reports "source".
    """
    if not 0 <= k < seed.n:
        raise ValueError("index out of exchange range")
    rows = seed.m if extended else seed.n
    incoming = any(seed.btilde[k][j] > 0 for j in range(seed.n))
    outgoing = any(seed.btilde[i][k] > 0 for i in range(rows))
    if not incoming:
        return "source"
    if not outgoing:
        return "sink"
    return "neither"


def exchange_vector(seed: QuantumSeed, k: int):
    """The exponent ``-e_k + [b_k]_+`` of the leading exchange monomial."""
    if not 0 <= k < seed.n:
        raise ValueError("index out of exchange range")
    return vec_add(vec_neg(basis_vector(seed.m, k)), plus_part(seed.column(k)))


def mutate(seed: QuantumSeed, k: int) -> QuantumSeed:
    """Seed mutation at exchange index ``k``, an involution on ``B`` and ``L``.

    The matrix follows the usual sign/positive-part rule; the form is pulled
    back along the substitution replacing the k-th basis vector by the
    leading exchange exponent.  A sink of the exchange graph moves to the
    front of the order, a source to the back, and an isolated index or one
    with edges both ways keeps its place.  At a sink or source mutation
    negates row and column ``k`` and changes no other exchange entry, so a
    compatible order stays compatible; on it, mutation is an involution
    only at the ends.
    """
    if not 0 <= k < seed.n:
        raise ValueError(f"mutation index {k} out of range [0, {seed.n - 1}]")
    b = seed.btilde
    new_b = []
    for i in range(seed.m):
        row = []
        for j in range(seed.n):
            if i == k or j == k:
                row.append(-b[i][j])
            else:
                row.append(
                    b[i][j]
                    + max(b[i][k], 0) * max(b[k][j], 0)
                    - max(-b[i][k], 0) * max(-b[k][j], 0)
                )
        new_b.append(tuple(row))
    ek_prime = exchange_vector(seed, k)
    form = seed.form()
    vecs = [
        ek_prime if i == k else basis_vector(seed.m, i) for i in range(seed.m)
    ]
    new_lam = tuple(
        tuple(form.skew(vecs[i], vecs[j]) for j in range(seed.m))
        for i in range(seed.m)
    )
    incoming = any(b[k][j] > 0 for j in range(seed.n))
    outgoing = any(b[i][k] > 0 for i in range(seed.n))
    order = seed.order
    if incoming != outgoing:
        rest = tuple(j for j in order if j != k)
        order = (k, *rest) if incoming else (*rest, k)
    return seed.replace(btilde=tuple(new_b), lam=new_lam, order=order)


def principal_seed(exchange_rows, d) -> QuantumSeed:
    """The 2n-row seed stacking the identity under a skew-symmetrizable B.

    The compatible form is the block matrix ``[[0, -D], [D, -DB]]``; raises
    if ``DB`` is not skew-symmetric.
    """
    try:
        B = tuple(tuple(map(json_int, row)) for row in exchange_rows)
        d = tuple(map(json_int, d))
    except TypeError as exc:
        raise ValueError(f"malformed exchange matrix or symmetrizers: {exc}") from exc
    n = len(B)
    if any(len(r) != n for r in B):
        raise ValueError("exchange matrix must be square")
    if len(d) != n or any(x <= 0 for x in d):
        raise ValueError("need n positive symmetrizers")
    for i in range(n):
        for j in range(n):
            if d[i] * B[i][j] != -d[j] * B[j][i]:
                raise ValueError("DB is not skew-symmetric")
    btilde = list(B) + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    lam = []
    for i in range(n):
        lam.append(tuple(0 for _ in range(n)) + tuple(-d[i] if j == i else 0 for j in range(n)))
    for i in range(n):
        lam.append(
            tuple(d[i] if j == i else 0 for j in range(n))
            + tuple(-d[i] * B[i][j] for j in range(n))
        )
    return QuantumSeed(
        m=2 * n,
        n=n,
        btilde=tuple(btilde),
        lam=tuple(lam),
        d=d,
        order=tuple(range(n)),
    )


def double_seed(seed: QuantumSeed) -> QuantumSeed:
    """Adjoin a mirrored frozen copy: 2m rows, form ``L(e,f) - L(e',f')``."""
    m = seed.m
    btilde = tuple(seed.btilde) + tuple((0,) * seed.n for _ in range(m))
    lam = []
    for i in range(m):
        lam.append(tuple(seed.lam[i]) + (0,) * m)
    for i in range(m):
        lam.append((0,) * m + tuple(-x for x in seed.lam[i]))
    return QuantumSeed(
        m=2 * m,
        n=seed.n,
        btilde=btilde,
        lam=tuple(lam),
        d=seed.d,
        order=seed.order,
    )


def bullet_exponents(seed: QuantumSeed):
    """Exponents in the doubled lattice of the 2n principal-shaped generators.

    The first n are the diagonal vectors ``(e_j, e_j)``; the last n pair the
    frozen part of each exchange column with minus its exchange part.
    """
    m, n = seed.m, seed.n
    out = []
    for j in range(n):
        e = basis_vector(m, j)
        out.append(e + e)
    for j in range(n):
        bj = seed.column(j)
        top = vec_restrict(bj, lambda i: i >= n)
        bot = vec_neg(vec_restrict(bj, lambda i: i < n))
        out.append(top + bot)
    return out


def integer_rank(vectors) -> int:
    """Rank of a list of integer vectors, by fraction-free forward elimination."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(i for i, x in enumerate(pivot) if x)
        p = pivot[col]
        rows = [r for r in ([p * x - r[col] * y for x, y in zip(r, pivot)] for r in rows) if any(r)]
        rank += 1
    return rank


def seed_weight_order(seed: QuantumSeed):
    """The term order of weight ``w = L u``, ``u`` the indicator of the
    exchange indices.  Compatibility gives ``w . b_k = L(b_k, u) = d_k > 0``
    on every exchange column ``b_k``."""
    return WeightOrder(seed.form().lvec((1,) * seed.n + (0,) * (seed.m - seed.n)))


# ---------------------------------------------------------------------------
# JSON seed files.  Matrices are row-major; "order" entries are 1-based.


def seed_to_dict(seed: QuantumSeed) -> dict:
    return {
        "m": seed.m,
        "n": seed.n,
        "B": [list(r) for r in seed.btilde],
        "Lambda": [list(r) for r in seed.lam],
        "d": list(seed.d),
        "order": [k + 1 for k in seed.order],
    }


def parse_seed(data: dict) -> QuantumSeed:
    """The seed a dict describes, not validated; malformed data raises ValueError."""
    try:
        d = tuple(map(json_int, data["d"]))
        return QuantumSeed(
            m=json_int(data["m"]),
            n=json_int(data["n"]),
            btilde=tuple(tuple(map(json_int, r)) for r in data["B"]),
            lam=tuple(tuple(map(json_int, r)) for r in data["Lambda"]),
            d=d,
            # The natural order has one entry per symmetrizer; sizing it by
            # len(d) rather than "n" keeps a huge "n" from allocating it.
            order=tuple(json_int(k) - 1 for k in data.get("order", range(1, len(d) + 1))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed seed data: {exc}") from exc


def read_json(path):
    """The value a JSON file holds.  A file nested too deeply to decode
    raises ValueError, as any other malformed one does."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def read_seed(path) -> QuantumSeed:
    """The seed a JSON file describes, not validated; raises ValueError if it
    is malformed.  The one reader of seed files."""
    return parse_seed(read_json(path))


def load_seed(path) -> QuantumSeed:
    """The seed a JSON file describes; raises ValueError if it is malformed
    or invalid."""
    seed = read_seed(path)
    require_valid(seed)
    return seed


def save_seed(seed: QuantumSeed, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seed_to_dict(seed), fh, indent=1)
        fh.write("\n")


def seed_hash(seed: QuantumSeed) -> str:
    """Content hash used to key the on-disk result cache."""
    blob = json.dumps(seed_to_dict(seed), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
