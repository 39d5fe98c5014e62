"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``qca`` layer by patching
class and module attributes, and restores every attribute when it is
uninstalled, so the package itself carries no tracing code.  Each wrapped
call records a span (name, start, end, parent) in flat in-memory arrays;
nothing is written until the run ends.  Self times and the per-layer
counters are computed from the spans afterwards.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

import qca
from qca import cli, crystal, ebasis, kronecker, laurent, lusztig, seed, torus, verify

# Every wrapped entry point: (owner, attribute, span name).  Operators are
# wrapped under both their left and right names, because ``2 * p`` and
# ``p * 2`` reach different attributes.
CLASS_SPANS = [
    (laurent.LaurentPoly, "__mul__", "laurent.mul"),
    (laurent.LaurentPoly, "__rmul__", "laurent.mul"),
    (laurent.LaurentPoly, "__add__", "laurent.add"),
    (laurent.LaurentPoly, "__radd__", "laurent.add"),
    (laurent.LaurentPoly, "divide_exact", "laurent.divide_exact"),
    (torus.TorusElement, "__mul__", "torus.mul"),
    (torus.TorusElement, "__rmul__", "torus.mul"),
    (torus.TorusElement, "__add__", "torus.add"),
    (torus.TorusElement, "__radd__", "torus.add"),
    (torus.TorusElement, "scalar_mul", "torus.scalar_mul"),
    (torus.TorusElement, "__pow__", "torus.pow"),
    (torus.TorusElement, "leading_term", "torus.leading_term"),
    (ebasis.EBasis, "element", "ebasis.element"),
    (ebasis.EBasis, "expand", "ebasis.expand"),
    (ebasis.EBasis, "r_row", "ebasis.r_row"),
    (ebasis.MutatedBasis, "element", "ebasis.mutated_element"),
    (ebasis.MutatedBasis, "unit_label", "ebasis.unit_label"),
    (lusztig.TriangularTable, "p_row", "lusztig.p_row"),
    (lusztig.RowCache, "store", "lusztig.rowcache.store"),
    (lusztig.RowCache, "load", "lusztig.rowcache.load"),
    (kronecker.KroneckerAlgebra, "var", "kronecker.var"),
    (crystal.Rank2Crystal, "monomial", "crystal.monomial"),
]

# Module-level functions are imported by name into other modules, so each one
# is replaced in every ``qca`` module that holds it.
FUNCTION_SPANS = [
    (torus.divide, "torus.divide"),
    (lusztig.compare_bases, "lusztig.compare_bases"),
    (seed.validate, "seed.validate"),
    (seed.load_seed, "seed.load"),
    (cli.main, "cli.main"),
    (verify.check_exchange_relations, "verify.check_exchange_relations"),
    (verify.check_principal_identities, "verify.check_principal_identities"),
]

MODULES = [qca, cli, crystal, ebasis, kronecker, laurent, lusztig, seed, torus, verify]


def _laurent_terms(x):
    """Term count of a Laurent operand (an int is one term), or None for an
    operand the product does not accept.  Reads the term dict directly:
    ``items()`` sorts, and a hook runs inside the caller's span, so every
    hook must cost O(1)."""
    if isinstance(x, laurent.LaurentPoly):
        return len(x._terms)
    return 1 if isinstance(x, int) else None


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list = []
        # Counters that need the call's arguments or result.
        self.term_pairs = {"laurent.mul": 0, "torus.mul": 0}
        self.max_operand_terms = 0
        self.terms_scanned = 0
        # id(basis) -> [basis, calls, distinct labels]; holding the basis keeps
        # its id from being reused by a later instance.
        self.element_labels: dict = {}
        self.load_hits = 0
        self.bytes_written = 0

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = {
            "laurent.mul": (self._before_laurent_mul, None),
            "torus.mul": (self._before_torus_mul, None),
            "torus.leading_term": (self._before_leading_term, None),
            "ebasis.element": (self._before_element, None),
            "lusztig.rowcache.load": (None, self._after_load),
            "lusztig.rowcache.store": (None, self._after_store),
        }
        for owner, attr, name in CLASS_SPANS:
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(name, original, *hooks.get(name, (None, None))))
        for original, name in FUNCTION_SPANS:
            wrapped = self._wrap(name, original, *hooks.get(name, (None, None)))
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, before=None, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counting hooks: outside the span they count, inside its parent's ---

    def _before_laurent_mul(self, args):
        a, b = _laurent_terms(args[0]), _laurent_terms(args[1])
        if b is None:
            return
        self.term_pairs["laurent.mul"] += a * b
        if a > self.max_operand_terms or b > self.max_operand_terms:
            self.max_operand_terms = max(a, b)

    def _before_torus_mul(self, args):
        a, b = args
        if isinstance(b, torus.TorusElement):
            self.term_pairs["torus.mul"] += len(a.terms) * len(b.terms)

    def _before_leading_term(self, args):
        self.terms_scanned += len(args[0].terms)

    def _before_element(self, args):
        entry = self.element_labels.get(id(args[0]))
        if entry is None:
            entry = self.element_labels[id(args[0])] = [args[0], 0, set()]
        entry[1] += 1
        entry[2].add(tuple(args[1]))

    def _after_load(self, args, result):
        if result is not None:
            self.load_hits += 1

    def _after_store(self, args, result):
        self.bytes_written += os.path.getsize(args[0].path)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times and ratios computed from the spans."""
        n = len(self.span_name)
        name_of, parent_of = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_time = [0.0] * n
        has_r_row_child = [False] * n
        lead_in_expand = 0
        nid = {name: i for i, name in enumerate(self.names)}
        expand_id, lead_id = nid["ebasis.expand"], nid["torus.leading_term"]
        r_row_id = nid["ebasis.r_row"]
        for i in range(n):
            p = parent_of[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
                if name_of[i] == lead_id and name_of[p] == expand_id:
                    lead_in_expand += 1
                if name_of[i] == r_row_id:
                    has_r_row_child[p] = True
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_of[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child_time[i]
        p_row_id = nid["lusztig.p_row"]
        rows_solved = sum(1 for i in range(n) if name_of[i] == p_row_id and has_r_row_child[i])

        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out["laurent.mul.term_pairs"] = self.term_pairs["laurent.mul"]
        out["laurent.mul.max_operand_terms"] = self.max_operand_terms
        out["torus.mul.term_pairs"] = self.term_pairs["torus.mul"]
        out["torus.leading_term.terms_scanned"] = self.terms_scanned
        out["ebasis.expand.steps"] = lead_in_expand
        out["lusztig.p_row.rows_solved"] = rows_solved
        element_calls = sum(c for _, c, _ in self.element_labels.values())
        distinct = sum(len(seen) for _, _, seen in self.element_labels.values())
        out["ebasis.element.hit_ratio"] = 1 - distinct / element_calls if element_calls else 0.0
        load_calls = out["lusztig.rowcache.load.calls"]
        out["lusztig.rowcache.load.hit_ratio"] = self.load_hits / load_calls if load_calls else 0.0
        out["lusztig.rowcache.store.bytes_written"] = self.bytes_written
        return out

    def write_spans(self, path: str):
        """Dump every span: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
