"""Every check has one home, the CLI or ``tests/``: each function, method or
class defined in ``qca`` is reached from ``qca`` itself, from the benchmark,
or through the package's ``__all__``, never from the tests alone.  A test
oracle lives in the test file that reads it.  Likewise every attribute that
``qca`` sets on ``self`` is read somewhere in ``qca`` or the benchmark, and
every operation has one name: no class re-binds another class's function,
and no class with ``__bool__`` states its truth test again as a method."""

import ast
from collections import Counter
from pathlib import Path

import qca

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qca").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree, strings=False):
    """Every name a tree reads: each variable and attribute, and with
    ``strings`` each string constant, such as an attribute name handed to
    ``setattr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unreached_definitions(sources, bench, exported):
    """``(file, name)`` of each definition in ``sources`` (name -> tree) whose
    name no other part of ``sources`` reads, no part of ``bench`` (a list of
    trees) reads, and ``exported`` does not hold.  Dunders are reached by
    the interpreter and are skipped."""
    used = Counter(name for tree in sources.values() for name in references(tree))
    outside = {name for tree in bench for name in references(tree, strings=True)}
    found = []
    for file, tree in sources.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if not isinstance(node, DEFINITIONS) or name.startswith("__") and name.endswith("__"):
                continue
            own = Counter(references(node))[name]
            if used[name] == own and name not in outside and name not in exported:
                found.append((file, name))
    return sorted(found)


def self_attributes(tree):
    """Each ``name`` that a tree assigns as ``self.<name> = ...``, alone or
    in a tuple of targets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self":
                    yield t.attr


def unread_attributes(sources, bench):
    """``(file, name)`` of each attribute that a tree of ``sources`` (name ->
    tree) assigns on ``self`` and that no attribute load in ``sources`` or
    ``bench`` (a list of trees) reads."""
    read = {
        node.attr
        for tree in [*sources.values(), *bench]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        {(file, name) for file, tree in sources.items() for name in self_attributes(tree) if name not in read}
    )


def class_bindings(tree):
    """``(class, name, source)`` of each class-body line ``name = Owner.attr``,
    which binds an attribute of another class in this one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                for target in stmt.targets:
                    yield node.name, getattr(target, "id", None), ast.unparse(value)


def truth_aliases(tree):
    """``(class, name)`` of each method, other than ``__bool__``, of a class
    that defines ``__bool__``, whose whole body (after any docstring) is
    ``return not self.<attr>`` or ``return bool(self.<attr>)``: a second name
    for the truth test."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)]
        if not any(m.name == "__bool__" for m in methods):
            continue
        for m in methods:
            body = m.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if m.name == "__bool__" or len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not):
                operand = value.operand
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "bool"
                and len(value.args) == 1
                and not value.keywords
            ):
                operand = value.args[0]
            else:
                continue
            if isinstance(operand, ast.Attribute) and ast.unparse(operand.value) == "self":
                yield node.name, m.name


# ``bench/tracer.py`` wraps ``element`` on each basis class alone, so each
# class holds the builder's function itself, under its own name.
SHARED_BINDINGS = [
    ("EBasis", "element", "_StandardMonomials.element"),
    ("MutatedBasis", "element", "_StandardMonomials.element"),
]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_is_reached_outside_the_tests():
    sources = {path.name: parse(path) for path in SOURCES}
    found = unreached_definitions(sources, [parse(path) for path in BENCH], set(qca.__all__))
    assert found == []


def test_unreached_definitions_finds_a_function_only_the_tests_call():
    sources = {
        "a.py": ast.parse(
            "class Kept:\n"
            "    def __repr__(self):\n"
            "        return helper()\n"
            "    def traced(self):\n"
            "        pass\n"
            "def helper():\n"
            "    return Kept\n"
            "def oracle(n):\n"
            "    return oracle(n - 1) if n else Kept\n"
        ),
        "b.py": ast.parse("def exported():\n    pass\n"),
    }
    bench = [ast.parse("setattr(Kept, 'traced', None)\n")]
    # Only its own body calls oracle, and a tree without the setattr string
    # leaves traced reached by nothing.
    assert unreached_definitions(sources, bench, {"exported"}) == [("a.py", "oracle")]
    assert unreached_definitions(sources, [], {"exported"}) == [
        ("a.py", "oracle"), ("a.py", "traced"),
    ]
    assert unreached_definitions(sources, bench, set()) == [("a.py", "oracle"), ("b.py", "exported")]


def test_every_attribute_is_read():
    sources = {path.name: parse(path) for path in SOURCES}
    assert unread_attributes(sources, [parse(path) for path in BENCH]) == []


def test_unread_attributes_finds_an_attribute_nothing_reads():
    sources = {
        "a.py": ast.parse(
            "class Store:\n"
            "    def __init__(self, path):\n"
            "        self.path = path\n"
            "        self.label: str = path\n"
            "        self.hits, self.traced = 0, 0\n"
            "    def load(self):\n"
            "        self.hits += 1\n"
            "        return open(self.path)\n"
        ),
    }
    bench = [ast.parse("store.traced\n")]
    # An increment is no attribute load: hits, only ever incremented, is unread.
    assert unread_attributes(sources, bench) == [("a.py", "hits"), ("a.py", "label")]
    assert unread_attributes(sources, []) == [("a.py", "hits"), ("a.py", "label"), ("a.py", "traced")]


def test_no_class_binds_another_class_function_under_a_second_name():
    found = [binding for path in SOURCES for binding in class_bindings(parse(path))]
    assert found == SHARED_BINDINGS


def test_class_bindings_finds_an_alias():
    tree = ast.parse(
        "class Base:\n"
        "    def power(self, k):\n"
        "        return k\n"
        "class Child(Base):\n"
        "    __slots__ = ()\n"
        "    power = Base.power\n"
        "    power_alias = Base.power\n"
        "    __radd__ = __add__ = power\n"
    )
    # A same-class alias or a constant is not another class's function.
    assert list(class_bindings(tree)) == [
        ("Child", "power", "Base.power"), ("Child", "power_alias", "Base.power"),
    ]


def test_no_class_states_its_truth_test_twice():
    found = [alias for path in SOURCES for alias in truth_aliases(parse(path))]
    assert found == []


def test_truth_aliases_finds_a_second_zero_test():
    tree = ast.parse(
        "class Poly:\n"
        "    def __bool__(self):\n"
        "        return bool(self.terms)\n"
        "    def is_zero(self):\n"
        "        return not self.terms\n"
        "    def nonzero(self):\n"
        '        """Docstring."""\n'
        "        return bool(self.terms)\n"
        "    def is_one(self):\n"
        "        return self.terms == {0: 1}\n"
        "    def empty(self, other):\n"
        "        return not other.terms\n"
        "class Plain:\n"
        "    def is_zero(self):\n"
        "        return not self.terms\n"
    )
    # A class with no __bool__, another test, or another object's attribute
    # is no second name.
    assert list(truth_aliases(tree)) == [("Poly", "is_zero"), ("Poly", "nonzero")]


def test_sources_found():
    assert len(SOURCES) > 5 and any(path.name == "tracer.py" for path in BENCH)
