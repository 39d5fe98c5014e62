"""The runtime is dependency-free: ``qca`` imports only itself and the
standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "qca").glob("*.py"))
ALLOWED = {"qca"} | set(sys.stdlib_module_names)


def imported_modules(tree):
    """The absolute module names a module imports; relative imports skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = sorted(
        name for name in imported_modules(tree) if name.split(".")[0] not in ALLOWED
    )
    assert not outside, f"{path.name} imports {outside}"


def test_sources_found():
    assert len(SOURCES) > 5
