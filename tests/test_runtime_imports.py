"""The runtime is dependency-free: ``qca`` imports only itself and the
standard library, at the top of each module, and loads the process pool only
in a run that starts one."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qca.crystal import rank2_principal_seed
from qca.seed import save_seed

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "qca").glob("*.py"))
ALLOWED = {"qca"} | set(sys.stdlib_module_names)

# The imports allowed inside a function body, as (file, function, module),
# each with the measured reason it is not at the top of its module.
DEFERRED = {
    # The pool pulls in multiprocessing, logging, socket, pickle and
    # subprocess: 20-30 ms and about 2.3 MB of start-up in every qca process,
    # though only --jobs > 1 starts it.
    ("cli.py", "_compare_bases_parallel", "concurrent.futures"),
    # hashlib (loading _hashlib) takes 3.1-4.4 ms by python -X importtime,
    # and only the basis c row cache hashes a seed.
    ("seed.py", "seed_hash", "hashlib"),
}
POOL_PACKAGES = ("concurrent", "multiprocessing")
# Modules no qca process loads.  dataclasses pulls in inspect, ast, dis,
# tokenize, linecache and copy, and each decorated class execs generated
# code: with no bytecode cache, importing qca.cli took 44 ms with it and
# 37 ms without it (medians of 15 fresh processes).
NOT_LOADED = ("dataclasses", "inspect")


def imported_modules(tree):
    """The absolute module names a module imports; relative imports skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def function_imports(node, scope=(), in_function=False):
    """``(qualified function name, module)`` for each import inside a
    function body; a relative module keeps its leading dots."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            is_function = not isinstance(child, ast.ClassDef)
            yield from function_imports(child, scope + (child.name,), in_function or is_function)
            continue
        if in_function and isinstance(child, ast.Import):
            yield from ((".".join(scope), alias.name) for alias in child.names)
        elif in_function and isinstance(child, ast.ImportFrom):
            yield ".".join(scope), "." * child.level + (child.module or "")
        yield from function_imports(child, scope, in_function)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_stdlib(path):
    outside = sorted(
        name for name in imported_modules(parse(path)) if name.split(".")[0] not in ALLOWED
    )
    assert not outside, f"{path.name} imports {outside}"


def test_imports_inside_functions_are_only_the_deferred_ones():
    found = {
        (path.name, function, module)
        for path in SOURCES
        for function, module in function_imports(parse(path))
    }
    assert found == DEFERRED


def test_function_imports_finds_nested_and_method_imports():
    tree = ast.parse(
        "import os\n"
        "class C:\n"
        "    import re\n"
        "    def m(self):\n"
        "        if True:\n"
        "            from . import x\n"
        "def f():\n"
        "    def g():\n"
        "        import json, math\n"
    )
    assert list(function_imports(tree)) == [("C.m", "."), ("f.g", "json"), ("f.g", "math")]


def run_fresh(script, *args):
    """The last stdout line of ``script`` as JSON, run in a fresh interpreter
    so that nothing this test session imported counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_with_one_job_loads_no_process_pool(tmp_path):
    script = f"""
import json, sys
pool = lambda: sorted(m for m in sys.modules if m.split(".")[0] in {POOL_PACKAGES!r})
from qca.cli import main
after_import = pool()
seed = sys.argv[2]
codes = [
    main(["seed", "principal", "--B", sys.argv[1], "--d", "1,1", "-o", seed]),
    main(["verify", "compare-bases", "--seed", seed, "--window", "1", "--jobs", "1"]),
]
print(json.dumps([codes, after_import, pool()]))
"""
    bfile = tmp_path / "b.json"
    bfile.write_text("[[0,-1],[1,0]]")
    out, (codes, after_import, after_run) = run_fresh(script, bfile, tmp_path / "p.json")
    assert "(9 checks)" in out
    assert codes == [0, 0]
    assert after_import == [] and after_run == []


def test_basis_c_loads_no_dataclasses(tmp_path):
    script = f"""
import json, sys
before = set(sys.modules)
from qca.cli import main
code = main(["basis", "c", sys.argv[1], "--a=-2,-1,0,0", "--cache", sys.argv[2]])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""
    seed = tmp_path / "p.json"
    save_seed(rank2_principal_seed(3, 2), seed)
    out, (code, loaded) = run_fresh(script, seed, tmp_path / "cache")
    assert code == 0 and out.startswith("C = E(-2,-1,0,0) +")
    assert "qca.cli" in loaded
    assert [name for name in NOT_LOADED if name in loaded] == []


def test_only_the_row_cache_loads_hashlib(tmp_path):
    script = """
import json, sys
from qca.cli import main
seed, cache = sys.argv[1:]
codes = [main(["verify", "compare-bases", "--seed", seed, "--window", "1"])]
loaded = ["hashlib" in sys.modules]
codes.append(main(["basis", "c", seed, "--a=-2,-1,0,0", "--cache", cache]))
loaded.append("hashlib" in sys.modules)
print(json.dumps([codes, loaded]))
"""
    seed = tmp_path / "p.json"
    save_seed(rank2_principal_seed(3, 2), seed)
    _, (codes, loaded) = run_fresh(script, seed, tmp_path / "cache")
    assert codes == [0, 0]
    assert loaded == [False, True]


def test_sources_found():
    assert len(SOURCES) > 5
