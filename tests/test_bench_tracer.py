"""The traced benchmark run wraps entry points that still exist.

``bench/tracer.py`` patches class attributes and module functions by name;
a refactor that renames or moves one would silently drop its span.  This
only reads the tracer's tables and patches nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("qca_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_class_spans_name_defined_attributes(tracer):
    for owner, attr, name in tracer.CLASS_SPANS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name}) is gone"
        assert callable(owner.__dict__[attr]), name


def test_function_spans_are_reachable(tracer):
    for fn, name in tracer.FUNCTION_SPANS:
        home = sys.modules[fn.__module__]
        assert getattr(home, fn.__name__, None) is fn, f"{name} is not {fn.__module__}.{fn.__name__}"
        holders = [m for m in tracer.MODULES if any(v is fn for v in vars(m).values())]
        assert holders, f"no traced module holds {name}"
