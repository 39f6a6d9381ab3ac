"""The traced benchmark run wraps library functions by module attribute.

`bench/tracer.py` swaps each `(module, attribute)` in its WRAP_POINTS for a
timing wrapper; a name that moves or disappears breaks the traced run, so
every pair must keep resolving to a callable.  A module imports a name it
never uses only to keep such a wrap point alive.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SOURCES = ROOT / "src" / "hlcert"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize("module_name, attr", _wrap_points())
def test_wrap_point_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def _unused_imports():
    """(module, name) for every name a module of hlcert imports and never uses.

    `__future__` imports are skipped, and so is `__init__.py`, whose imports
    are the package's re-exports.
    """
    unused = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(f"hlcert.{path.stem}", name) for name in sorted(imported - used)]
    return unused


def test_every_unused_import_is_a_wrap_point():
    # when the tracer wraps the live call sites instead, the names this
    # reports are the imports to delete
    strays = set(_unused_imports()) - set(_wrap_points())
    assert not strays, f"imported but unused, and not wrapped by the tracer: {sorted(strays)}"
