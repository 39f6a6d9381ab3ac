"""The traced benchmark run wraps library functions by module attribute.

`bench/tracer.py` swaps each `(module, attribute)` in its WRAP_POINTS for a
timing wrapper; a name that moves or disappears breaks the traced run, so
every pair must keep resolving to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize("module_name, attr", _wrap_points())
def test_wrap_point_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
