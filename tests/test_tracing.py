"""The benchmark tracer's tables name functions that exist.

perfbench/tracing.py wraps helikon functions by (module, attribute) and
looks each one up with getattr and no default, so a renamed or deleted
function breaks `perfbench/run.py --trace 1`.  The tracer is only read
here, never installed.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "tracing.py"
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve(tracing):
    names = [(mod, attr) for mod, attr, *_ in tracing.FUNCTIONS]
    names += [(mod, attr) for mod, attr, _ in tracing.COUNTED]
    names += [tuple(name.rsplit(".", 1)) for name, _ in tracing.INCLUSIVE]
    for mod, attr in names:
        assert callable(getattr(importlib.import_module(mod), attr)), (mod, attr)


def test_wrapped_methods_resolve(tracing):
    for mod, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod), cls_name)
        assert callable(cls.__dict__[attr]), (mod, cls_name, attr)
