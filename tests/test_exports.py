"""Every exported name exists, on its module and on the package.

perfbench/tracing.py looks each name of a module's `__all__` up with
getattr, so a name left in a list after its removal breaks traced runs.
"""

import importlib

import pytest

import raysearch

# the modules the tracer walks; cli declares no __all__
MODULES = ("formulas", "strategy", "simulator", "cover", "potential", "fractional", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"raysearch.{name}")
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []
    assert [n for n in names if not hasattr(raysearch, n)] == []
