"""The export lists are whole: each name in a module's `__all__` exists, and
every public function or class a module defines is in it.

perfbench/tracing.py times only the functions it finds in a module's
`__all__` (every name, for `cli`, which declares none), so a public
function left out of the list drops out of the traced runs unseen.  A
name left in the list after its removal already fails the package's
star import.
"""

import importlib
import inspect

import pytest

# the modules the tracer walks
MODULES = ("formulas", "strategy", "simulator", "cover", "potential", "fractional", "cli")


def _public_definitions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"raysearch.{name}")
    walked = getattr(module, "__all__", None) or dir(module)
    assert [n for n in _public_definitions(module) if n not in walked] == []


def test_a_public_definition_is_found():
    # the check reads the module's own definitions, not its imports
    from raysearch import fractional

    assert sorted(_public_definitions(fractional)) == sorted(fractional.__all__)
