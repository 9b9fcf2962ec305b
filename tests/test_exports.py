"""The export lists are whole: each name in a module's `__all__` exists, and
every public function or class a module defines is in it.  No module
imports a name it never reads.

perfbench/tracing.py times only the functions it finds in a module's
`__all__` (every name, for `cli`, which declares none), so a public
function left out of the list drops out of the traced runs unseen.  A
name left in the list after its removal already fails the package's
star import.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import raysearch

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


def test_a_growth_step_has_no_record_type():
    # a step is a plain tuple, which the cyclic collector can untrack
    assert not hasattr(raysearch, "GrowthStep")
    assert not hasattr(importlib.import_module("raysearch.potential"), "GrowthStep")


def test_a_public_definition_is_found():
    # the check reads the module's own definitions, not its imports
    from raysearch import fractional

    assert sorted(_public_definitions(fractional)) == sorted(fractional.__all__)


def _unread_imports(source: str) -> list[str]:
    """The names a module's imports bind that it never reads, by its syntax
    tree: a name in `__all__` counts as read, and `__future__` and star
    imports bind none."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, ast.List):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [name for name in bound if name not in read]


SOURCES = sorted(Path(raysearch.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_imported_name_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    # a leftover import beside a read one, a module read through an
    # attribute, an alias, and a name kept for export
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import Iterable, Sequence, TypeVar as T\n"
        "from .simulator import supremum, worst_ratio\n"
        "__all__ = ['worst_ratio']\n"
        "def f(xs: Sequence[float]) -> float:\n"
        "    return math.fsum(xs)\n"
    )
    assert _unread_imports(source) == ["os", "Iterable", "T", "supremum"]
