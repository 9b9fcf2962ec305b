"""The README stays current: its Python blocks run, every
`<module>.<name>` it puts in backticks, for a module of the package,
names something that module has, and every capitalised name it puts in
backticks alone, such as `Target`, is one the package or the builtins
have."""

import builtins
import importlib
import re
from pathlib import Path

import raysearch

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("formulas", "strategy", "simulator", "cover", "potential", "fractional", "cli")

_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
_REFERENCE = re.compile(rf"(?<![\w.])(?:raysearch\.)?({'|'.join(MODULES)})\.(\w+)")
_CAPITALISED = re.compile(r"[A-Z]\w+")


def _python_blocks(text: str) -> list[str]:
    return [body for lang, body in _FENCE.findall(text) if lang == "python"]


def _spans(text: str) -> list[str]:
    """Each backticked span outside fenced blocks."""
    return re.findall(r"`([^`]+)`", _FENCE.sub("", text))


def _references(text: str) -> list[tuple[str, str]]:
    """(module, name) of each backticked reference outside fenced blocks."""
    return sorted({ref for span in _spans(text) for ref in _REFERENCE.findall(span)})


def _bare_names(text: str) -> list[str]:
    """Each backticked span outside fenced blocks that is one capitalised
    name of two or more characters: a class, an exception or a constant."""
    return sorted({span for span in _spans(text) if _CAPITALISED.fullmatch(span)})


def _unresolved(refs: list[tuple[str, str]]) -> list[str]:
    return [
        f"{module}.{name}"
        for module, name in refs
        if not hasattr(importlib.import_module(f"raysearch.{module}"), name)
    ]


def _unknown(names: list[str]) -> list[str]:
    return [name for name in names if not hasattr(raysearch, name) and not hasattr(builtins, name)]


def test_python_blocks_run():
    blocks = _python_blocks(README.read_text())
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_every_module_reference_resolves():
    text = README.read_text()
    refs = _references(text)
    assert ("simulator", "MAX_GRID_POINTS") in refs
    assert _unresolved(refs) == []
    names = _bare_names(text)
    assert {"Target", "ValueError", "None"} <= set(names)
    assert _unknown(names) == []


def test_a_stale_reference_is_found():
    # a private name that is gone, one spread over two lines, and the
    # package-qualified form; file paths and other dotted names are no
    # module references.  A removed class beside a present one and a
    # builtin; a single letter, a name inside a longer span and one in a
    # fenced block are no bare names
    text = (
        "One producer, `strategy._cover_rows`, and `cover.verify_multicover(ivs,\n"
        "q, hi)`; `raysearch.cli.main(argv)`, `tests/test_cli.py::TestContract`,"
        " `verdict.assignment` and `demos/expected/<name>.txt`.\n"
        "`DetectionReport` or `Target`, `None`; `N`, `Target(1, 2.0)`.\n"
        "```python\nstrategy.not_read_in_a_block\n`GrowthStep`\n```\n"
    )
    refs = _references(text)
    assert refs == [
        ("cli", "main"), ("cover", "verify_multicover"), ("strategy", "_cover_rows")
    ]
    assert _unresolved(refs) == ["strategy._cover_rows"]
    names = _bare_names(text)
    assert names == ["DetectionReport", "None", "Target"]
    assert _unknown(names) == ["DetectionReport"]
