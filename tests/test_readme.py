"""The README stays current: its Python blocks run, and every
`<module>.<name>` it puts in backticks, for a module of the package,
names something that module has."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("formulas", "strategy", "simulator", "cover", "potential", "fractional", "cli")

_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
_REFERENCE = re.compile(rf"(?<![\w.])(?:raysearch\.)?({'|'.join(MODULES)})\.(\w+)")


def _python_blocks(text: str) -> list[str]:
    return [body for lang, body in _FENCE.findall(text) if lang == "python"]


def _references(text: str) -> list[tuple[str, str]]:
    """(module, name) of each backticked reference outside fenced blocks."""
    prose = _FENCE.sub("", text)
    spans = re.findall(r"`([^`]+)`", prose)
    return sorted({ref for span in spans for ref in _REFERENCE.findall(span)})


def _unresolved(refs: list[tuple[str, str]]) -> list[str]:
    return [
        f"{module}.{name}"
        for module, name in refs
        if not hasattr(importlib.import_module(f"raysearch.{module}"), name)
    ]


def test_python_blocks_run():
    blocks = _python_blocks(README.read_text())
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_every_module_reference_resolves():
    refs = _references(README.read_text())
    assert ("simulator", "MAX_GRID_POINTS") in refs
    assert _unresolved(refs) == []


def test_a_stale_reference_is_found():
    # a private name that is gone, one spread over two lines, and the
    # package-qualified form; file paths and other dotted names are no
    # module references
    text = (
        "One producer, `strategy._cover_rows`, and `cover.verify_multicover(ivs,\n"
        "q, hi)`; `raysearch.cli.main(argv)`, `tests/test_cli.py::TestContract`,"
        " `verdict.assignment` and `demos/expected/<name>.txt`.\n"
        "```python\nstrategy.not_read_in_a_block\n```\n"
    )
    refs = _references(text)
    assert refs == [
        ("cli", "main"), ("cover", "verify_multicover"), ("strategy", "_cover_rows")
    ]
    assert _unresolved(refs) == ["strategy._cover_rows"]
