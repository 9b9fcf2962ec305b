"""Comparison-flip mutation pass over one module of raysearch.

Each mutant flips one comparison operator of the module (`<` and `<=`,
or `>` and `>=`, found with `tokenize`, so strings and comments are left
alone), in a copy of `src/` and `tests/` made outside the checkout, and
runs the given test files against it.  A mutant that no test fails
survived.  Standard library only; not a CI step.  From the repo root:

    python tools/mutation_pass.py src/raysearch/potential.py \\
        tests/test_potential.py tests/test_acceptance.py tests/test_cli.py

prints one line per mutant and then the surviving count.  The copy is
made in a temporary directory (under TMPDIR, if set) and removed at the end.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
TIMEOUT = 600.0  # seconds per test run; a mutant that hangs counts as killed


def comparisons(source: str) -> list[tuple[int, int, str]]:
    """(line, column, operator) of every comparison to flip, in order."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(*t.start, t.string) for t in tokens if t.type == tokenize.OP and t.string in FLIP]


def mutate(source: str, line: int, col: int, op: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col : col + len(op)] == op
    lines[line - 1] = text[:col] + FLIP[op] + text[col + len(op) :]
    return "".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="module to mutate, relative to the repo root")
    ap.add_argument("tests", nargs="+", help="test files to run, relative to the repo root")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / args.module
        source = target.read_text()
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args.tests]

        def passes() -> bool:
            try:
                run = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                return False
            return run.returncode == 0

        # a failing or misnamed test file would count every mutant as killed
        if not passes():
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 1
        survivors = 0
        sites = comparisons(source)
        for line, col, op in sites:
            target.write_text(mutate(source, line, col, op))
            survived = passes()
            survivors += survived
            outcome = "survived" if survived else "killed"
            print(f"{args.module}:{line}:{col + 1} {op!r} -> {FLIP[op]!r} {outcome}", flush=True)
    print(f"{survivors} of {len(sites)} mutants survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
