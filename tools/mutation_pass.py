"""Mutation pass over one module of raysearch.

Each mutant makes one small change to the module, found with `tokenize`,
so strings and comments are left alone:

* a comparison flips: `<` and `<=`, `>` and `>=`, `==` and `!=`, `in`
  and `not in` (the `in` of a `for` clause stays), `is` and `is not`;
* an integer offset moves by one: the literal after a binary `+` or `-`
  (`j + 1` becomes `j + 2` and `j + 0`);
* a subscript index moves by one: `arrivals[p.f]` becomes
  `arrivals[p.f + 1]` and `arrivals[p.f - 1]`.  Slices, tuple indices
  and string keys are skipped, and so are the subscripts of the builtin
  generics and of any name that starts in upper case, which are taken
  for types (`list[float]`, `Sequence[T]`, but also a variable `A[0]`);
* a sort is dropped: `x.sort(...)` does nothing, and `sorted(x, ...)`
  returns `list(x)`.

The module is changed in a copy of `src/` and `tests/` made outside the
checkout, and the given test files run against it.  A mutant that no
test fails survived.  Standard library only; not a CI step.  From the
repo root:

    python tools/mutation_pass.py src/raysearch/potential.py \\
        tests/test_potential.py tests/test_acceptance.py tests/test_cli.py

prints one line per mutant and then the surviving count.  The copy is
made in a temporary directory (under TMPDIR, if set) and removed at the end.
"""

from __future__ import annotations

import argparse
import io
import keyword
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
TIMEOUT = 600.0  # seconds per test run; a mutant that hangs counts as killed
# subscripted names that only build types, as in `list[float]` or `Sequence[T]`
TYPE_NAMES = {"list", "dict", "tuple", "set", "frozenset", "type", "deque"}
NO_SORT = "__class__ and (lambda *a, **k: None)"  # replaces `sort` after its dot
NO_SORTED = "(lambda it, *a, **k: list(it))"


class Mutant(NamedTuple):
    """Replace `old` at (line, col), 1-based line and 0-based column, by `new`."""

    line: int
    col: int
    old: str
    new: str


def _operand_end(tok: tokenize.TokenInfo) -> bool:
    """Whether a `+` or `-` right after this token is a binary operator."""
    if tok.type == tokenize.NAME:
        return not keyword.iskeyword(tok.string)
    return tok.type == tokenize.NUMBER or tok.string in (")", "]")


def _subscripts(toks: list[tokenize.TokenInfo]) -> list[Mutant]:
    out = []
    for i, tok in enumerate(toks):
        if tok.string != "[" or i == 0 or not _operand_end(toks[i - 1]):
            continue
        before = toks[i - 1].string
        if toks[i - 1].type == tokenize.NAME and (before in TYPE_NAMES or before[:1].isupper()):
            continue
        depth = 0
        for j in range(i, len(toks)):  # j ends at the matching `]`
            if toks[j].type == tokenize.OP:
                depth += (toks[j].string in "([{") - (toks[j].string in ")]}")
            if depth == 0:
                break
        inner = [t for t in toks[i + 1 : j] if t.type not in (tokenize.NL, tokenize.COMMENT)]
        ops = [t.string for t in inner if t.type == tokenize.OP]
        if not inner or ":" in ops or "," in ops or any(t.type == tokenize.STRING for t in inner):
            continue
        out += [Mutant(*toks[j].start, "", shift) for shift in (" + 1", " - 1")]
    return out


def _keyword_flips(toks: list[tokenize.TokenInfo]) -> list[Mutant]:
    """`in` <-> `not in` and `is` <-> `is not`; a `for` clause's `in` is kept.

    Each `for` waits for the first `in` at its own bracket depth.
    """
    out = []
    depth = 0
    fors: list[int] = []  # the depth of each `for` whose `in` is still to come
    for i, tok in enumerate(toks):
        if tok.type == tokenize.OP:
            depth += (tok.string in "([{") - (tok.string in ")]}")
        if tok.type != tokenize.NAME:
            continue
        prev, nxt = toks[i - 1], toks[i + 1]
        if tok.string == "for":
            fors.append(depth)
        elif tok.string == "in" and fors and fors[-1] == depth:
            fors.pop()
        elif tok.string == "in" and prev.string == "not":
            if prev.start[0] == tok.start[0]:  # drop `not` and the space after it
                out.append(Mutant(*prev.start, prev.line[prev.start[1] : tok.start[1]], ""))
        elif tok.string == "in":
            out.append(Mutant(*tok.start, "in", "not in"))
        elif tok.string == "is" and nxt.string == "not":
            if nxt.start[0] == tok.start[0]:  # drop the space and `not`
                out.append(Mutant(*tok.end, tok.line[tok.end[1] : nxt.end[1]], ""))
        elif tok.string == "is":
            out.append(Mutant(*tok.start, "is", "is not"))
    return out


def mutants(source: str) -> list[Mutant]:
    """Every mutant of the module, in source order."""
    toks = list(tokenize.generate_tokens(io.StringIO(source).readline))
    out = [Mutant(*t.start, t.string, FLIP[t.string]) for t in toks
           if t.type == tokenize.OP and t.string in FLIP]
    for i, tok in enumerate(toks[2:], start=2):
        sign, prev = toks[i - 1], toks[i - 2]
        if (tok.type == tokenize.NUMBER and tok.string.isdigit() and sign.string in "+-"
                and sign.type == tokenize.OP and _operand_end(prev)):
            value = int(tok.string)
            out += [Mutant(*tok.start, tok.string, str(v)) for v in (value + 1, value - 1) if v >= 0]
        elif tok.string == "sort" and sign.string == "." and toks[i + 1].string == "(":
            out.append(Mutant(*tok.start, "sort", NO_SORT))
        elif tok.string == "sorted" and sign.string != "." and toks[i + 1].string == "(":
            out.append(Mutant(*tok.start, "sorted", NO_SORTED))
    out += _subscripts(toks) + _keyword_flips(toks)
    return sorted(out)


def mutate(source: str, m: Mutant) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[m.line - 1]
    assert text[m.col : m.col + len(m.old)] == m.old
    lines[m.line - 1] = text[: m.col] + m.new + text[m.col + len(m.old) :]
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
        sites = mutants(source)
        for m in sites:
            target.write_text(mutate(source, m))
            survived = passes()
            survivors += survived
            outcome = "survived" if survived else "killed"
            print(f"{args.module}:{m.line}:{m.col + 1} {m.old!r} -> {m.new!r} {outcome}", flush=True)
    print(f"{survivors} of {len(sites)} mutants survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
