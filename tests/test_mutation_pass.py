import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutation_pass.py"
_SPEC = importlib.util.spec_from_file_location("mutation_pass", _PATH)
mutation_pass = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_pass)
Mutant = mutation_pass.Mutant

SNIPPET = """\
def f(xs, y, z):
    if y == 0 or y != 1:
        return [x for x in xs if x in z]
    if y not in z and y is None:
        return y is not z
    for a, (b, c) in zip(xs, {k: v for k, v in z}):
        xs.sort()
    return sorted(xs)[y - 1] < z
"""


def test_mutants_of_a_snippet():
    # the `in` of each `for` clause, in a statement or a comprehension, stays
    assert mutation_pass.mutants(SNIPPET) == [
        Mutant(2, 9, "==", "!="),
        Mutant(2, 19, "!=", "=="),
        Mutant(3, 35, "in", "not in"),
        Mutant(4, 9, "not ", ""),
        Mutant(4, 24, "is", "is not"),
        Mutant(5, 19, " not", ""),
        Mutant(7, 11, "sort", mutation_pass.NO_SORT),
        Mutant(8, 11, "sorted", mutation_pass.NO_SORTED),
        Mutant(8, 26, "1", "0"),
        Mutant(8, 26, "1", "2"),
        Mutant(8, 27, "", " + 1"),
        Mutant(8, 27, "", " - 1"),
        Mutant(8, 29, "<", "<="),
    ]


def test_each_mutant_changes_its_line_only():
    lines = SNIPPET.splitlines()
    for m in mutation_pass.mutants(SNIPPET):
        mutated = mutation_pass.mutate(SNIPPET, m).splitlines()
        assert mutated[: m.line - 1] + mutated[m.line :] == lines[: m.line - 1] + lines[m.line :]
        compile(mutation_pass.mutate(SNIPPET, m), "<mutant>", "exec")
