"""The README's Contracts table: each promise names the test that pins it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a test named as `tests/<file>.py::[Class::]name`
_TEST_ID = re.compile(r"`(tests/[\w/]+\.py)::([\w:]+)`")


def _contract_rows():
    """The Contracts table's body rows, as lists of cells."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Contracts\n", 1)
    assert len(section) == 2, "README.md has no '## Contracts' section"
    body = section[1].split("\n## ", 1)[0]
    lines = body[body.index("\n|") + 1:].splitlines()  # the section's first table
    rows = lines[:next((i for i, line in enumerate(lines) if not line.startswith("|")),
                       len(lines))]
    assert rows[0] == "| promise | bound | pinning test |", rows[0]
    return [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows[2:]]


def _defines(path, names):
    """Whether ``path`` defines the function ``names[-1]`` inside the
    classes ``names[:-1]``."""
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for i, name in enumerate(names):
        kinds = (ast.FunctionDef,) if i == len(names) - 1 else (ast.ClassDef,)
        node = next((n for n in scope if isinstance(n, kinds) and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_every_contract_names_tests_that_exist():
    rows = _contract_rows()
    assert len(rows) >= 40
    for promise, bound, tests in rows:
        assert promise and bound, (promise, bound)
        ids = _TEST_ID.findall(tests)
        assert ids, f"contract {promise!r} names no test"
        for path, name in ids:
            assert (ROOT / path).is_file(), path
            assert _defines(path, name.split("::")), f"{path}::{name} is not defined"


def test_every_acceptance_criterion_is_a_contract():
    named = {name for row in _contract_rows() for path, name in _TEST_ID.findall(row[2])
             if path == "tests/test_acceptance.py"}
    tree = ast.parse((ROOT / "tests/test_acceptance.py").read_text(encoding="utf-8"))
    criteria = {n.name for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name.startswith("test_criterion_")}
    assert len(criteria) == 9 and criteria <= named
