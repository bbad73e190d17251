"""Checks on the package source itself."""

import ast
from pathlib import Path

import fedsim

PACKAGE = Path(fedsim.__file__).resolve().parent


def test_no_bare_assert_in_the_package():
    # `assert` is stripped under `python -O`; runtime invariants must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []
