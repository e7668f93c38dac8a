"""Source-level invariants of the package."""

import ast
from pathlib import Path

import tcaseries

SRC = Path(tcaseries.__file__).parent


def test_no_assert_statements():
    # runtime checks must raise explicitly: `python -O` strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
