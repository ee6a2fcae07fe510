"""Checks over the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orthobox"


def test_no_assert_in_src():
    # Invariants are typed errors: ``python -O`` strips ``assert`` and the
    # CLI would turn an AssertionError into a traceback.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
