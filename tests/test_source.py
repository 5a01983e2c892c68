"""Rules on the library's source text that no behavioural test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "miscover"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check written as one
    # silently disappears; raise an exception instead (raise AssertionError
    # is allowed, since it is not stripped)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
