"""Count code lines: lines holding a token other than a comment, docstrings excluded.

A docstring is the string statement that opens a module, class or function
body.  Blank lines, comment lines and the lines of docstrings do not count;
a line with code and a trailing comment does.

    python tools/code_lines.py src/miscover            # per file, then the total
    python tools/code_lines.py src/miscover/covers.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(paths: list[str]) -> None:
    files = [f for p in map(Path, paths) for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f}")
    if len(files) > 1:
        print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
