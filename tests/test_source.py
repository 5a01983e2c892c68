"""Rules on the library's source text that no behavioural test can see."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "miscover"


def test_library_parses_at_the_declared_python_floor():
    # requires-python is read by a regex, not tomllib, which is new in 3.11;
    # the rule follows the declared floor, so the two cannot drift apart
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.MULTILINE)
    assert floor is not None, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


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


def _imports_run_at_import(tree):
    """The import statements a module runs when it is imported: not in a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["." * node.level + (node.module or "")]


def test_numpy_is_imported_only_by_the_table_and_oracle_modules():
    # numpy is about 100 ms of a command's start-up: the graph, cover and
    # expression commands run without it, at any level of any module
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("complexity.py", "oracles.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(module.split(".")[0] == "numpy" for module in _imported_modules(node))
    ]
    assert found == []


def test_start_up_imports_stay_lazy():
    # every CLI call pays for what its modules import at import time: numpy
    # loads inside the functions that use it, and the package and the CLI
    # load a submodule only when one of its names is used
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _imports_run_at_import(tree):
            for module in _imported_modules(node):
                eager_numpy = module.split(".")[0] == "numpy"
                eager_submodule = path.name in ("__init__.py", "cli.py") and (
                    module.startswith(".") or module.split(".")[0] == "miscover"
                )
                if eager_numpy or eager_submodule:
                    found.append(f"{path.name}:{node.lineno} {module}")
    assert found == []


def test_oracles_import_no_cover_validator():
    # an oracle must not reuse the code it certifies: the separating-cover
    # search checks each family itself, not through validate_cover or its
    # scan
    path = SRC / "oracles.py"
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in ("validate_cover", "_scan")
    ]
    assert found == []
