"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torlab"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield "torlab" if node.level else node.module


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_modules(tree):
            top = name.split(".")[0]
            if top != "torlab" and top not in sys.stdlib_module_names:
                foreign.append((path.name, name))
    assert foreign == []
