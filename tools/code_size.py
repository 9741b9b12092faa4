"""Lines and code tokens of every Python module under a directory.

    python3 tools/code_size.py [DIR]     (DIR defaults to src)

Prints one row per module, its path relative to DIR, with its physical
lines and its code tokens, then a total row.  Code tokens are the NAME,
OP, NUMBER and STRING tokens of the tokenize module, less the STRING
tokens of docstrings (the first statement of a module, class or
function, when it is a string): comments, docstrings and layout do not
count, so the token count measures code that a change adds or deletes.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

CODE = {tokenize.NAME, tokenize.OP, tokenize.NUMBER, tokenize.STRING}


def _docstring_spans(tree):
    """((line, col), (end line, end col)) of every docstring in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                yield ((first.lineno, first.col_offset),
                       (first.end_lineno, first.end_col_offset))


def measure(path: Path):
    """(lines, code tokens) of one Python source file."""
    text = path.read_text()
    spans = list(_docstring_spans(ast.parse(text, filename=str(path))))
    tokens = 0
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in CODE:
                continue
            if tok.type == tokenize.STRING and any(
                    lo <= tok.start < hi for lo, hi in spans):
                continue
            tokens += 1
    return len(text.splitlines()), tokens


def table(root: Path):
    """[(module, lines, tokens)] per .py file under root, sorted by path,
    then ("total", lines, tokens)."""
    rows = [(path.relative_to(root).as_posix(), *measure(path))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return rows


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src")
    rows = table(root)
    width = max(len(r[0]) for r in rows)
    print("%-*s %7s %7s" % (width, "module", "lines", "tokens"))
    for name, lines, tokens in rows:
        print("%-*s %7d %7d" % (width, name, lines, tokens))


if __name__ == "__main__":
    main()
