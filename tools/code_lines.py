"""Count the lines of Python source that hold code.

A line holds code when it is not blank, not comment-only and not inside a
docstring (a string literal that opens a module, class or function body,
found with `ast`).  A line that a multi-line expression or a non-docstring
string spans holds code.

    python tools/code_lines.py src/flatkit/*.py

prints one "code-lines path" row per file and a total, like `wc -l`.  A
directory argument counts as its `*.py` files, in sorted order.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def source_files(paths: list[str]) -> list[str]:
    """The file arguments, each directory replaced by its sorted `*.py` files."""
    out: list[str] = []
    for arg in paths:
        out.extend(sorted(map(str, Path(arg).glob("*.py"))) if Path(arg).is_dir() else [arg])
    return out


def main(paths: list[str]) -> int:
    total = 0
    for path in source_files(paths):
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:8d} {path}")
    print(f"{total:8d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
