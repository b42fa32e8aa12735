"""Every module-level import of a flatkit module is used by that module.

`__init__.py` is left out: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flatkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, including those inside string annotations."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_import_finder():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "from typing import Optional, Sequence\n"
        "from .a import b as c, d, e\n"
        "__all__ = ['e']\n"
        "def f(x: 'Optional[int]') -> d:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["Sequence", "c", "os"]
