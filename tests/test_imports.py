"""The package exports exactly what the command line calls; every
module-level import of a flatkit module is used by that module, every public
top-level function and class is used somewhere in `src/`, and so is every
private top-level function, class and constant.  Every public method or
property of a class is read as an attribute somewhere in `src/` outside its
own body, unless it overrides a method of a base class.

`__init__.py` is left out of the usage checks: its imports are the package's
re-exports.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import flatkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flatkit"
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


def _used_names(node: ast.AST, modules: frozenset[str] = frozenset()) -> set[str]:
    """Names used under `node`: loaded names, names in annotations and
    `module.name` attributes of `modules`.  Other strings, such as docstrings
    and `__all__` entries, do not count."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in modules:
                out.add(sub.attr)
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
            out |= _annotation_names(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns:
            out |= _annotation_names(sub.returns)
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = _used_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
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


# What a program needs to run analyze, verify and prolong in-process.
PUBLIC = [
    "__version__",
    "FlatkitError",
    "ModelFileError",
    "ModelFile",
    "load_model",
    "model_from_dict",
    "save_model",
    "build_system",
    "prolonged_model",
    "ControlAffineSystem",
    "prolong",
    "run_algorithm1",
    "run_algorithm2",
    "extract_candidates",
    "output_jets",
    "verify_flat_output",
    "sfe_gtf_test",
]


def test_package_exports_the_command_surface():
    assert flatkit.__all__ == PUBLIC
    exec("from flatkit import *", {})  # every listed name exists
    # nothing else is defined or re-exported; the submodules are attributes
    # of the package once imported
    own = {
        n
        for n, v in vars(flatkit).items()
        if not n.startswith("__") and not isinstance(v, types.ModuleType)
    }
    assert own | {"__version__"} == set(PUBLIC)


# Public names that no code in src/ uses.  Only names the benchmark's tracer
# resolves may stay, until the benchmark stops resolving them (ROADMAP item 4).
UNREFERENCED_ALLOWED = {
    "rank_at_point": "resolved by flatbench/tracer.py; ROADMAP item 4 retires it",
    "draw_admissible": "resolved by flatbench/tracer.py; ROADMAP item 4 retires it",
    "differentiate": "resolved by flatbench/tracer.py; ROADMAP item 4 retires it",
}


def tracer_constants() -> dict[str, tuple]:
    """The module-level tuple constants of flatbench/tracer.py, read from its
    source without importing it."""
    tree = ast.parse((ROOT / "flatbench" / "tracer.py").read_text())
    return {
        t.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for t in node.targets
        if isinstance(t, ast.Name)
    }


def test_allowlist_holds_only_traced_names():
    consts = tracer_constants()
    traced = consts["TIMED"] + consts["SECONDS_ONLY"] + consts["CALLS_ONLY"]
    assert set(UNREFERENCED_ALLOWED) <= {name.rsplit(".", 1)[-1] for name in traced}


def test_cli_import_loads_every_traced_layer():
    # the tracer wraps the modules the command line has loaded
    code = "import sys, flatkit.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    loaded = set(proc.stdout.split())
    assert {f"flatkit.{m}" for m in tracer_constants()["LAYERS"]} <= loaded


def test_cold_start_loads_no_code_generation_modules():
    # dataclasses exec-generates methods on every import and pulls in
    # inspect (with ast, dis, tokenize); the command line needs neither.
    # -S keeps a site hook from preloading either module.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import flatkit, flatkit.cli; "
        "from flatkit import build_system, load_model; "
        "build_system(load_model(sys.argv[2])); "
        "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), str(ROOT / "models" / "vtol.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_canonical_argv_loads_no_argparse():
    # main reads canonical argv from its command table: argparse, and the
    # gettext catalogue lookups its parser build makes, stay out of a process
    # that gets one
    code = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import flatkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = flatkit.cli.main(["verify", sys.argv[2], "--output", "z1", "z3", "--seed", "1"])
print(code, *(m for m in ("argparse", "gettext") if m in sys.modules))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), str(ROOT / "models" / "example3.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def _private_constants(stmt: ast.stmt) -> list[str]:
    """`_`-prefixed names bound by a module-level assignment, dunders aside."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_names(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and private constants, of `sources`
    (module name to text) that no statement but their own definition
    references.  An imported name counts as referenced: an unused import
    fails the test above."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    modules = frozenset(trees)
    defined = []  # (name, its defining statement)
    refs = []  # (statement, names it references)
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((stmt.name, stmt))
            defined += [(name, stmt) for name in _private_constants(stmt)]
            used = _used_names(stmt, modules)
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    used |= {a.name for a in node.names}
            refs.append((stmt, used))
    return sorted(
        name
        for name, own in defined
        if not any(name in used for stmt, used in refs if stmt is not own)
    )


def _unreferenced_in_src() -> list[str]:
    return unreferenced_names({Path(m).stem: (SRC / m).read_text() for m in MODULES})


def test_every_public_name_is_used():
    unused = [n for n in _unreferenced_in_src() if not n.startswith("_")]
    assert [n for n in unused if n not in UNREFERENCED_ALLOWED] == []
    # a listed name that gains a caller or is deleted leaves the list
    assert sorted(UNREFERENCED_ALLOWED) == unused


def test_every_private_name_is_used():
    # no allowlist: a private helper that nothing calls is deleted
    assert [n for n in _unreferenced_in_src() if n.startswith("_")] == []


def test_unreferenced_name_finder():
    sources = {
        "a": (
            "__all__ = ['dead', 'alive']\n"
            "def dead():\n"
            "    return dead()\n"
            "def alive():\n"
            "    \"Not dead.\"\n"
            "    return 1\n"
            "class Hinted:\n"
            "    pass\n"
            "def _private():\n"
            "    return 0\n"
            "_LIMIT: int = 3\n"
            "_UNUSED, __doc__ = 4, 'x'\n"
            "def _limited():\n"
            "    return _LIMIT\n"
        ),
        "b": (
            "from . import a\n"
            "def g(x: 'Hinted'):\n"
            "    from .c import late\n"
            "    return a.alive() + late() + a._limited()\n"
        ),
        "c": "def late():\n    return 2\n",
    }
    assert unreferenced_names(sources) == ["_UNUSED", "_private", "dead", "g"]


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def unread_methods(sources: dict[str, str], namespaces: dict[str, dict]) -> list[str]:
    """`Class.method` for each public method or property of a top-level class
    of `sources` (module name to text) whose name no attribute read outside
    its own body takes.  Dunders count as private.  A method that overrides
    one of a base class, found in the MRO of the live class in `namespaces`
    (module name to its globals), is called through the base and exempt."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = namespaces[module][cls.name].__mro__[1:]
            for fn in cls.body:
                if (
                    isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")
                    and not any(fn.name in vars(base) for base in bases)
                    and reads[fn.name] == _attribute_reads(fn)[fn.name]
                ):
                    out.append(f"{cls.name}.{fn.name}")
    return sorted(out)


def test_every_public_method_is_read():
    sources = {Path(m).stem: (SRC / m).read_text() for m in MODULES}
    namespaces = {m: vars(importlib.import_module(f"flatkit.{m}")) for m in sources}
    assert unread_methods(sources, namespaces) == []


def test_unread_method_finder():
    sources = {
        "a": (
            "class Base:\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        return 1\n"
            "    def dead(self):\n"
            "        return self.dead()\n"
            "    @property\n"
            "    def size(self):\n"
            "        self.gone = 0\n"
            "        return 0\n"
            "    def gone(self):\n"
            "        return 0\n"
            "    def _hidden(self):\n"
            "        return 0\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "class Loud(Exception):\n"
            "    def with_traceback(self, tb):\n"
            "        return self\n"
        ),
        "b": "def use(x):\n    return x.run() + x.size\n",
    }
    namespaces: dict[str, dict] = {}
    for name, text in sources.items():
        exec(text, namespaces.setdefault(name, {}))
    assert unread_methods(sources, namespaces) == ["Base.dead", "Base.gone"]


# -- one owner of the canonical form -----------------------------------------
#
# expr builds every canonical expression: its Chart keeps the trig pairs, the
# circle-reduction mask and the chain rule, and exposes them through public
# methods (`reduce`, `poly`, `index`, `sin_to_cos`) and functions (`chain`,
# `exact_sqrt`).  sympoly defines circle reduction; no other module calls it.


def chart_private_names(expr_source: str) -> set[str]:
    """The private attributes of expr's Chart: its `_` methods and the
    `self._x` attributes its body binds, dunders aside."""
    tree = ast.parse(expr_source)
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Chart"]
    names = {
        fn.name
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
    }
    for sub in ast.walk(cls):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            names.add(sub.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def canonical_form_leaks(sources: dict[str, str], private: set[str]) -> list[str]:
    """`module: what` for each place outside expr that builds or reads the
    canonical form itself: a read of a private Chart attribute, a `_raw=`
    argument, a use of `p_circle_reduce` (sympoly may define it), and any
    import of sympoly by algorithms."""
    out = []
    for module, text in sorted(sources.items()):
        if module == "expr":
            continue
        for sub in ast.walk(ast.parse(text)):
            if isinstance(sub, ast.Attribute) and sub.attr in private:
                out.append(f"{module}: reads Chart.{sub.attr}")
            elif isinstance(sub, ast.keyword) and sub.arg == "_raw":
                out.append(f"{module}: passes _raw=")
            elif module != "sympoly" and "p_circle_reduce" in (
                getattr(sub, "id", None),
                getattr(sub, "attr", None),
                getattr(sub, "name", None),
            ):
                out.append(f"{module}: names p_circle_reduce")
            elif module == "algorithms" and (
                isinstance(sub, ast.ImportFrom)
                and (sub.module or "").split(".")[-1] == "sympoly"
                or isinstance(sub, (ast.Import, ast.ImportFrom))
                and any(a.name.split(".")[-1] == "sympoly" for a in sub.names)
            ):
                out.append(f"{module}: imports sympoly")
    return sorted(set(out))


def test_only_expr_builds_canonical_expressions():
    sources = {Path(m).stem: (SRC / m).read_text() for m in MODULES}
    private = chart_private_names(sources["expr"])
    assert {"_index", "_sin_to_cos", "_circle_high", "_chain_rule"} <= private
    assert canonical_form_leaks(sources, private) == []


def test_canonical_form_leak_finder():
    private = chart_private_names(
        "class Chart:\n"
        "    def __init__(self):\n"
        "        self._index = {}\n"
        "        self.coordinates = ()\n"
        "    def _gen(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    assert private == {"_index", "_gen"}
    sources = {
        "expr": "def f(chart):\n    return chart._index, Expr(chart, {}, {}, _raw=True)\n",
        "sympoly": "def p_circle_reduce(a):\n    return a\n",
        "parser": (
            "from .sympoly import p_circle_reduce\n"
            "def g(chart):\n"
            "    return chart._index[0], chart._gen(), Expr(chart, {}, {}, _raw=True)\n"
        ),
        "algorithms": "from .sympoly import p_sqrt\nfrom . import sympoly\n",
        "fields": "from .expr import chain\ndef h(chart):\n    return chart.index('x')\n",
    }
    assert canonical_form_leaks(sources, private) == [
        "algorithms: imports sympoly",
        "parser: names p_circle_reduce",
        "parser: passes _raw=",
        "parser: reads Chart._gen",
        "parser: reads Chart._index",
    ]
