"""Per-layer spans around flatkit's public functions, installed from outside.

`Tracer(flatkit)` wraps every public function of each flatkit module, every
public method of the classes those modules define, and `Expr` construction
(`Expr.__init__`, which is where canonicalization happens).  A wrapper
replaces the original in every flatkit module that binds it, so a function
imported by name elsewhere (`expr` imports `sympoly` functions, for example)
is traced there too; leaving the `with` block restores every binding.

Each wrapper counts calls and times its outermost activation (inclusive
seconds).  Self seconds go to the module of the innermost active span: a
span's duration minus that of the spans nested directly in it, so the
per-module self times add up to the traced time.  Spans live in memory only;
`report()` reduces them to the named per-layer metrics and `table()` lists
every wrapped function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "sympoly",
    "expr",
    "parser",
    "fields",
    "sample",
    "linalg",
    "distributions",
    "algorithms",
    "system",
    "modelfile",
    "cli",
)

# Functions and methods whose calls and inclusive seconds are reported, with
# the end-to-end metric each should move (see README.md).
TIMED = (
    "linalg.RankEngine.rank",
    "sample.draw_admissible",
    "expr.eval_at",
    "sympoly.p_gcd",
    "sympoly.p_mul",
    "sympoly.p_div_exact",
    "expr.Expr",
    "expr.differentiate",
    "linalg.normalize_vector",
    "fields.differential",
    "distributions.Distribution.basis",
    "fields.lie_bracket",
    "system.candidate",
    "linalg.echelon",
    "linalg.right_nullspace",
    "parser.parse",
)
# Reported by inclusive seconds only.
SECONDS_ONLY = (
    "distributions.intersect_with_coordinates",
    "distributions.cauchy_characteristic",
    "distributions.involutive_closure",
    "distributions.first_integrals",
    "algorithms.run_algorithm1",
    "algorithms.run_algorithm2",
    "algorithms.extract_candidates",
    "system.verify_flat_output",
    "system.sfe_gtf_test",
    "system.q_sequence",
    "modelfile.load_model",
    "modelfile.build_system",
    "cli.cmd_analyze",
    "cli.cmd_verify",
)
# Reported by call count only.
CALLS_ONLY = ("linalg.rank_at_point",)
STEP_TAGS = ("A", "B", "C-i", "C-ii", "D")


class _Stat:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.stats: dict[str, _Stat] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.stack: list[list] = []
        self.extra: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [sys.modules[f"{self.package.__name__}.{m}"] for m in LAYERS]
        owners = modules + [self.package]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                    for owner in owners:
                        for attr, val in list(vars(owner).items()):
                            if val is obj:
                                self._set(owner, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if attr == "__init__" and name == "Expr":
                            span = f"{layer}.Expr"
                        elif attr.startswith("_") or not inspect.isfunction(val):
                            continue
                        else:
                            span = f"{layer}.{name}.{attr}"
                        self._set(obj, attr, self._wrap(span, layer, val))
        missing = [n for n in TIMED + SECONDS_ONLY + CALLS_ONLY if n not in self.stats]
        if missing:
            self.__exit__(None, None, None)
            raise LookupError(f"traced functions not found: {missing}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, span: str, layer: str, fn):
        stat = self.stats.setdefault(span, _Stat())
        stack = self.stack
        self_s = self.self_s
        after = _AFTER.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self._snapshot() if after else None
            stat.calls += 1
            stat.depth += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.seconds += elapsed
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after:
                after(self, result, before)
            return result

        return wrapper

    def _snapshot(self) -> tuple[int, int]:
        return (
            self.stats["linalg.rank_at_point"].calls,
            self.stats["system.candidate"].calls,
        )

    # -- reading ------------------------------------------------------------------

    def report(self) -> dict[str, tuple[float, str]]:
        """The named per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (self.stats[name].calls, "count")
            out[f"{name}.s"] = (self.stats[name].seconds, "s")
        for name in SECONDS_ONLY:
            out[f"{name}.s"] = (self.stats[name].seconds, "s")
        for name in CALLS_ONLY:
            out[f"{name}.calls"] = (self.stats[name].calls, "count")
        sampled = self.extra["rank_sampled"]
        points = self.stats["linalg.rank_at_point"].calls
        out["linalg.points_per_rank"] = (points / sampled if sampled else 0.0, "count")
        redraws = self.stats["sample.draw_point"].calls - self.stats["sample.draw_admissible"].calls
        out["sample.redraws"] = (redraws, "count")
        verifies = self.stats["cli.cmd_verify"].calls
        per_verify = self.extra["candidate_in_verify"] / verifies if verifies else 0.0
        out["system.candidate.per_verify"] = (per_verify, "count")
        for tag in STEP_TAGS:
            out[f"algorithms.steps.{tag}"] = (self.extra[f"step_{tag}"], "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def table(self) -> dict[str, dict]:
        return {
            name: {"calls": s.calls, "s": s.seconds}
            for name, s in sorted(self.stats.items())
            if s.calls
        }


def _after_rank(tr: Tracer, result, before) -> None:
    if tr.stats["linalg.rank_at_point"].calls > before[0]:
        tr.extra["rank_sampled"] += 1


def _after_verify(tr: Tracer, result, before) -> None:
    tr.extra["candidate_in_verify"] += tr.stats["system.candidate"].calls - before[1]


def _after_algorithm(tr: Tracer, tree, before) -> None:
    for branch in tree.branches:
        for tag in branch.tags:
            tr.extra[f"step_{tag}"] += 1


_AFTER = {
    "linalg.RankEngine.rank": _after_rank,
    "cli.cmd_verify": _after_verify,
    "algorithms.run_algorithm1": _after_algorithm,
    "algorithms.run_algorithm2": _after_algorithm,
}
