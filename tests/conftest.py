"""Shared fixtures and helpers: the worked example systems, seeded rank
engines, field constructors and the static-feedback transformation the
invariance tests apply."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import settings

from flatkit.expr import Chart, Expr
from flatkit.fields import CovectorField, VectorField, zero_field
from flatkit.linalg import RankEngine
from flatkit.sympoly import mono_items, mono_set
from flatkit.system import ControlAffineSystem

# Every property test draws the same examples on every run, so the tier-1
# time does not depend on which examples hypothesis happens to pick; each
# test sets its own max_examples.
settings.register_profile("flatkit", derandomize=True, deadline=None)
settings.load_profile("flatkit")


def coordinate_field(chart: Chart, name: str) -> VectorField:
    """The unit field d/d(name)."""
    comps = [chart.zero] * chart.dim
    comps[chart.coordinates.index(name)] = chart.one
    return VectorField(chart, tuple(comps))


def coordinate_covector(chart: Chart, name: str) -> CovectorField:
    """The coordinate differential d(name)."""
    comps = [chart.zero] * chart.dim
    comps[chart.coordinates.index(name)] = chart.one
    return CovectorField(chart, tuple(comps))


def field_from_dict(chart: Chart, entries: dict[str, Expr | str | int]) -> VectorField:
    """The field with the given components (parsed text, Expr or integer);
    every other component is zero."""
    comps = [chart.zero] * chart.dim
    for name, value in entries.items():
        if isinstance(value, str):
            value = chart.parse(value)
        elif not isinstance(value, Expr):
            value = chart.const(value)
        comps[chart.coordinates.index(name)] = value
    return VectorField(chart, tuple(comps))


def neg_field(v: VectorField) -> VectorField:
    """-v, component by component."""
    return VectorField(v.chart, tuple(-c for c in v.components))


def sub_fields(v: VectorField, w: VectorField) -> VectorField:
    """v - w, component by component."""
    return v + neg_field(w)


@functools.lru_cache(maxsize=None)
def _sympy_function(text: str, names: tuple[str, ...]):
    sympy = pytest.importorskip("sympy")
    symbols = [sympy.Symbol(n) for n in names]
    parsed = sympy.sympify(text.replace("^", "**"), locals=dict(zip(names, symbols)))
    return sympy.lambdify(symbols, parsed, "math")


def sympy_value(e: Expr, values: dict[str, float]) -> float:
    """e at real values of its base symbols (sin and cos of an angle take
    their real values), evaluated by sympy from the rendered text, so the
    reference shares no arithmetic with flatkit."""
    return float(_sympy_function(e.render(), tuple(values))(*values.values()))


def apply_static_feedback(
    sys: ControlAffineSystem,
    alpha: Sequence[Expr],
    beta: Sequence[Sequence[Expr]],
) -> ControlAffineSystem:
    """Replace u by alpha(x) + beta(x) v for an invertible matrix beta."""
    det = beta[0][0] * beta[1][1] - beta[0][1] * beta[1][0]
    if det.is_zero():
        raise ValueError("feedback matrix is singular")
    f = sys.f + sys.g1.scale(alpha[0]) + sys.g2.scale(alpha[1])
    g1 = sys.g1.scale(beta[0][0]) + sys.g2.scale(beta[1][0])
    g2 = sys.g1.scale(beta[0][1]) + sys.g2.scale(beta[1][1])
    return ControlAffineSystem(sys.chart, sys.inputs, f, g1, g2, sys.engine, sys.name)


@dataclass(frozen=True)
class Plant:
    chart: Chart
    f: VectorField
    g1: VectorField
    g2: VectorField
    engine: RankEngine


def _fields(chart: Chart, f: dict, g1: dict, g2: dict) -> tuple[VectorField, ...]:
    return (
        field_from_dict(chart, f),
        field_from_dict(chart, g1),
        field_from_dict(chart, g2),
    )


@pytest.fixture
def vtol() -> Plant:
    """Planar VTOL: gravity drift, thrust/roll inputs, rolling offset eps."""
    chart = Chart(["x", "z", "theta", "vx", "vz", "omega"], parameters=["eps"])
    f, g1, g2 = _fields(
        chart,
        {"x": "vx", "z": "vz", "theta": "omega", "vz": "-1"},
        {"vx": "-sin(theta)", "vz": "cos(theta)"},
        {"vx": "eps*cos(theta)", "vz": "eps*sin(theta)", "omega": "1"},
    )
    engine = RankEngine(seed=7, constraints=(chart.sym("eps"),))
    return Plant(chart, f, g1, g2, engine)


@pytest.fixture
def seven_state() -> Plant:
    """Seven-state plant whose analysis needs two corrected pivot steps."""
    chart = Chart([f"z{i}" for i in range(1, 8)])
    f, g1, g2 = _fields(
        chart,
        {"z1": "z2", "z3": "z4", "z4": "z5", "z5": "z6", "z6": "z7"},
        {"z2": "1", "z4": "z5", "z5": "z2"},
        {"z7": "1"},
    )
    return Plant(chart, f, g1, g2, RankEngine(seed=11))


@pytest.fixture
def chained5() -> Plant:
    """Chained form on five states: z1' = v1, zl' = z(l+1) v1, z5' = v2."""
    chart = Chart([f"z{i}" for i in range(1, 6)])
    f = zero_field(chart)
    g1 = field_from_dict(chart, {"z1": "1", "z2": "z3", "z3": "z4", "z4": "z5"})
    g2 = field_from_dict(chart, {"z5": "1"})
    return Plant(chart, f, g1, g2, RankEngine(seed=3))


@pytest.fixture
def example1() -> Plant:
    """Five-state plant whose flat output survives only one derivative before
    the inputs appear; needs a prolongation to become triangularizable."""
    chart = Chart([f"x{i}" for i in range(1, 6)])
    f, g1, g2 = _fields(
        chart,
        {"x2": "x3", "x3": "x4", "x4": "x5"},
        {"x1": "1", "x2": "x4", "x3": "x1 - x5", "x4": "x2"},
        {"x5": "1"},
    )
    return Plant(chart, f, g1, g2, RankEngine(seed=41))


@pytest.fixture
def ecf8() -> Plant:
    """Eight-state instance of the chained-tail layout: two length-one output
    chains feeding a three-state tail, driven by chains of lengths 1 and 2."""
    chart = Chart(["z11", "z12", "w1", "w2", "w3", "p1", "s1", "s2"])
    f, g1, g2 = _fields(
        chart,
        {
            "z11": "w1",
            "z12": "w2",
            "w1": "p1",
            "w2": "w3*p1 + z11*w3",
            "w3": "s1 + w1*p1",
            "s1": "s2",
        },
        {"p1": "1"},
        {"s2": "1"},
    )
    return Plant(chart, f, g1, g2, RankEngine(seed=13))


@pytest.fixture
def brunovsky4() -> ControlAffineSystem:
    """Two pure integrator chains of length two."""
    chart = Chart(["z1", "z2", "z3", "z4"])
    f = field_from_dict(chart, {"z1": "z2", "z3": "z4"})
    g1 = field_from_dict(chart, {"z2": "1"})
    g2 = field_from_dict(chart, {"z4": "1"})
    return ControlAffineSystem(
        chart, ("u1", "u2"), f, g1, g2, RankEngine(seed=5), "brunovsky4"
    )


# x1' = x2^2 + u1, x2' = u2: span{g1, g2} is already the tangent space
FULLY_ACTUATED_MODEL = {
    "name": "fully-actuated",
    "states": ["x1", "x2"],
    "inputs": ["u1", "u2"],
    "drift": ["x2^2", "0"],
    "g1": ["1", "0"],
    "g2": ["0", "1"],
}


def as_system(plant: Plant, name: str = "") -> ControlAffineSystem:
    """Wrap a Plant fixture as a two-input control-affine system."""
    return ControlAffineSystem(
        plant.chart, ("u1", "u2"), plant.f, plant.g1, plant.g2, plant.engine, name
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def random_polynomial(chart: Chart, rng: random.Random, degree: int = 2):
    """Small random polynomial in the chart coordinates, integer coefficients."""
    expr = chart.const(rng.randint(-3, 3))
    names = list(chart.coordinates)
    for _ in range(degree):
        term = chart.const(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 2)):
            term = term * chart.sym(rng.choice(names))
        expr = expr + term
    return expr


def random_field(chart: Chart, rng: random.Random, degree: int = 2) -> VectorField:
    comps = [random_polynomial(chart, rng, degree) for _ in chart.coordinates]
    return VectorField(chart, tuple(comps))


def mono(exps) -> int:
    """The packed monomial with exponent exps[i] on generator i, for
    polynomials written out term by term (sympy's exponent tuples among
    them)."""
    m = 0
    for i, e in enumerate(exps):
        if e:
            m = mono_set(m, i, e)
    return m


def exponents(m: int, n: int) -> tuple[int, ...]:
    """The exponents of generators 0, ..., n - 1 in a packed monomial."""
    out = [0] * n
    for i, e in mono_items(m):
        out[i] = e
    return tuple(out)
