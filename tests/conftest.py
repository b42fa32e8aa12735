"""Shared fixtures: the worked example systems and seeded rank engines."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from flatkit import Chart, ControlAffineSystem, RankEngine, VectorField, field_from_dict
from flatkit.fields import zero_field
from flatkit.sympoly import mono_items, mono_set


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
