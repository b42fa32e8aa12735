"""Vector/covector fields and Lie operations."""

from __future__ import annotations

import random

import pytest

import flatkit.expr
import flatkit.sympoly
from flatkit import fields
from flatkit.errors import ChartMismatchError
from flatkit.expr import Chart, differentiate
from flatkit.fields import (
    CovectorField,
    VectorField,
    differential,
    lie_bracket,
    lie_derivative,
    pair,
    transfer_field,
    zero_field,
)
from flatkit.sympoly import p_is_const

from conftest import (
    coordinate_covector,
    coordinate_field,
    field_from_dict,
    neg_field,
    random_field,
    random_polynomial,
    sub_fields,
    sympy_value,
)


def numeric_bracket(v, w, values, h=1e-5):
    """Finite-difference Jacobian bracket, independent of the symbolic code."""
    names = list(v.chart.coordinates)
    out = []
    for i in range(len(names)):
        total = 0.0
        for j, nj in enumerate(names):
            up = dict(values)
            dn = dict(values)
            up[nj] += h
            dn[nj] -= h
            dw = (sympy_value(w.components[i], up) - sympy_value(w.components[i], dn)) / (2 * h)
            dv = (sympy_value(v.components[i], up) - sympy_value(v.components[i], dn)) / (2 * h)
            total += sympy_value(v.components[j], values) * dw
            total -= sympy_value(w.components[j], values) * dv
        out.append(total)
    return out


def test_bracket_of_field_with_itself_vanishes(vtol):
    assert lie_bracket(vtol.f, vtol.f).is_zero()
    assert lie_bracket(vtol.g1, vtol.g1).is_zero()


def test_vtol_input_fields_commute(vtol):
    assert lie_bracket(vtol.g1, vtol.g2).is_zero()


def test_vtol_drift_brackets(vtol):
    chart = vtol.chart
    fg1 = lie_bracket(vtol.f, vtol.g1)
    assert fg1 == field_from_dict(
        chart,
        {
            "x": "sin(theta)",
            "z": "-cos(theta)",
            "vx": "-omega*cos(theta)",
            "vz": "-omega*sin(theta)",
        },
    )
    fg2 = lie_bracket(vtol.f, vtol.g2)
    assert fg2 == field_from_dict(
        chart,
        {
            "x": "-eps*cos(theta)",
            "z": "-eps*sin(theta)",
            "theta": "-1",
            "vx": "-eps*omega*sin(theta)",
            "vz": "eps*omega*cos(theta)",
        },
    )


def test_seven_state_bracket_against_finite_differences(seven_state, rng):
    sym = lie_bracket(seven_state.f, seven_state.g1)
    assert sym == field_from_dict(
        seven_state.chart,
        {"z1": "-1", "z3": "-z5", "z4": "z6 - z2"},
    )
    values = {name: rng.uniform(-2, 2) for name in seven_state.chart.coordinates}
    approx = numeric_bracket(seven_state.f, seven_state.g1, values)
    for comp, num in zip(sym.components, approx):
        assert abs(sympy_value(comp, values) - num) < 1e-4


def test_drift_bracket_with_last_coordinate_direction(seven_state):
    e7 = coordinate_field(seven_state.chart, "z7")
    got = lie_bracket(seven_state.f, e7)
    e6 = coordinate_field(seven_state.chart, "z6")
    assert got == neg_field(e6)


def test_antisymmetry_on_random_fields(rng):
    for _ in range(100):
        dim = rng.randint(2, 6)
        chart = Chart([f"y{i}" for i in range(dim)])
        v = random_field(chart, rng, degree=3)
        w = random_field(chart, rng, degree=3)
        assert (lie_bracket(v, w) + lie_bracket(w, v)).is_zero()


def dense_bracket(v, w):
    """[v, w]^i = sum_j v^j d_j w^i - w^j d_j v^i over every i and j."""
    chart = v.chart
    out = []
    for i in range(chart.dim):
        total = chart.zero
        for j, name in enumerate(chart.coordinates):
            total = total + v.components[j] * differentiate(w.components[i], name)
            total = total - w.components[j] * differentiate(v.components[i], name)
        out.append(total)
    return VectorField(chart, tuple(out))


def nonzero_indices(field):
    return tuple(i for i, c in enumerate(field.components) if not c.is_zero())


def test_support_is_the_nonzero_components(vtol, rng):
    chart = vtol.chart
    x = chart.sym("x")
    fields = [
        vtol.f,
        zero_field(chart),
        coordinate_field(chart, "z"),
        coordinate_covector(chart, "theta"),
        field_from_dict(chart, {"x": "vx", "vz": 0, "theta": x - x}),
        VectorField(chart, (chart.zero, x, chart.zero, x * x, chart.zero, chart.one)),
        CovectorField(chart, (x, chart.zero, chart.zero, chart.zero, chart.zero, chart.zero)),
        differential(chart.parse("x*vz + sin(theta)")),
        sub_fields(vtol.f, vtol.f),
        vtol.g1 + vtol.g2,
        vtol.g2.scale(x),
        neg_field(vtol.g2),
        transfer_field(vtol.f, chart.extend(["w"])),
        lie_bracket(vtol.f, vtol.g1),
        lie_bracket(vtol.g1, vtol.g2),
    ]
    for field in fields:
        assert field.support == nonzero_indices(field)
        assert field.is_zero() == (not nonzero_indices(field))


def test_sparse_bracket_matches_dense_formula():
    # seeded fields whose supports are disjoint or barely overlap, with
    # rational components, so the sparse loops skip most index pairs
    rng = random.Random(9)
    for _ in range(20):
        dim = rng.randint(3, 7)
        chart = Chart([f"y{i}" for i in range(dim)], ["eps"])
        names = list(chart.coordinates) + ["eps"]
        cut = rng.randint(1, dim - 1)
        comps_v = [chart.zero] * dim
        comps_w = [chart.zero] * dim
        for i in rng.sample(range(cut), rng.randint(1, cut)):
            comps_v[i] = random_polynomial(chart, rng) / (chart.sym(rng.choice(names)) + 1)
        for i in rng.sample(range(cut - 1, dim), rng.randint(1, dim - cut + 1)):
            comps_w[i] = random_polynomial(chart, rng) * chart.sym("eps")
        v = VectorField(chart, tuple(comps_v))
        w = VectorField(chart, tuple(comps_w))
        # a constant field, and two fields that depend on and move along
        # disjoint coordinates, so that the zero-bracket exit meets the formula
        const = VectorField(chart, tuple(chart.const(rng.randint(-2, 2)) for _ in range(dim)))
        low = field_on(chart, chart.coordinates[:cut], rng)
        high = field_on(chart, chart.coordinates[cut:], rng)
        assert lie_bracket(low, high).is_zero()
        pairs = (
            (v, w), (w, v), (v, v), (const, v), (w, const), (const, const),
            (low, high), (high, low), (low, v), (const, high),
        )
        for a, b in pairs:
            br = lie_bracket(a, b)
            assert br == dense_bracket(a, b)
            assert br.support == nonzero_indices(br)


def field_on(chart, names, rng):
    """A field along `names` whose components are polynomials in `names`
    and eps only."""
    def poly():
        total = chart.const(rng.randint(-3, 3))
        for _ in range(2):
            term = chart.const(rng.randint(1, 2)) * chart.sym(rng.choice(names))
            total = total + term * chart.sym(rng.choice(list(names) + ["eps"]))
        return total

    return field_from_dict(chart, {name: poly() for name in names})


def refuse_derivatives(terms):
    raise AssertionError(f"a derivative of {len(terms)} terms was taken")


def test_zero_bracket_takes_no_derivative(monkeypatch):
    chart = Chart(["a", "b", "c", "d"], ["eps"])
    monkeypatch.setattr(fields, "p_derive", refuse_derivatives)
    da, db = coordinate_field(chart, "a"), coordinate_field(chart, "b")
    assert lie_bracket(da, db).is_zero()
    v = field_from_dict(chart, {"a": "a*b + eps", "b": "b^2"})
    w = field_from_dict(chart, {"c": "d*eps", "d": "c*d - 1"})
    assert lie_bracket(v, w).is_zero()
    assert lie_bracket(w, v).is_zero()
    assert v.directions == {"a", "b"} and v.symbols == {"a", "b", "eps"}
    # one coordinate that w moves along and u depends on is enough
    u = field_from_dict(chart, {"a": "c"})
    with pytest.raises(AssertionError, match="was taken"):
        lie_bracket(w, u)


def test_repeated_bracket_returns_the_same_field(monkeypatch):
    chart = Chart(["a", "b"])
    v = field_from_dict(chart, {"a": "b", "b": "a^2"})
    w = field_from_dict(chart, {"a": "a*b"})
    first = lie_bracket(v, w)
    monkeypatch.setattr(fields, "p_derive", refuse_derivatives)
    assert lie_bracket(v, w) is first
    assert first == field_from_dict(chart, {"a": "b^2 + a^3", "b": "-2*a^2*b"})


def test_equal_fields_built_apart_share_one_bracket(monkeypatch):
    chart = Chart(["a", "b"])
    v = field_from_dict(chart, {"a": "b", "b": "a^2"})
    w1 = field_from_dict(chart, {"a": "a*b"})
    w2 = VectorField(chart, (chart.sym("a") * chart.sym("b"), chart.zero))
    assert w1 == w2 and w1 is not w2
    first = lie_bracket(v, w1)
    monkeypatch.setattr(fields, "p_derive", refuse_derivatives)
    assert lie_bracket(v, w2) is first


def test_vanishing_brackets_are_the_charts_one_zero_field(monkeypatch):
    chart = Chart(["a", "b", "c", "d"], ["eps"])
    monkeypatch.setattr(fields, "p_derive", refuse_derivatives)
    v = field_from_dict(chart, {"a": "a*b + eps", "b": "b^2"})
    w = field_from_dict(chart, {"c": "d*eps", "d": "c*d - 1"})
    da, db = coordinate_field(chart, "a"), coordinate_field(chart, "b")
    zero = zero_field(chart)
    assert lie_bracket(v, w) is zero and lie_bracket(w, v) is zero
    assert lie_bracket(da, db) is zero and zero_field(chart) is zero
    assert zero.is_zero() and zero.chart is chart
    assert zero_field(Chart(["a", "b", "c", "d"], ["eps"])) is not zero


def test_fields_on_different_charts_share_no_bracket():
    chart, twin = Chart(["a", "b"]), Chart(["a", "b"])

    def fields_on(c):
        return field_from_dict(c, {"a": "b", "b": "a^2"}), field_from_dict(c, {"a": "a*b"})

    (v, w), (tv, tw) = fields_on(chart), fields_on(twin)
    first, second = lie_bracket(v, w), lie_bracket(tv, tw)
    assert first.chart is chart and second.chart is twin and first != second
    assert set(v._bracket_memo) == {w} and tw not in v._bracket_memo
    assert set(tv._bracket_memo) == {tw} and w not in tv._bracket_memo
    assert lie_bracket(tv, tw) is second


def test_jacobi_identity_on_random_triples(rng):
    for _ in range(50):
        dim = rng.randint(2, 4)
        chart = Chart([f"y{i}" for i in range(dim)])
        u = random_field(chart, rng, degree=2)
        v = random_field(chart, rng, degree=2)
        w = random_field(chart, rng, degree=2)
        total = (
            lie_bracket(u, lie_bracket(v, w))
            + lie_bracket(v, lie_bracket(w, u))
            + lie_bracket(w, lie_bracket(u, v))
        )
        assert total.is_zero()


def test_leibniz_rule_on_random_fields(rng):
    for _ in range(50):
        dim = rng.randint(2, 4)
        chart = Chart([f"y{i}" for i in range(dim)])
        v = random_field(chart, rng, degree=2)
        w = random_field(chart, rng, degree=2)
        h = random_polynomial(chart, rng, degree=2)
        lhs = lie_bracket(v, w.scale(h))
        rhs = w.scale(lie_derivative(h, v)) + lie_bracket(v, w).scale(h)
        assert sub_fields(lhs, rhs).is_zero()


def test_lie_derivative_orders(seven_state):
    chart = seven_state.chart
    h = chart.sym("z1") * chart.sym("z2")
    assert lie_derivative(h, seven_state.f) == chart.sym("z2") ** 2


def test_differential_pairs_like_lie_derivative(rng):
    for _ in range(30):
        dim = rng.randint(2, 5)
        chart = Chart([f"y{i}" for i in range(dim)])
        h = random_polynomial(chart, rng, degree=2)
        v = random_field(chart, rng, degree=2)
        assert pair(differential(h), v) == lie_derivative(h, v)


def test_differential_of_a_quotient_takes_no_gcd(monkeypatch, vtol, rng):
    """For h = n/d each component of `differential` is the polynomial
    d^2 * dh/dx_j, built with no canonicalization and no gcd: on vtol's
    pitch output (one angle) and on seeded plain quotients."""
    chart = Chart(["x1", "x2", "x3"])
    x1, x2, x3 = (chart.sym(n) for n in chart.coordinates)
    quotients = [vtol.chart.parse("x*cos(theta)/sin(theta) + z"), x1 / (1 + x2 * x2)]
    for _ in range(6):
        num = random_polynomial(chart, rng, degree=3)
        quotients.append(num / (1 + x3 * random_polynomial(chart, rng, degree=2) ** 2))
    quotients = [h for h in quotients if not p_is_const(h.den)]
    assert len(quotients) >= 6
    expected = [
        [h.chart.poly(h.den) ** 2 * differentiate(h, name) for name in h.chart.coordinates]
        for h in quotients
    ]

    def refuse(*args):
        raise AssertionError("canonicalized or gcd taken")

    monkeypatch.setattr(flatkit.expr, "_canonicalize", refuse)
    monkeypatch.setattr(flatkit.expr, "p_gcd", refuse)
    monkeypatch.setattr(flatkit.sympoly, "p_gcd", refuse)
    got = [differential(h) for h in quotients]
    monkeypatch.undo()
    for dh, want in zip(got, expected):
        assert list(dh.components) == want
        assert dh.support == tuple(i for i, c in enumerate(want) if not c.is_zero())


def test_coordinate_frame_pairings():
    chart = Chart(["a", "b", "c"])
    for name in chart.coordinates:
        for other in chart.coordinates:
            val = pair(coordinate_covector(chart, name), coordinate_field(chart, other))
            assert val == (chart.one if name == other else chart.zero)


def test_field_arithmetic():
    chart = Chart(["a", "b"])
    v = field_from_dict(chart, {"a": "b"})
    w = field_from_dict(chart, {"a": "1", "b": "a"})
    assert (v + w) == field_from_dict(chart, {"a": "b + 1", "b": "a"})
    assert sub_fields(v, v).is_zero()
    assert neg_field(v) == field_from_dict(chart, {"a": "-b"})
    assert v.scale(chart.sym("a")) == field_from_dict(chart, {"a": "a*b"})
    assert zero_field(chart).is_zero()


def test_transfer_commutes_with_bracket(seven_state):
    bigger = seven_state.chart.extend(["w1", "w2"])
    tv = transfer_field(seven_state.f, bigger)
    tw = transfer_field(seven_state.g1, bigger)
    direct = transfer_field(lie_bracket(seven_state.f, seven_state.g1), bigger)
    assert lie_bracket(tv, tw) == direct


def test_chart_mismatch_is_rejected(seven_state, vtol):
    with pytest.raises(ChartMismatchError):
        lie_bracket(seven_state.f, vtol.f)
    with pytest.raises(ChartMismatchError):
        pair(differential(vtol.chart.sym("x")), seven_state.g1)
    foreign = (vtol.chart.zero,) * seven_state.chart.dim
    for kind in (VectorField, CovectorField):
        with pytest.raises(ChartMismatchError, match="component on a different chart"):
            kind(seven_state.chart, foreign)


def test_component_count_is_validated():
    chart = Chart(["a", "b"])
    for kind in (VectorField, CovectorField):
        with pytest.raises(ValueError, match="expected 2 components, got 1"):
            kind(chart, (chart.zero,))


def test_fields_equal_by_kind_chart_and_components():
    chart, twin = Chart(["a", "b"]), Chart(["a", "b"])
    v = field_from_dict(chart, {"a": "b"})
    same = VectorField(chart, [chart.sym("b"), chart.zero])
    assert v == same and hash(v) == hash(same) and len({v, same}) == 1
    assert v != field_from_dict(twin, {"a": "b"})  # charts compare by identity
    assert v != field_from_dict(chart, {"b": "b"})
    w = CovectorField(chart, v.components)
    w_same = CovectorField(chart, same.components)
    assert w == w_same and hash(w) == hash(w_same)
    assert (w, w) == (w_same, w_same)  # as q_sequence compares covector tuples
    assert v != w and w != v  # the other kind
    assert w != CovectorField(twin, (twin.sym("b"), twin.zero))
