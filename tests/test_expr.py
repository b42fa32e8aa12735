"""Expression layer: parsing, canonical forms, differentiation, evaluation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from flatkit.errors import (
    ParseError,
    PoleError,
    UnknownSymbolError,
    ZeroDenominatorError,
)
from flatkit.expr import (
    Chart,
    antiderivative,
    differentiate,
    eval_at,
    eval_float,
    strip_coordinate_constant,
    substitute,
    transfer,
)
from flatkit.sample import draw_admissible, draw_point, random_rational


@pytest.fixture
def chart():
    return Chart(["x", "y", "z", "theta"], ["eps"])


def test_parse_literals(chart):
    assert chart.parse("3").as_fraction() == 3
    assert chart.parse("0.5").as_fraction() == Fraction(1, 2)
    assert chart.parse("2.25").as_fraction() == Fraction(9, 4)


def test_parse_precedence(chart):
    assert chart.parse("2 + 3 * 4").as_fraction() == 14
    assert chart.parse("2 * 3 ^ 2").as_fraction() == 18
    assert chart.parse("-2^2").as_fraction() == -4
    assert chart.parse("(2 + 3) * 4").as_fraction() == 20
    # all binary operators are left-associative, including ^
    assert chart.parse("2^3^2").as_fraction() == 64
    assert chart.parse("8 / 4 / 2").as_fraction() == 1
    assert chart.parse("8 - 4 - 2").as_fraction() == 2


def test_parse_simplifies(chart):
    z5 = Chart(["z5"]).parse("z5*(1+0)")
    assert z5.render() == "z5"
    e = chart.parse("(x^2 - 1)/(x - 1)")
    assert e.render() == "x + 1"


def test_trig_pythagoras(chart):
    one = chart.parse("sin(theta)^2 + cos(theta)^2")
    assert one.as_fraction() == 1
    e = chart.parse("cot(theta) * sin(theta)")
    assert e == chart.parse("cos(theta)")


def test_sin_cubed_reduces(chart):
    e = chart.parse("sin(theta)^3 + sin(theta)*cos(theta)^2")
    assert e == chart.parse("sin(theta)")


def test_tan_cot_rewritten(chart):
    tan = chart.parse("tan(theta)")
    assert tan == chart.parse("sin(theta)/cos(theta)")
    assert chart.parse("tan(theta)*cot(theta)").as_fraction() == 1


def test_zero_denominator_rejected(chart):
    with pytest.raises(ZeroDenominatorError):
        chart.parse("x / (sin(theta)^2 + cos(theta)^2 - 1)")


def test_unknown_symbol_named(chart):
    with pytest.raises(UnknownSymbolError) as err:
        chart.parse("x + q7")
    assert "q7" in str(err.value)


def test_syntax_error_position(chart):
    with pytest.raises(ParseError):
        chart.parse("x + * y")
    with pytest.raises(ParseError):
        chart.parse("x ^ y")  # non-constant exponent
    with pytest.raises(ParseError):
        chart.parse("x ^ 0.5")
    with pytest.raises(ParseError):
        chart.parse("(x + y")


def test_negative_power_via_parens(chart):
    e = chart.parse("x^(-2)")
    assert e == 1 / (chart.sym("x") ** 2)


def test_render_roundtrip_random(chart):
    rng = random.Random(23)
    names = ["x", "y", "z", "theta", "eps"]
    for _ in range(200):
        e = _random_expr(chart, rng, names)
        again = chart.parse(e.render())
        assert again == e, e.render()


def _random_expr(chart, rng, names, depth=0):
    choice = rng.randint(0, 7 if depth < 3 else 2)
    if choice == 0:
        return chart.const(random_rational(rng))
    if choice in (1, 2):
        return chart.sym(rng.choice(names))
    a = _random_expr(chart, rng, names, depth + 1)
    b = _random_expr(chart, rng, names, depth + 1)
    if choice == 3:
        return a + b
    if choice == 4:
        return a - b
    if choice == 5:
        return a * b
    if choice == 6:
        return a if b.is_zero() else a / b
    fn = rng.choice(["sin", "cos"])
    arg = chart.sym("theta")
    from flatkit.expr import FUNCTION_TABLE

    return a + FUNCTION_TABLE[fn](arg)


def test_additivity_of_canonical_arithmetic(chart):
    rng = random.Random(41)
    names = ["x", "y", "z", "theta", "eps"]
    for _ in range(200):
        a = _random_expr(chart, rng, names)
        b = _random_expr(chart, rng, names)
        assert ((a + b) - a - b).is_zero()


def test_differentiate_basic(chart):
    x = chart.sym("x")
    e = chart.parse("x^3 + x*y")
    assert differentiate(e, "x") == chart.parse("3*x^2 + y")
    assert differentiate(e, "z").is_zero()
    q = chart.parse("x / y")
    assert differentiate(q, "y") == chart.parse("-x/y^2")
    assert differentiate(x**0, "x").is_zero()


def test_differentiate_trig(chart):
    s = chart.parse("sin(theta)")
    c = chart.parse("cos(theta)")
    assert differentiate(s, "theta") == c
    assert differentiate(c, "theta") == -s
    cot = chart.parse("cot(theta)")
    dcot = differentiate(cot, "theta")
    assert dcot == chart.parse("-1/sin(theta)^2")


def test_differentiate_cot_combination(chart):
    # finite-difference shadow check at 3 random sample points
    e = chart.parse("x*cot(theta) + z")
    d = differentiate(e, "x")
    assert d == chart.parse("cot(theta)")
    rng = random.Random(17)
    for _ in range(3):
        vals = {
            "x": rng.uniform(-2, 2),
            "y": 0.0,
            "z": rng.uniform(-2, 2),
            "theta": rng.uniform(0.3, 1.2),
            "eps": 1.0,
        }
        h = 1e-6
        up = dict(vals, x=vals["x"] + h)
        dn = dict(vals, x=vals["x"] - h)
        fd = (eval_float(e, up) - eval_float(e, dn)) / (2 * h)
        exact = eval_float(d, vals)
        assert abs(fd - exact) / max(1.0, abs(exact)) < 1e-6


def test_differentiate_opaque_chain_rule(chart):
    e = chart.parse("exp(x^2)")
    d = differentiate(e, "x")
    assert d == chart.parse("2*x*exp(x^2)")
    lg = chart.parse("ln(x^2 + 1)")
    assert differentiate(lg, "x") == chart.parse("2*x/(x^2 + 1)")
    sq = chart.parse("sqrt(x^2 + 1)")
    dsq = differentiate(sq, "x")
    assert dsq == chart.parse("x / sqrt(x^2 + 1)")
    st = chart.parse("sin(x*y)")
    assert differentiate(st, "x") == chart.parse("y*cos(x*y)")


def test_mixed_partials_commute(chart):
    rng = random.Random(77)
    names = ["x", "y", "theta"]
    for _ in range(40):
        e = _random_expr(chart, rng, names)
        dxy = differentiate(differentiate(e, "x"), "y")
        dyx = differentiate(differentiate(e, "y"), "x")
        assert (dxy - dyx).is_zero()


def test_eval_exact(chart):
    c2 = Chart(["x3", "x4", "u1"])
    e = c2.parse("x3 + x4*u1")
    rng = random.Random(1)
    pt = draw_point(c2, rng)
    vals = pt.base_values()
    assert eval_at(e, pt) == vals["x3"] + vals["x4"] * vals["u1"]
    # spec-style concrete check
    e17 = substitute(e, {"x3": 2, "x4": 3, "u1": 5})
    assert e17.as_fraction() == 17


def test_eval_pole(chart):
    from flatkit.sample import SamplePoint

    e = chart.parse("1/(x - 1)")
    ngens = len(chart.gens())
    values = tuple(Fraction(1) for _ in range(ngens))  # x = 1 hits the pole
    with pytest.raises(PoleError):
        eval_at(e, SamplePoint(chart, values))
    # substituting the pole into the expression is a zero-denominator error
    with pytest.raises(ZeroDenominatorError):
        substitute(e, {"x": 1})


def test_eval_respects_circle(chart):
    rng = random.Random(3)
    e = chart.parse("sin(theta)^2 + cos(theta)^2")
    pt = draw_point(chart, rng)
    assert eval_at(e, pt) == 1


def test_eval_float_trig_consistent(chart):
    e = chart.parse("x*cos(theta) + eps*sin(theta)")
    vals = {"x": 0.7, "y": 0.0, "z": 0.0, "theta": 0.4, "eps": 2.0}
    expect = 0.7 * math.cos(0.4) + 2.0 * math.sin(0.4)
    assert abs(eval_float(e, vals) - expect) < 1e-12


def test_draw_admissible_rejects_constraint_zeros(chart):
    rng = random.Random(5)
    eps = chart.sym("eps")
    for _ in range(10):
        pt = draw_admissible(chart, rng, [chart.parse("1/eps")], (eps,))
        assert eval_at(eps, pt) != 0


def test_substitute(chart):
    e = chart.parse("x^2 + eps*sin(theta)")
    got = substitute(e, {"theta": 0})
    assert got == chart.parse("x^2")
    shifted = substitute(e, {"x": chart.parse("x + 1")})
    assert shifted == chart.parse("(x+1)^2 + eps*sin(theta)")


def test_transfer(chart):
    big = chart.extend(["w"])
    e = chart.parse("x*cot(theta) + eps")
    moved = transfer(e, big)
    assert moved == big.parse("x*cot(theta) + eps")
    assert transfer(e, chart) is e


def test_antiderivative_polynomial(chart):
    e = chart.parse("3*x^2 + y")
    F = antiderivative(e, "x")
    assert F is not None
    assert differentiate(F, "x") == e


def test_antiderivative_trig(chart):
    cases = [
        "cos(theta)",
        "sin(theta)",
        "sin(theta)*cos(theta)",
        "cos(theta)^2",
        "cos(theta)^3",
        "eps*cos(theta) + x",
        "theta*cos(theta)",
        "theta^2*sin(theta)",
    ]
    for text in cases:
        e = chart.parse(text)
        F = antiderivative(e, "theta")
        assert F is not None, text
        assert (differentiate(F, "theta") - e).is_zero(), text


def test_antiderivative_outside_class(chart):
    assert antiderivative(chart.parse("1/x"), "x") is None
    assert antiderivative(chart.parse("cot(theta)"), "theta") is None


def test_strip_coordinate_constant(chart):
    e = chart.parse("z + eps*cos(theta) - eps + 1/2")
    assert strip_coordinate_constant(e) == chart.parse("z + eps*cos(theta)")
    untouched = chart.parse("z/(x+1)")
    assert strip_coordinate_constant(untouched) == untouched
