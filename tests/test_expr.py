"""Expression layer: parsing, canonical forms, differentiation, evaluation."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatkit.errors import (
    MonomialLimitError,
    ParseError,
    PoleError,
    PrimeDenominatorError,
    UnknownSymbolError,
    UnsupportedFunctionError,
    ZeroDenominatorError,
)
from flatkit import expr as expr_module
from flatkit.expr import (
    Chart,
    Expr,
    _map_generators,
    antiderivative,
    differentiate,
    eval_at,
    eval_float,
    strip_coordinate_constant,
    substitute,
    transfer,
)
from flatkit.sample import PRIME, _residue, draw_admissible, draw_point, random_rational
from flatkit.sympoly import SLOTS, mono_items, p_add, p_const, p_mul, p_pow, p_var

from conftest import mono


@pytest.fixture
def chart():
    return Chart(["x", "y", "z", "theta"], ["eps"])


def test_parse_literals(chart):
    assert chart.parse("3").as_fraction() == 3
    assert chart.parse("0.5").as_fraction() == Fraction(1, 2)
    assert chart.parse("2.25").as_fraction() == Fraction(9, 4)


def test_integral_constants_are_one_expression(chart):
    forms = [chart.const(3), chart.const(Fraction(6, 2)), chart.parse("6/2")]
    assert all(e == forms[0] and hash(e) == hash(forms[0]) for e in forms)
    for e, value in ((forms[0], 3), (chart.parse("3/4"), Fraction(3, 4))):
        assert type(e.as_fraction()) is Fraction and e.as_fraction() == value
    assert chart.parse("0.5*x + x/4").render() == "3/4*x"


def test_residue_of_integral_values():
    assert _residue(3) == _residue(Fraction(3)) == _residue(Fraction(6, 2)) == 3
    for den in (PRIME, 2 * PRIME):
        with pytest.raises(PrimeDenominatorError):
            _residue(Fraction(1, den))


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


def test_chart_refuses_generators_past_the_slots():
    names = [f"x{i}" for i in range(SLOTS)]
    with pytest.raises(MonomialLimitError, match=f"{SLOTS + 1} generators"):
        Chart(names + ["y"])
    full = Chart(names[:-1])
    with pytest.raises(MonomialLimitError):
        full.trig_pair("x0")  # sin and cos need two slots, one is left
    assert Chart(names[:-2]).trig_pair("x0") == (SLOTS - 2, SLOTS - 1)


def test_sin_cubed_reduces(chart):
    e = chart.parse("sin(theta)^3 + sin(theta)*cos(theta)^2")
    assert e == chart.parse("sin(theta)")


@pytest.mark.parametrize(
    "text",
    [
        "sin(-x) + sin(x)",
        "cos(-x) - cos(x)",
        "sin(2*x) - 2*sin(x)*cos(x)",
        "sin(x+y) - sin(x)*cos(y) - cos(x)*sin(y)",
    ],
)
def test_compound_angles_expand(chart, text):
    assert chart.parse(text).is_zero()


@pytest.mark.parametrize(
    "text, application",
    [
        ("sqrt(x)*sqrt(x) - x", "sqrt(x)"),
        ("sqrt(4*x^2) - 2*x", "sqrt(4*x^2)"),
        ("exp(x)*exp(y) - exp(x+y)", "exp(x)"),
        ("exp(ln(x)) - x", "ln(x)"),
        ("sin(x/2)", "sin(1/2*x)"),
        ("sin(eps*x)", "sin(x*eps)"),
        ("cos(x + 1)", "cos(x + 1)"),
        ("tan(sin(theta))", "tan(sin(theta))"),
    ],
)
def test_applications_outside_the_field_are_refused(chart, text, application):
    # no generator could carry their relations, so is_zero could not decide them
    with pytest.raises(ParseError, match=re.escape(f"{application} is not supported")):
        chart.parse(text)


def test_exp_ln_sqrt_at_rational_values(chart):
    assert chart.parse("exp(0)") == 1
    assert chart.parse("ln(1)") == 0
    assert chart.parse("sqrt(9/4)") == Fraction(3, 2)


def test_tan_cot_rewritten(chart):
    tan = chart.parse("tan(theta)")
    assert tan == chart.parse("sin(theta)/cos(theta)")
    assert chart.parse("tan(theta)*cot(theta)").as_fraction() == 1


def test_zero_denominator_rejected(chart):
    zero = chart.parse("sin(theta)^2 + cos(theta)^2 - 1")
    with pytest.raises(ZeroDenominatorError):
        chart.parse("x") / zero
    # in text it is an input error at the offending operator
    with pytest.raises(ParseError) as err:
        chart.parse("x / (sin(theta)^2 + cos(theta)^2 - 1)")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        chart.parse("1 + cot(x - x)")
    assert err.value.position == 4


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


def test_differentiate_compound_angle(chart):
    e = chart.parse("sin(2*x - theta)")
    assert differentiate(e, "x") == chart.parse("2*cos(2*x - theta)")
    assert differentiate(e, "theta") == chart.parse("-cos(2*x - theta)")
    assert differentiate(chart.parse("cos(x + y)"), "y") == chart.parse("-sin(x + y)")


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


def test_substitute_and_transfer_compound_angles(chart):
    text = "eps*sin(x + theta) - cos(2*y) + x*y"
    e = chart.parse(text)
    got = substitute(e, {"x": chart.parse("y - z")})
    assert got == chart.parse("eps*sin(y - z + theta) - cos(2*y) + (y - z)*y")
    assert substitute(e, {"x": 0}) == chart.parse("eps*sin(theta) - cos(2*y)")
    assert substitute(e, {"z": 5}) == e
    with pytest.raises(UnsupportedFunctionError, match=re.escape("sin(x*y) is not")):
        substitute(e, {"x": chart.parse("x*y")})
    big = chart.extend(["w"])
    moved = transfer(e, big)
    assert moved == big.parse(text)
    assert differentiate(moved, "x") == transfer(differentiate(e, "x"), big)
    assert moved.free_symbols() == e.free_symbols() == {"x", "y", "theta", "eps"}


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


# -- derivative memo -------------------------------------------------------------


def test_derivative_is_memoized_per_expression(chart):
    e = chart.parse("x^2*sin(theta)/(1 + y)")
    assert differentiate(e, "x") is differentiate(e, "x")
    assert differentiate(e, "theta") is differentiate(e, "theta")
    for _ in range(2):
        with pytest.raises(UnknownSymbolError):
            differentiate(e, "w")
    # a fresh equal expression computes the same derivative
    assert differentiate(chart.parse("x^2*sin(theta)/(1 + y)"), "x") == differentiate(e, "x")


def test_derivative_memo_survives_new_trig_pair(chart):
    e = chart.parse("x^2*cos(theta)/(z + eps)")
    before = {s: differentiate(e, s) for s in ("x", "z", "theta")}
    chart.parse("sin(z)*cos(x)")  # registers two more sin/cos pairs
    for s, d in before.items():
        assert differentiate(e, s) is d
        assert differentiate(chart.parse("x^2*cos(theta)/(z + eps)"), s) == d


def test_derivative_by_an_absent_symbol_walks_nothing(chart, monkeypatch):
    e = chart.parse("x^2*sin(theta)/(1 + eps*x)")
    differentiate(e, "x")  # the symbol set is known from here on
    calls = []
    real = expr_module.p_vars
    monkeypatch.setattr(expr_module, "p_vars", lambda p: calls.append(p) or real(p))
    assert differentiate(e, "y") is chart.zero
    assert differentiate(e, "z") is chart.zero
    assert calls == []
    assert differentiate(e, "theta") == chart.parse("x^2*cos(theta)/(1 + eps*x)")


def test_free_symbols_is_a_fresh_set(chart):
    e = chart.parse("x*cos(theta) + eps")
    got = e.free_symbols()
    got.add("y")
    got.discard("x")
    assert e.free_symbols() == {"x", "theta", "eps"}


# -- differential checks against sympy ---------------------------------------------
#
# sympy's rational function field QQ(...) in grlex order is the reference: its
# elements are cancelled quotients, so a monic-denominator rescaling of one is
# flatkit's canonical (num, den).  Every result is also checked to be a fixed
# point of canonicalization, which guards the arithmetic that skips it.


def _terms(ngens: int, min_size: int = 0, max_size: int = 4):
    return st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            st.tuples(*[st.integers(0, 2)] * ngens),
        ),
        min_size=min_size,
        max_size=max_size,
    )


def _rational(chart, gens, num_terms, den_terms):
    """Expr(num/den) from (coefficient, exponents) terms over `gens`."""
    polys = []
    for terms in (num_terms, den_terms):
        poly = {}
        for c, exps in terms:
            t = p_const(c)
            for g, e in zip(gens, exps):
                t = p_mul(t, p_pow(p_var(g), e))
            poly = p_add(poly, t)
        polys.append(poly)
    return Expr(chart, *polys)


def _ring_poly(poly, images, R):
    """poly in sympy's polynomial ring R, generator i sent to images[i]."""
    total = R.zero
    for m, c in poly.items():
        term = R(c)
        for i, e in mono_items(m):
            term *= images[i] ** e
        total += term
    return total


def _assert_canonical(r):
    again = Expr(r.chart, r.num, r.den)
    assert (again.num, again.den) == (r.num, r.den)


def _binary_results(a, b, fa, fb):
    out = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)]
    if not b.is_zero():
        out.append((a / b, fa / fb))
    return out


_names = ("x", "y", "z", "eps")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_terms(4), _terms(4, 1), _terms(4), _terms(4, 1))
def test_expr_canonical_form_matches_sympy(an, ad, bn, bd):
    sympy = pytest.importorskip("sympy")
    K, *gens = sympy.field(",".join(_names), sympy.QQ, sympy.grlex)
    chart = Chart(_names[:3], _names[3:])
    try:
        a = _rational(chart, range(4), an, ad)
        b = _rational(chart, range(4), bn, bd)
    except ZeroDenominatorError:
        assume(False)

    def value(e):
        return K.new(*(_ring_poly(p, K.ring.gens, K.ring) for p in (e.num, e.den)))

    fa, fb = value(a), value(b)
    results = _binary_results(a, b, fa, fb)
    results += [(differentiate(a, n), fa.diff(g)) for n, g in zip(_names[:3], gens)]
    for r, expected in [(a, fa)] + results:
        lc = expected.denom.LC
        for ours, theirs in ((r.num, expected.numer), (r.den, expected.denom)):
            monic = {mono(m): c / lc for m, c in theirs.items()}
            assert ours == {
                m: Fraction(int(c.numerator), int(c.denominator)) for m, c in monic.items()
            }
        _assert_canonical(r)


# Three terms at most: sine-free denominators double the degree, and some
# quotients of four-term operands send p_gcd into the slow subresultant
# fallback for minutes.
_circle_terms = _terms(4, 0, 3)
_circle_dens = _terms(4, 1, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_circle_terms, _circle_dens, _circle_terms, _circle_dens)
def test_trig_expr_matches_circle_parameterization(an, ad, bn, bd):
    # sin and cos of theta become 2t/(1 + t^2) and (1 - t^2)/(1 + t^2) with
    # t = tan(theta/2) a further symbol, so d/dtheta gains (1 + t^2)/2 * d/dt
    sympy = pytest.importorskip("sympy")
    K, x, theta, t = sympy.field("x,theta,t", sympy.QQ, sympy.grlex)
    chart = Chart(["x", "theta"])
    si, ci = chart.trig_pair("theta")
    try:
        a = _rational(chart, (0, 1, si, ci), an, ad)
        b = _rational(chart, (0, 1, si, ci), bn, bd)
    except ZeroDenominatorError:  # a multiple of sin^2 + cos^2 - 1
        assume(False)
    X, Theta, T = K.ring.gens
    images = {0: X, 1: Theta, si: 2 * T, ci: 1 - T**2}

    def lifted(e):
        """(N, D) in the ring with N/D the value of e: a monomial of sin/cos
        degree k carries 1/(1 + t^2)^k, cleared from num and den alike."""
        def trig_degree(m):
            return sum(k for i, k in mono_items(m) if i >= si)

        top = max(trig_degree(m) for m in (*e.num, *e.den))
        return tuple(
            sum(
                (
                    _ring_poly({m: c}, images, K.ring) * (1 + T**2) ** (top - trig_degree(m))
                    for m, c in poly.items()
                ),
                K.ring.zero,
            )
            for poly in (e.num, e.den)
        )

    fa, fb = K.new(*lifted(a)), K.new(*lifted(b))
    results = _binary_results(a, b, fa, fb)
    results.append((differentiate(a, "x"), fa.diff(x)))
    results.append((differentiate(a, "theta"), fa.diff(theta) + fa.diff(t) * (1 + t**2) / 2))
    for r, expected in [(a, fa)] + results:
        num, den = lifted(r)
        assert num * expected.denom == expected.numer * den
        _assert_canonical(r)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(-3, 3)] * 3))
def test_compound_angle_matches_sympy_expand_trig(ks):
    sympy = pytest.importorskip("sympy")
    names = ("x", "y", "theta")
    arg = sum(k * s for k, s in zip(ks, sympy.symbols(names)))
    chart = Chart(names)
    for func in ("sin", "cos"):
        expanded = sympy.expand_trig(getattr(sympy, func)(arg))
        reference = chart.parse(sympy.sstr(expanded).replace("**", "^"))
        assert chart.parse(f"{func}({arg})") == reference


# -- transfer against the generator map ---------------------------------------------

def _twin_transfer(e, make_target):
    """transfer and the generator map on two fresh, equal target charts."""
    a, b = make_target(), make_target()
    moved, mapped = transfer(e, a), _map_generators(e, b, {})
    assert a.gens() == b.gens()  # the same pairs, registered in the same order
    assert (moved.num, moved.den) == (mapped.num, mapped.den)
    _assert_canonical(moved)


# x, theta, eps, then the pairs of theta and of x
_SOURCE_GENS = 7


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_terms(_SOURCE_GENS, 0, 2), _terms(_SOURCE_GENS, 1, 2))
# 1/(x + 2*theta): the target orders theta above x, so the lead changes
@example([(Fraction(1), (0,) * _SOURCE_GENS)], [(Fraction(1), (1,)), (Fraction(2), (0, 1))])
# sin(x)/cos(theta): the numerator's pair is met, and registered, first
@example([(Fraction(1), (0, 0, 0, 0, 0, 1))], [(Fraction(1), (0, 0, 0, 0, 1))])
def test_transfer_reindexes_like_the_generator_map(num_terms, den_terms):
    source = Chart(["x", "theta"], ["eps"])
    gens = (0, 1, 2, *source.trig_pair("theta"), *source.trig_pair("x"))
    try:
        e = _rational(source, gens, num_terms, den_terms)
    except ZeroDenominatorError:
        assume(False)

    def extended():  # eps moves from index 2 to 3; only theta's pair is known
        target = source.extend(["w"])
        target.trig_pair("theta")
        return target

    def reordered():  # theta above x, and another pair registered first
        target = Chart(["w", "theta", "x"], ["mu", "eps"])
        target.trig_pair("w")
        return target

    _twin_transfer(e, extended)
    _twin_transfer(e, reordered)
    if "x" in e.free_symbols():
        with pytest.raises(UnknownSymbolError, match="x"):
            transfer(e, Chart(["theta"], ["eps"]))
    else:
        _twin_transfer(e, lambda: Chart(["theta"], ["eps"]))
