"""Expression layer: parsing, canonical forms, differentiation, evaluation."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatkit.errors import (
    ChartMismatchError,
    MonomialLimitError,
    ParseError,
    PoleError,
    PrimeDenominatorError,
    UnknownSymbolError,
    ZeroDenominatorError,
)
from flatkit import expr as expr_module
from flatkit.expr import (
    Chart,
    Expr,
    antiderivative,
    at_zero,
    differentiate,
    eval_at,
    strip_coordinate_constant,
    transfer,
    transfer_all,
)
from flatkit.sample import (
    PRIME,
    SamplePoint,
    draw_admissible,
    draw_point,
    random_rational,
)
from flatkit.sympoly import SLOTS, mono_items, p_add, p_const, p_mul, p_pow, p_residue, p_var

from conftest import mono, sympy_value


@pytest.fixture
def chart():
    return Chart(["x", "y", "z", "theta"], ["eps"])


def test_parse_literals(chart):
    assert chart.parse("3").as_fraction() == 3
    assert chart.parse("0.5").as_fraction() == Fraction(1, 2)
    assert chart.parse("2.25").as_fraction() == Fraction(9, 4)
    # an integer literal is read as an int, a decimal one as a Fraction
    assert [type(chart.parse(t).num[0]) for t in ("007", "2.50")] == [int, Fraction]
    # past the interpreter's integer-string limit, either kind is refused
    for text in ("1" * 5000, "1" * 5000 + ".5", "0." + "1" * 5000):
        with pytest.raises(ParseError, match="number literal too long"):
            chart.parse("x*" + text)


def test_integral_constants_are_one_expression(chart):
    forms = [chart.const(3), chart.const(Fraction(6, 2)), chart.parse("6/2")]
    assert all(e == forms[0] and hash(e) == hash(forms[0]) for e in forms)
    for e, value in ((forms[0], 3), (chart.parse("3/4"), Fraction(3, 4))):
        assert type(e.as_fraction()) is Fraction and e.as_fraction() == value
    assert chart.parse("0.5*x + x/4").render() == "3/4*x"


def test_residue_of_integral_values():
    def residue(c):
        return p_residue(p_const(c), [], PRIME)

    assert residue(3) == residue(Fraction(3)) == residue(Fraction(6, 2)) == 3
    for den in (PRIME, 2 * PRIME):
        with pytest.raises(PrimeDenominatorError):
            p_residue({0: Fraction(1, den)}, [], PRIME)


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
    # finite differences of sympy's evaluation at 3 random points
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
        fd = (sympy_value(e, up) - sympy_value(e, dn)) / (2 * h)
        exact = sympy_value(d, vals)
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
    vals = dict(zip(c2.coordinates, pt.values))  # coordinates are generators 0..2
    assert eval_at(e, pt) == vals["x3"] + vals["x4"] * vals["u1"]
    # spec-style concrete check
    assert eval_at(e, SamplePoint(c2, (Fraction(2), Fraction(3), Fraction(5)))) == 17


def test_eval_pole(chart):
    e = chart.parse("1/(x - 1)")
    ngens = len(chart.gens())
    values = tuple(Fraction(1) for _ in range(ngens))  # x = 1 hits the pole
    with pytest.raises(PoleError):
        eval_at(e, SamplePoint(chart, values))
    # setting x to 0 in 1/x is a zero-denominator error
    with pytest.raises(ZeroDenominatorError):
        at_zero(chart.parse("1/x"), {"x"})


def test_eval_respects_circle(chart):
    rng = random.Random(3)
    e = chart.parse("sin(theta)^2 + cos(theta)^2")
    pt = draw_point(chart, rng)
    assert eval_at(e, pt) == 1


def test_draw_admissible_rejects_constraint_zeros(chart):
    rng = random.Random(5)
    eps = chart.sym("eps")
    for _ in range(10):
        pt = draw_admissible(chart, rng, [chart.parse("1/eps")], (eps,))
        assert eval_at(eps, pt) != 0


def test_at_zero(chart):
    e = chart.parse("x^2 + eps*sin(theta)")
    assert at_zero(e, {"theta"}) == chart.parse("x^2")
    assert at_zero(chart.parse("x*cos(theta) + x"), {"theta"}) == chart.parse("2*x")


def test_transfer(chart):
    big = chart.extend(["w"])
    e = chart.parse("x*cot(theta) + eps")
    moved = transfer(e, big)
    assert moved == big.parse("x*cot(theta) + eps")
    assert transfer(e, chart) is e


def test_at_zero_and_transfer_compound_angles(chart):
    text = "eps*sin(x + theta) - cos(2*y) + x*y"
    e = chart.parse(text)
    assert at_zero(e, {"x"}) == chart.parse("eps*sin(theta) - cos(2*y)")
    assert at_zero(e, {"z"}) is e
    big = chart.extend(["w"])
    moved = transfer(e, big)
    assert moved == big.parse(text)
    assert differentiate(moved, "x") == transfer(differentiate(e, "x"), big)
    assert moved._symbol_set() == e._symbol_set() == {"x", "y", "theta", "eps"}


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


# c * x^p * sin(x)^a * cos(x)^b * y^i * theta^j * cos(theta)^k * eps^l, with
# a <= 1 as canonical forms keep it, p <= 3 and b <= 4: every branch of
# `_integrate_monomial`, integration by parts included
_integrand_terms = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(0, 4),
        st.tuples(*[st.integers(0, 2)] * 4),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60)
@given(_integrand_terms)
@example(
    [
        (Fraction(1), 0, 0, 0, (0, 0, 0, 0)),
        (Fraction(2), 0, 1, 3, (1, 0, 0, 0)),
        (Fraction(-1), 0, 0, 1, (0, 1, 0, 0)),
        (Fraction(1, 2), 0, 0, 4, (0, 0, 1, 1)),
        (Fraction(3), 3, 1, 4, (2, 2, 2, 2)),
    ]
)
def test_antiderivative_of_every_term_in_the_class(terms):
    chart = Chart(["x", "y", "z", "theta"], ["eps"])
    e = chart.zero
    for c, p, a, b, (i, j, k, l) in terms:
        e = e + chart.parse(
            f"{c}*x^{p}*sin(x)^{a}*cos(x)^{b}*y^{i}*theta^{j}*cos(theta)^{k}*eps^{l}"
        )
    F = antiderivative(e, "x")
    assert F is not None
    assert differentiate(F, "x") == e


def test_antiderivative_outside_class(chart):
    assert antiderivative(chart.parse("1/x"), "x") is None
    assert antiderivative(chart.parse("cot(theta)"), "theta") is None


def test_strip_coordinate_constant(chart):
    e = chart.parse("z + eps*cos(theta) - eps + 1/2")
    assert strip_coordinate_constant(e) == chart.parse("z + eps*cos(theta)")
    untouched = chart.parse("z/(x+1)")
    assert strip_coordinate_constant(untouched) == untouched


# -- derivatives without a memo ---------------------------------------------------
#
# Every call walks the expression with the derivation kernel; nothing is
# stored on the expression or the chart.


def _count_walks(monkeypatch):
    calls = []
    real = expr_module.p_derive
    monkeypatch.setattr(expr_module, "p_derive", lambda terms: calls.append(terms) or real(terms))
    return calls


def test_equal_expressions_give_equal_derivatives(chart, monkeypatch):
    e = chart.parse("x^2*sin(theta)/(1 + y)")
    twin = chart.parse("x^2*sin(theta)/(1 + y)")
    walks = _count_walks(monkeypatch)
    for s in ("x", "y", "theta"):
        assert differentiate(e, s) == differentiate(e, s) == differentiate(twin, s)
    # numerator and denominator are walked on every call
    assert len(walks) == 3 * 3 * 2
    assert differentiate(e, "x") == chart.parse("2*x*sin(theta)/(1 + y)")
    assert differentiate(e, "theta") == chart.parse("x^2*cos(theta)/(1 + y)")


def test_unknown_symbol_raises_before_any_walk(chart, monkeypatch):
    e = chart.parse("x^2*sin(theta)/(1 + y)")
    chart.parse("cos(z)")  # a generator name that is no base symbol
    walks = _count_walks(monkeypatch)
    for sym in ("w", "sin(theta)", "cos(z)"):
        for _ in range(2):
            with pytest.raises(UnknownSymbolError, match=re.escape(sym)):
                differentiate(e, sym)
    assert walks == []


def test_derivative_is_unchanged_by_a_new_trig_pair(chart):
    e = chart.parse("x^2*cos(theta)/(z + eps)")
    before = {s: differentiate(e, s) for s in ("x", "z", "theta")}
    chart.parse("sin(z)*cos(x)")  # registers two more sin/cos pairs
    for s, d in before.items():
        assert differentiate(e, s) == d
        assert differentiate(chart.parse("x^2*cos(theta)/(z + eps)"), s) == d


def test_derivative_by_an_absent_symbol_walks_nothing(chart, monkeypatch):
    e = chart.parse("x^2*sin(theta)/(1 + eps*x)")
    walks = _count_walks(monkeypatch)
    assert differentiate(e, "y") is chart.zero
    assert differentiate(e, "z") is chart.zero
    assert walks == []
    assert differentiate(e, "theta") == chart.parse("x^2*cos(theta)/(1 + eps*x)")
    assert len(walks) == 2


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


@settings(max_examples=40)
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


@settings(max_examples=40)
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


@settings(max_examples=30)
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


# -- transfer against a parse of the rendering ---------------------------------------

def _twin_transfer(e, make_target):
    """transfer against a parse of e's rendering, on a fresh target chart
    and on a twin where the parse registers the sin/cos pairs first."""
    a, b = make_target(), make_target()
    moved = transfer(e, a)
    assert moved == a.parse(e.render())
    parsed = b.parse(e.render())
    assert transfer(e, b) == parsed
    _assert_canonical(moved)


# x, theta, eps, then the pairs of theta and of x
_SOURCE_GENS = 7


@settings(max_examples=40)
@given(_terms(_SOURCE_GENS, 0, 2), _terms(_SOURCE_GENS, 1, 2))
# 1/(x + 2*theta): the target orders theta above x, so the lead changes
@example([(Fraction(1), (0,) * _SOURCE_GENS)], [(Fraction(1), (1,)), (Fraction(2), (0, 1))])
# sin(x)/cos(theta): the numerator's pair is met, and registered, first
@example([(Fraction(1), (0, 0, 0, 0, 0, 1))], [(Fraction(1), (0, 0, 0, 0, 1))])
def test_transfer_reindexes_like_a_parse_of_the_rendering(num_terms, den_terms):
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

    def same_indices():  # every generator keeps its index
        target = Chart(["x", "theta"], ["eps"])
        target.trig_pair("theta")
        target.trig_pair("x")
        return target

    _twin_transfer(e, extended)
    _twin_transfer(e, reordered)
    _twin_transfer(e, same_indices)
    if "x" in e._symbol_set():
        with pytest.raises(UnknownSymbolError, match="x"):
            transfer(e, Chart(["theta"], ["eps"]))
    else:
        _twin_transfer(e, lambda: Chart(["theta"], ["eps"]))


def test_transfer_that_keeps_every_index_shares_the_polynomials(monkeypatch):
    source = Chart(["x", "y"])
    e = source.parse("(x^2 - 3*y)/(2*x*y + 4)")
    renames = []
    real = expr_module.p_rename
    monkeypatch.setattr(expr_module, "p_rename", lambda *args: renames.append(args) or real(*args))
    target = Chart(["x", "y"]).extend(["w"])
    moved = transfer(e, target)
    assert moved.num is e.num and moved.den is e.den
    assert renames == []
    assert moved == target.parse(e.render())
    # a generator that moves takes the renaming
    transfer(e, Chart(["y", "x"]))
    assert len(renames) == 2


def test_transfer_all_registers_pairs_as_one_transfer_after_another():
    source = Chart(["x", "y", "phi", "theta"], ["eps"])
    texts = ["3", "x*sin(theta)", "0", "eps/(cos(phi) + 2)", "y*cos(theta)*sin(phi)"]
    exprs = [source.parse(t) for t in texts]

    def target():  # eps moves; the pairs of theta and phi are not there yet
        return Chart(["w", "x", "y", "phi", "theta"], ["eps"])

    one_by_one, together = target(), target()
    want = [transfer(e, one_by_one) for e in exprs]
    got = transfer_all(exprs, together)
    assert together.gens() == one_by_one.gens()
    assert [(e.num, e.den) for e in got] == [(e.num, e.den) for e in want]
    assert got == [together.parse(t) for t in texts]
    assert transfer_all(exprs, source) == exprs
    with pytest.raises(ChartMismatchError):
        transfer_all([exprs[1], target().parse("x")], together)


# -- setting symbols to zero against sympy's subs ------------------------------------


def _sparse_terms(min_size: int, max_size: int):
    """Like `_terms` over the source generators, each monomial a product of
    at most three of them: dense monomials would make nearly every
    denominator vanish once a symbol is zero."""
    factors = st.lists(st.integers(0, _SOURCE_GENS - 1), max_size=3)
    return st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            factors.map(lambda gs: tuple(gs.count(i) for i in range(_SOURCE_GENS))),
        ),
        min_size=min_size,
        max_size=max_size,
    )


@settings(max_examples=40)
@given(
    _sparse_terms(0, 3),
    _sparse_terms(1, 3),
    st.sets(st.sampled_from(("x", "theta", "eps")), min_size=1),
)
# 1/sin(theta): the canonical denominator cos(theta)^2 - 1 vanishes at 0
@example([(Fraction(1), ())], [(Fraction(1), (0, 0, 0, 1))], {"theta"})
# x*sin(theta) + 1: the sine of a zeroed angle takes its term with it
@example([(Fraction(1), (1, 0, 0, 1)), (Fraction(1), ())], [(Fraction(1), ())], {"theta"})
# (x*cos(x) + cos(theta))/(eps + cos(x)): the cosines of zeroed angles become 1
@example(
    [(Fraction(1), (1, 0, 0, 0, 0, 0, 1)), (Fraction(1), (0, 0, 0, 0, 1))],
    [(Fraction(1), (0, 0, 1)), (Fraction(1), (0, 0, 0, 0, 0, 0, 1))],
    {"x", "theta"},
)
def test_at_zero_matches_sympy_subs(num_terms, den_terms, names):
    """at_zero against sympy's subs(s, 0) of the canonical numerator and
    denominator; equality is decided on the half-angle parameterization
    of each circle, and a denominator that subs sends to 0 must raise."""
    sympy = pytest.importorskip("sympy")
    chart = Chart(["x", "theta"], ["eps"])
    gens = (0, 1, 2, *chart.trig_pair("theta"), *chart.trig_pair("x"))
    try:
        e = _rational(chart, gens, num_terms, den_terms)
    except ZeroDenominatorError:
        assume(False)
    assume(not e._symbol_set().isdisjoint(names))  # `is e` is tested above
    x, theta, eps, t, s = sympy.symbols("x theta eps t s")
    images = (x, theta, eps, sympy.sin(theta), sympy.cos(theta), sympy.sin(x), sympy.cos(x))
    half_angle = {
        sympy.sin(theta): 2 * t / (1 + t**2),
        sympy.cos(theta): (1 - t**2) / (1 + t**2),
        sympy.sin(x): 2 * s / (1 + s**2),
        sympy.cos(x): (1 - s**2) / (1 + s**2),
    }

    def value(poly, zero=()):
        total = sympy.Integer(0)
        for m, c in poly.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for i, k in mono_items(m):
                term *= images[i] ** k
            total += term
        return sympy.cancel(total.subs({n: 0 for n in zero}).subs(half_angle))

    zero = [sympy.Symbol(n) for n in names]
    num, den = value(e.num, zero), value(e.den, zero)
    if den == 0:
        with pytest.raises(ZeroDenominatorError):
            at_zero(e, names)
        return
    got = at_zero(e, names)
    assert sympy.cancel(value(got.num) * den - num * value(got.den)) == 0
    assert not got._symbol_set() & names


# -- arithmetic that skips canonicalization against the full path ------------------
#
# A product of two polynomials and an exact quotient of two are built canonical;
# each must equal Expr(chart, num, den) over the operands' cross products,
# which canonicalizes in full.  The operands are trig polynomials over two
# angles, over 1 or over one of a few denominators, one-term ones included:
# cos(theta) and x have a single term and are still not constant.

# x, theta, phi, then the pairs of theta and of phi: as many generators as
# `_sparse_terms` draws from.  Dense operands would send the inexact
# quotients into the slow subresultant gcd.
_two_angle_terms = _sparse_terms(0, 3)
_DENOMINATORS = st.sampled_from(("1", "cos(theta)", "x", "1 + cos(theta)", "sin(phi) - x"))


def _two_angle_operand(chart, terms, den):
    gens = (0, 1, 2, *chart.trig_pair("theta"), *chart.trig_pair("phi"))
    return _rational(chart, gens, terms, [(Fraction(1), ())]) / chart.parse(den)


def _full(chart, num, den):
    r = Expr(chart, num, den)
    return r.num, r.den


@settings(max_examples=60)
@given(_two_angle_terms, _DENOMINATORS, _two_angle_terms, _DENOMINATORS)
@example([(Fraction(1), (0, 1))], "cos(theta)", [(Fraction(1), (0, 0, 1))], "1")
@example(
    [(Fraction(2), (0, 0, 0, 1)), (Fraction(1), (0, 0, 0, 0, 1))],
    "x",
    [(Fraction(1), (0, 0, 0, 1, 1))],
    "1 + cos(theta)",
)
def test_products_and_quotients_match_the_full_canonicalization(an, ad, bn, bd):
    chart = Chart(["x", "theta", "phi"])
    try:
        a = _two_angle_operand(chart, an, ad)
        b = _two_angle_operand(chart, bn, bd)
    except ZeroDenominatorError:  # a multiple of sin^2 + cos^2 - 1
        assume(False)
    ab = a * b
    assert (ab.num, ab.den) == _full(chart, p_mul(a.num, b.num), p_mul(a.den, b.den))
    _assert_canonical(ab)
    if b.is_zero():
        return
    # ab / b of polynomials is an exact division unless ab was reduced
    for top in (a, ab):
        q = top / b
        assert (q.num, q.den) == _full(chart, p_mul(top.num, b.den), p_mul(top.den, b.num))
        _assert_canonical(q)
    assert ab / b == a


@settings(max_examples=40)
@given(_terms(5, 0, 5))
def test_chart_poly_is_the_canonical_polynomial(terms):
    # Chart.poly skips canonicalization: on a trig-reduced polynomial it must
    # build what the full path builds
    chart = Chart(["x", "theta"], ["eps"])
    si, ci = chart.trig_pair("theta")
    p = {}
    for c, exps in terms:  # sine exponents up to 2
        t = p_const(c)
        for g, e in zip((0, 1, 2, si, ci), exps):
            t = p_mul(t, p_pow(p_var(g), e))
        p = p_add(p, t)
    p = chart.reduce(p)
    assert chart.reduce(p) is p
    built, full = chart.poly(p), Expr(chart, p, p_const(1))
    assert built == full and built.render() == full.render()


def test_polynomial_products_and_exact_quotients_skip_canonicalization(monkeypatch):
    chart = Chart(["x", "theta", "phi"])
    # no sine squares in p*q, so pq / p and pq / q divide exactly
    p = chart.parse("x*sin(theta) + cos(phi)")
    q = chart.parse("cos(theta) - x*sin(phi)")
    x = chart.parse("x")
    calls = []
    real = expr_module._canonicalize
    monkeypatch.setattr(
        expr_module, "_canonicalize", lambda *args: calls.append(args) or real(*args)
    )
    pq = p * q
    assert pq / q == p and pq / p == q and (pq * x) / x == pq
    assert calls == []
    # a one-term denominator is not a constant one: the full path runs
    p / chart.parse("cos(theta)") * q
    assert p / q != p * q  # an inexact quotient is canonicalized
    assert len(calls) == 3
