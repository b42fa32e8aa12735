"""The derivation kernel against the per-symbol formulas it replaced.

`lie_derivative`, `lie_bracket`, `differential` and `differentiate` walk
each polynomial once through `sympoly.p_derive`.  The reference below is
the earlier implementation, one partial derivative per symbol, built from
`Expr` sums and products: d/dg of each generator g (1, cos or -sin), the
quotient rule on n/d, and the sums over the coordinates.  Both must give
the same canonical expressions, `differential` of h = n/d after the
reference is scaled by d^2, and both must refuse an exponent past MAX_EXP.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatkit.errors import MonomialLimitError, UnknownSymbolError
from flatkit.expr import Chart, Expr, chain, differentiate
from flatkit.fields import CovectorField, VectorField, differential, lie_bracket, lie_derivative
from flatkit.sympoly import MAX_EXP, mono_get, mono_set, p_const, p_is_const, p_var, p_vars

from conftest import mono

# -- the per-symbol reference ---------------------------------------------------------


def ref_p_diff(a, i):
    """Formal partial derivative by generator i."""
    out = {}
    for m, c in a.items():
        e = mono_get(m, i)
        if e:
            out[mono_set(m, i, e - 1)] = c * e
    return out


def ref_gen_derivative(chart, index, sym):
    info = chart.gen_info(index)
    if info.base != sym:
        return chart.zero
    if info.kind == "base":
        return chart.one
    si, ci = chart.trig_pair(sym)
    return chart.poly(p_var(ci)) if info.kind == "sin" else -chart.poly(p_var(si))


def ref_poly_derivative(chart, poly, sym):
    total = chart.zero
    for idx in p_vars(poly):
        dgen = ref_gen_derivative(chart, idx, sym)
        if dgen.is_zero():
            continue
        dp = ref_p_diff(poly, idx)
        if dp:
            term = Expr(chart, dp, p_const(1), _raw=True)
            total = total + (term if chart.gen_info(idx).kind == "base" else term * dgen)
    return total


def ref_differentiate(e, sym):
    chart = e.chart
    if not chart.has_symbol(sym):
        raise UnknownSymbolError(sym)
    if sym not in e._symbol_set():
        return chart.zero
    dn = ref_poly_derivative(chart, e.num, sym)
    if p_is_const(e.den):
        return dn
    dd = ref_poly_derivative(chart, e.den, sym)
    den_expr = Expr(chart, e.den, p_const(1), _raw=True)
    num_expr = Expr(chart, e.num, p_const(1), _raw=True)
    return (dn * den_expr - num_expr * dd) / (den_expr * den_expr)


def ref_lie_derivative(h, v):
    total = v.chart.zero
    for j in v.support:
        d = ref_differentiate(h, v.chart.coordinates[j])
        if not d.is_zero():
            total = total + v.components[j] * d
    return total


def ref_lie_bracket(v, w):
    """[v, w]^i = v^j d_j w^i - w^j d_j v^i, j ascending."""
    chart = v.chart
    out = [chart.zero] * chart.dim
    for j, name in enumerate(chart.coordinates):
        for i in w.support:
            if j in v.support:
                out[i] = out[i] + v.components[j] * ref_differentiate(w.components[i], name)
        for i in v.support:
            if j in w.support:
                out[i] = out[i] - w.components[j] * ref_differentiate(v.components[i], name)
    return VectorField(chart, tuple(out))


def ref_differential(h):
    chart = h.chart
    return CovectorField(chart, tuple(ref_differentiate(h, n) for n in chart.coordinates))


def ref_unit_chain(chart, slots):
    """The chain rule of d/ds for each base symbol s of `slots` (generator
    index to output slot), as `expr.unit_chain` built it before
    `expr.chain` took its place."""
    rule = chart._chain_rule
    return {g: (k, u) for s, k in slots.items() for g, u in rule[s]}


# -- operands ----------------------------------------------------------------------------
#
# A chart of one plain coordinate and two angles, with a parameter; both
# angles have their pairs.  An operand is a trig polynomial with Fraction
# coefficients, times a compound-angle factor, over one of a few
# denominators.

_NAMES = ("x", "theta", "phi")
_GENS = 8  # x, theta, phi, eps, sin/cos(theta), sin/cos(phi)
_FACTORS = ("1", "sin(2*x - theta)", "cos(theta + phi)", "eps*sin(phi - x)")
_DENOMINATORS = ("1", "1", "cos(theta)", "1 + cos(theta)", "x", "1 + eps*x")

_terms = st.lists(
    st.tuples(
        st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
        st.tuples(*[st.integers(0, 2)] * _GENS),
    ),
    min_size=1,
    max_size=3,
)
_operands = st.tuples(_terms, st.sampled_from(_FACTORS), st.sampled_from(_DENOMINATORS))
_polynomials = st.tuples(_terms, st.sampled_from(_FACTORS), st.just("1"))


def make_chart():
    chart = Chart(_NAMES, ["eps"])
    chart.trig_pair("theta")
    chart.trig_pair("phi")
    return chart


def build(chart, spec):
    terms, factor, den = spec
    poly = {}
    for c, exps in terms:
        m = mono(exps)
        poly[m] = poly.get(m, 0) + c
    return Expr(chart, poly, p_const(1)) * chart.parse(factor) / chart.parse(den)


def build_field(chart, specs):
    return VectorField(chart, tuple(build(chart, s) for s in specs))


def assert_canonical(e):
    again = Expr(e.chart, e.num, e.den)
    assert (again.num, again.den) == (e.num, e.den)


# -- properties ----------------------------------------------------------------------------


@settings(max_examples=40)
@given(_operands)
def test_differentiate_matches_the_per_symbol_formula(spec):
    chart = make_chart()
    h = build(chart, spec)
    for sym in _NAMES + ("eps",):
        got = differentiate(h, sym)
        assert got == ref_differentiate(h, sym)
        assert_canonical(got)


@settings(max_examples=30)
@given(_operands)
def test_differential_matches_the_per_symbol_formula(spec):
    """`differential` gives dh up to den(h)^2: component j is exactly
    den(h)^2 times the reference's d/dx_j of h."""
    chart = make_chart()
    h = build(chart, spec)
    dh = differential(h)
    square = chart.poly(h.den) ** 2
    ref = ref_differential(h)
    assert dh.components == tuple(square * c for c in ref.components)
    assert dh.support == tuple(i for i, c in enumerate(dh.components) if not c.is_zero())
    for c in dh.components:
        assert_canonical(c)


@settings(max_examples=20)
@given(_operands, st.lists(_operands, min_size=3, max_size=3))
def test_lie_derivative_matches_the_per_symbol_formula(hspec, vspecs):
    chart = make_chart()
    h = build(chart, hspec)
    v = build_field(chart, vspecs)
    got = lie_derivative(h, v)
    assert got == ref_lie_derivative(h, v)
    assert_canonical(got)


@settings(max_examples=15)
@given(
    st.lists(st.one_of(_polynomials, _operands), min_size=3, max_size=3),
    st.lists(_polynomials, min_size=3, max_size=3),
)
def test_lie_bracket_matches_the_per_symbol_formula(vspecs, wspecs):
    chart = make_chart()
    v = build_field(chart, vspecs)
    w = build_field(chart, wspecs)
    for a, b in ((v, w), (w, v), (w, w)):
        got = lie_bracket(a, b)
        assert got == ref_lie_bracket(a, b)
        assert got.support == tuple(i for i, c in enumerate(got.components) if not c.is_zero())
        for c in got.components:
            assert_canonical(c)


def test_a_derivative_past_max_exp_is_refused_on_both_sides():
    chart = make_chart()
    # d/dtheta of sin(theta) * cos(theta)^MAX_EXP holds cos(theta)^(MAX_EXP + 1),
    # and x^2 * d/dx of x^MAX_EXP holds x^(MAX_EXP + 1)
    h = chart.parse(f"sin(theta)*cos(theta)^{MAX_EXP}")
    along = VectorField(chart, (chart.zero, chart.one, chart.zero))
    power = chart.parse(f"x^{MAX_EXP}")
    square = VectorField(chart, (chart.parse("x^2"), chart.zero, chart.zero))
    for ours, theirs in (
        (lambda: differentiate(h, "theta"), lambda: ref_differentiate(h, "theta")),
        (lambda: differential(h), lambda: ref_differential(h)),
        (lambda: lie_derivative(h, along), lambda: ref_lie_derivative(h, along)),
        (lambda: lie_derivative(power, square), lambda: ref_lie_derivative(power, square)),
    ):
        with pytest.raises(MonomialLimitError):
            ours()
        with pytest.raises(MonomialLimitError):
            theirs()
    # one power lower both sides agree
    h = chart.parse(f"sin(theta)*cos(theta)^{MAX_EXP - 1}")
    assert differentiate(h, "theta") == ref_differentiate(h, "theta")
    power = chart.parse(f"x^{MAX_EXP - 1}")
    assert lie_derivative(power, square) == ref_lie_derivative(power, square)


def test_fraction_coefficients_are_cleared_and_restored():
    chart = Chart(["a", "b"])
    h = chart.parse("a^2/2 + b/3")
    v = VectorField(chart, (chart.parse("b/4"), chart.parse("2*a/5")))
    assert lie_derivative(h, v) == chart.parse("a*b/4 + 2*a/15")
    assert lie_derivative(h, v) == ref_lie_derivative(h, v)
    third = VectorField(chart, (chart.const(Fraction(1, 3)), chart.zero))
    assert lie_derivative(chart.sym("a"), third) == Fraction(1, 3)
    # int operands give int coefficients
    d = lie_derivative(chart.parse("2*a*b"), VectorField(chart, (chart.sym("b"), chart.one)))
    assert d == chart.parse("2*b^2 + 2*a")
    assert {type(c) for c in d.num.values()} == {int}


def test_chain_with_unit_multipliers_is_the_unit_chain():
    # both angles have their pairs, y has none, and eps is a parameter
    chart = Chart(["x", "theta", "phi", "y"], ["eps"])
    chart.trig_pair("theta")
    chart.trig_pair("phi")
    one = p_const(1)
    names = ("x", "theta", "phi", "y", "eps")
    for size in range(1, len(names) + 1):
        for subset in itertools.permutations(names, size):
            slots = {chart.index(n): k for k, n in enumerate(subset)}
            got = chain(chart, {s: (k, one) for s, k in slots.items()})
            # the same entries, in the same order
            assert list(got.items()) == list(ref_unit_chain(chart, slots).items())
