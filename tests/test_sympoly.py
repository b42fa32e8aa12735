"""Polynomial layer: arithmetic, exact division, gcd, square roots."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatkit import sympoly
from flatkit.errors import MonomialLimitError, PrimeDenominatorError
from flatkit.expr import Chart
from flatkit.sample import PRIME, modular_point
from flatkit.sympoly import (
    MAX_EXP,
    SLOTS,
    _circle_high,
    _to_zz,
    _zdiv_exact,
    _zgcd,
    _zheu,
    mono_degree,
    mono_get,
    mono_items,
    mono_set,
    p_add,
    p_circle_reduce,
    p_const,
    p_derive,
    p_div_exact,
    p_gcd,
    p_is_const,
    p_is_zero,
    p_lcm,
    p_lead,
    p_mul,
    p_pow,
    p_residue,
    p_scale,
    p_sqrt,
    p_sub,
    p_total_degree,
    p_var,
    p_vars,
)

from conftest import exponents, mono


def p_content(a):
    """Rational content; the primitive part has positive leading coefficient
    (a reference: flatkit takes primitive parts over the integers)."""
    if not a:
        return 0
    num = 0
    den = 1
    for c in a.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    if p_lead(a)[1] < 0:
        num = -num
    return num if den == 1 else Fraction(num, den)


def p_primitive(a):
    if not a:
        return {}
    return p_scale(a, Fraction(1) / p_content(a))


def rand_poly(rng: random.Random, nvars: int = 3, terms: int = 4, deg: int = 3):
    out = p_const(0)
    for _ in range(terms):
        term = p_const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for v in range(nvars):
            term = p_mul(term, p_pow(p_var(v), rng.randint(0, deg)))
        out = p_add(out, term)
    return out


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert p_mul(a, b) == p_mul(b, a)
        assert p_add(a, b) == p_add(b, a)
        assert p_mul(a, p_add(b, c)) == p_add(p_mul(a, b), p_mul(a, c))
        assert p_is_zero(p_sub(a, a))


def test_exact_division_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_poly(rng, nvars=2, terms=3, deg=2)
        b = rand_poly(rng, nvars=2, terms=3, deg=2)
        if p_is_zero(b):
            continue
        q = p_div_exact(p_mul(a, b), b)
        assert q == a or p_is_zero(p_sub(q, a))


def test_division_failure_detected():
    x, y = p_var(0), p_var(1)
    assert p_div_exact(p_add(p_mul(x, x), p_const(1)), p_add(x, p_const(1))) is None


def test_gcd_cancels_common_factor():
    x = p_var(0)
    # (x^2 - 1) and (x - 1) share (x - 1)
    a = p_sub(p_mul(x, x), p_const(1))
    b = p_sub(x, p_const(1))
    g = p_gcd(a, b)
    assert g == b


def test_gcd_multivariate_random():
    rng = random.Random(3)
    for _ in range(25):
        g = rand_poly(rng, nvars=3, terms=2, deg=2)
        if p_is_zero(g):
            continue
        a = p_mul(g, rand_poly(rng, nvars=3, terms=2, deg=1))
        b = p_mul(g, rand_poly(rng, nvars=3, terms=2, deg=1))
        if p_is_zero(a) or p_is_zero(b):
            continue
        d = p_gcd(a, b)
        # the common factor divides the gcd and the gcd divides both
        assert p_div_exact(d, p_gcd(d, g)) is not None
        assert p_div_exact(a, d) is not None
        assert p_div_exact(b, d) is not None


def test_gcd_coprime():
    x, y = p_var(0), p_var(1)
    g = p_gcd(p_add(x, p_const(1)), p_add(y, p_const(2)))
    assert g == p_const(1)


def _poly(text: str):
    """Terms split by ';', each 'coefficient gen^exp gen ...' with generator
    numbers, e.g. '2/3 0^5 7; -1' is 2/3*x0^5*x7 - 1."""
    out = p_const(0)
    for term in text.split(";"):
        coeff, *factors = term.split()
        t = p_const(Fraction(coeff))
        for f in factors:
            gen, _, exp = f.partition("^")
            t = p_mul(t, p_pow(p_var(int(gen)), int(exp or 1)))
        out = p_add(out, t)
    return out


def _prs_gcd(a, b):
    """p_gcd with the heuristic switched off: the subresultant PRS alone."""
    with mock.patch.object(sympoly, "_zheu", lambda a, b: None):
        return p_gcd(a, b)


# the slowest gcds of two verify questions, generators renumbered densely:
# coprime operands in 10 jet generators (VTOL prolonged by (2, 2), output
# x - eps*sin(theta), z + eps*cos(theta)), and (c^2 - 1)^4 against a 27-term
# numerator with the factor c^2 - 1, c = cos(theta) = x8 (VTOL, rejected
# pair theta, x*cos(theta)/sin(theta) + z)
_COPRIME_A = (
    "2/3 0^5 7 8 9^2; -5 0^3 3 7 9^3; -2/3 0^3 1 8 9^2; 1/3 0^2 4 7 8 9^2; "
    "2 0 3^2 7 8 9^2; 2 0^2 2 9^3; 1 0 1 3 9^3; -1/3 1 4 8 9^2; -1 2 3 8 9^2; "
    "2 0 5 9^2; -1/3 6 8 9; -1 0 5"
)
_COPRIME_B = (
    "10/3 0^4 7 9^3; 15 0^2 3 7 8 9^2; -10/3 0^4 7 9; -2 0^2 1 9^3; "
    "2/3 0 4 7 9^3; 2 3^2 7 9^3; -10 0^2 3 7 8; -4 0 2 8 9^2; -1 1 3 8 9^2; "
    "2 0^2 1 9; -2/3 0 4 7 9; -2 3^2 7 9; 2 0 2 8; -1 5 8 9"
)
_CIRCLE_NUM = (
    "-8 0 2^3 7 8^5; 3 2 3 6 7 8^6; -12 0 2 3 8^6; -12 1 2^2 8^6; 2 2 5 8^7; "
    "1 4 6 8^7; -8 0 2^3 7 8^3; 2 0 4 7 8^5; 6 1 3 7 8^5; -3 2 3 6 7 8^4; "
    "18 0 2 3 8^4; 18 1 2^2 8^4; -6 2 5 8^5; -3 4 6 8^5; 16 0 2^3 7 8; "
    "-4 0 4 7 8^3; -12 1 3 7 8^3; -3 2 3 6 7 8^2; 6 2 5 8^3; 3 4 6 8^3; "
    "2 0 4 7 8; 6 1 3 7 8; 3 2 3 6 7; -6 0 2 3; -6 1 2^2; -2 2 5 8; -1 4 6 8"
)


@pytest.mark.parametrize(
    "a, b, gcd",
    [
        (_COPRIME_A, _COPRIME_B, "1"),
        (_CIRCLE_NUM, "1 8^8; -4 8^6; 6 8^4; -4 8^2; 1", "1 8^2; -1"),
        # 2(x - 5)(2x^2 - 1), (x - 5)(4x^2 - 5): an evaluation point below the
        # bound 2*min(|a|, |b|) + 2 yields the false candidate 1
        ("4 0^3; -20 0^2; -2 0; 10", "4 0^3; -20 0^2; -5 0; 25", "1 0; -5"),
        # 2(x^2 + 2)(3x + 5), -2(x^2 + 2)(2x^2 - 5x + 3): a candidate checked
        # against a alone can be a/2, which does not divide b
        ("6 0^3; 10 0^2; 12 0; 20", "-4 0^4; 10 0^3; -14 0^2; 20 0; -12", "1 0^2; 2"),
    ],
)
def test_gcd_heuristic_answers(a, b, gcd):
    a, b, gcd = _poly(a), _poly(b), _poly(gcd)
    assert p_gcd(a, b) == gcd
    # the heuristic answers these itself, without the PRS fallback
    assert _zheu(_to_zz(a), _to_zz(b)) == _to_zz(gcd)


def test_gcd_falls_back_to_prs_past_the_cost_cap():
    x, y = p_var(0), p_var(1)
    big = p_const(1 << sympoly._HEU_MAX_BITS)
    common = p_add(p_mul(x, y), big)
    a = p_mul(common, p_add(x, p_const(3)))
    b = p_mul(common, p_sub(p_mul(y, y), big))
    assert _zheu(_to_zz(a), _to_zz(b)) is None
    assert p_gcd(a, b) == common
    assert _prs_gcd(a, b) == common


def test_gcd_matches_sympy_random():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x0:5")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {exponents(m, 5): sympy.Rational(c.numerator, c.denominator)
             for m, c in p.items()},
            gens, domain="QQ",
        )

    def from_sympy(p):
        return p_primitive(
            {mono(m): Fraction(int(c.p), int(c.q)) for m, c in p.terms()}
        )

    rng = random.Random(23)
    for _ in range(40):
        nvars = rng.randint(2, 5)
        g = rand_poly(rng, nvars=nvars, terms=rng.randint(1, 3), deg=2)
        a = p_mul(g, rand_poly(rng, nvars=nvars, terms=3, deg=2))
        b = p_mul(g, rand_poly(rng, nvars=nvars, terms=3, deg=2))
        if p_is_zero(a) or p_is_zero(b):
            continue
        assert p_gcd(a, b) == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))


def _from_terms(terms):
    out = p_const(0)
    for c, exps in terms:
        out = p_add(out, p_mul(p_const(c), {mono(exps): Fraction(1)}))
    return out


_polys = st.lists(
    st.tuples(
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        st.tuples(*[st.integers(0, 3)] * 3),
    ),
    max_size=4,
).map(_from_terms)


@settings(max_examples=60)
@given(_polys, _polys, _polys)
def test_gcd_heuristic_agrees_with_prs(a, b, c):
    a, b = p_mul(a, c), p_mul(b, c)
    g = p_gcd(a, b)
    assert g == _prs_gcd(a, b)
    if not p_is_zero(c):
        assert p_div_exact(g, p_primitive(c)) is not None


def _front_door_gcd(a, b):
    """p_gcd as it was with exits of its own ahead of the integer gcd, and
    the rational primitive part of its result."""
    if p_is_zero(a):
        return p_primitive(b)
    if p_is_zero(b):
        return p_primitive(a)
    if p_is_const(a) or p_is_const(b):
        return p_const(1)
    if a == b:
        return p_primitive(a)
    g = _zgcd(_to_zz(a), _to_zz(b))
    if p_is_const(g):
        return p_const(1)
    return p_primitive(g)


def _front_door_lcm(a, b):
    if p_is_zero(a) or p_is_zero(b):
        return {}
    return p_primitive(p_div_exact(p_mul(a, b), _front_door_gcd(a, b)))


def _typed(p):
    return sorted((m, c, type(c)) for m, c in p.items())


_gcd_operands = st.one_of(
    _polys,
    _polys.map(lambda p: p_mul(p, p_var(3))),  # a fourth generator
    st.fractions(min_value=-20, max_value=20, max_denominator=6).map(p_const),
)


@settings(max_examples=80)
@given(_gcd_operands, _gcd_operands, _polys, st.booleans())
def test_gcd_and_lcm_match_the_front_door_formulas(a, b, c, same):
    """The integer gcd of the primitive integer forms is what the old front
    door returned, coefficient types included: on zero, constant and equal
    operands too."""
    if same:
        b = dict(a)
    a, b = p_mul(a, c), p_mul(b, c)
    for x, y in ((a, b), (b, a), (a, a), (a, {}), ({}, b), ({}, {})):
        assert _typed(p_gcd(x, y)) == _typed(_front_door_gcd(x, y))
        assert _typed(p_lcm(x, y)) == _typed(_front_door_lcm(x, y))


@settings(max_examples=40)
@given(_polys, _polys, _polys)
def test_exact_division_matches_sympy(a, b, c):
    sympy = pytest.importorskip("sympy")
    R, *_ = sympy.ring("x0:3", sympy.QQ, sympy.grlex)

    def to_ring(p):
        return R({exponents(m, 3): c for m, c in p.items()})

    if p_is_zero(b):
        return
    # a product divides back to its cofactor; a + c*b is divisible iff a is
    assert p_div_exact(p_mul(a, b), b) == a
    for n in (a, p_add(a, p_mul(c, b))):
        q, r = to_ring(n).div(to_ring(b))
        ours = p_div_exact(n, b)
        if r:
            assert ours is None
        else:
            assert ours is not None and to_ring(ours) == q


_zpolys = _polys.map(lambda p: {m: int(c) for m, c in p.items() if int(c)})


@settings(max_examples=40)
@given(_zpolys, _zpolys, _zpolys, st.integers(2, 6))
def test_integer_division_matches_sympy(a, b, c, k):
    sympy = pytest.importorskip("sympy")
    R, *_ = sympy.ring("x0:3", sympy.ZZ, sympy.grlex)

    def to_ring(p):
        return R({exponents(m, 3): c for m, c in p.items()})

    if p_is_zero(b):
        return
    assert _zdiv_exact(p_mul(a, b), b) == a
    # a + c*b divides iff a does; k*b divides a*b over Q, over Z only when k
    # divides the content of a
    kb = {m: k * v for m, v in b.items()}
    for n, d in ((a, b), (p_add(a, p_mul(c, b)), b), (p_mul(a, b), kb)):
        q, r = to_ring(n).div(to_ring(d))
        ours = _zdiv_exact(n, d)
        if r:
            assert ours is None
        else:
            assert ours is not None and to_ring(ours) == q


@pytest.mark.parametrize(
    "num, den, over_q",
    [
        ("2*x + 2", "x + 1", 2),
        ("x + 1", "2*x + 2", Fraction(1, 2)),  # exists over Q only
        ("3*x**2*y", "2*x", Fraction(3, 2)),  # monomial divisor, 2 does not divide 3
        ("4*x**2*y", "2*x", 2),
        ("6*x*y + 3", "3", 1),
        ("6*x*y + 3", "6", Fraction(1, 2)),
    ],
)
def test_integer_division_cases_match_sympy(num, den, over_q):
    sympy = pytest.importorskip("sympy")
    R, x, y = sympy.ring("x, y", sympy.ZZ, sympy.grlex)
    n, d = (R(eval(text, {"x": x, "y": y})) for text in (num, den))

    def ours(p):
        return {mono(m): int(c) for m, c in p.terms()}

    q, r = n.div(d)
    got = _zdiv_exact(ours(n), ours(d))
    if r:
        assert got is None
    else:
        assert got == ours(q)
    # over Q the quotient always exists; its content is over_q
    qq = p_div_exact(
        {m: Fraction(c) for m, c in ours(n).items()},
        {m: Fraction(c) for m, c in ours(d).items()},
    )
    assert qq is not None and p_content(qq) == over_q
    assert (got is None) == (Fraction(over_q).denominator != 1)


def test_lcm():
    x = p_var(0)
    a = p_sub(p_mul(x, x), p_const(1))  # (x-1)(x+1)
    b = p_sub(x, p_const(1))
    m = p_lcm(a, b)
    assert p_div_exact(m, a) is not None
    assert p_div_exact(m, b) is not None
    assert p_total_degree(m) == 2


def partial(a, i):
    """The partial derivative by generator i: the kernel on a unit chain."""
    return p_derive([(0, a, {i: (0, p_const(1))}, 1)]).get(0, {})


def test_diff_product_rule():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_poly(rng, nvars=2)
        b = rand_poly(rng, nvars=2)
        lhs = partial(p_mul(a, b), 0)
        rhs = p_add(p_mul(partial(a, 0), b), p_mul(a, partial(b, 0)))
        assert p_is_zero(p_sub(lhs, rhs))


def test_sqrt_perfect_squares():
    rng = random.Random(9)
    for _ in range(30):
        a = rand_poly(rng, nvars=3, terms=3, deg=2)
        sq = p_mul(a, a)
        r = p_sqrt(sq)
        assert r is not None
        assert p_is_zero(p_sub(p_mul(r, r), sq))


def test_sqrt_rejects_non_squares():
    x = p_var(0)
    assert p_sqrt(x) is None
    assert p_sqrt(p_add(p_mul(x, x), p_const(1))) is None
    assert p_sqrt(p_const(Fraction(2))) is None
    assert p_sqrt(p_const(Fraction(9, 4))) == p_const(Fraction(3, 2))


# --- the coefficient rule: an int when integral, else a Fraction ---

_coeffs = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    # integral Fractions, such as Fraction(6, 2)
    st.integers(-6, 6).map(lambda k: Fraction(2 * k, 2)),
)

_mixed_polys = st.lists(
    st.tuples(_coeffs, st.tuples(*[st.integers(0, 2)] * 3)), max_size=4
).map(lambda terms: {mono(exps): c for c, exps in terms if c})


def _is_coeff(c) -> bool:
    return type(c) is int or type(c) is Fraction


def _is_stored(c) -> bool:
    """The stored form: an int when integral, a Fraction otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _as_fractions(p):
    return {m: Fraction(c) for m, c in p.items()}


@settings(max_examples=80)
@given(_mixed_polys, _mixed_polys, _coeffs, st.integers(0, 3), st.integers(0, 2))
def test_coefficients_are_int_or_fraction(a, b, s, n, i):
    fa, fb, fs = _as_fractions(a), _as_fractions(b), Fraction(s)
    # (result on the mixed operands, result on all-Fraction copies, stored form)
    cases = [
        (p_const(s), p_const(fs), True),
        (p_add(a, b), p_add(fa, fb), False),
        (p_sub(a, b), p_sub(fa, fb), False),
        (p_mul(a, b), p_mul(fa, fb), False),
        (p_pow(a, n), p_pow(fa, n), False),
        (p_scale(a, s), p_scale(fa, fs), True),
        (partial(a, i), partial(fa, i), True),
        (p_primitive(a), p_primitive(fa), True),
        (p_gcd(a, b), p_gcd(fa, fb), True),
        (p_sqrt(a), p_sqrt(fa), True),
        (p_sqrt(p_mul(a, a)), p_sqrt(p_mul(fa, fa)), True),
    ]
    if b:
        cases += [
            (p_div_exact(a, b), p_div_exact(fa, fb), True),
            (p_div_exact(p_mul(a, b), b), p_div_exact(p_mul(fa, fb), fb), True),
        ]
    for got, want, stored in cases:
        assert got == want
        if got is None:
            continue
        assert all(_is_coeff(c) for c in got.values())
        if stored:
            assert all(_is_stored(c) for c in got.values())
    content = p_content(a)
    assert content == p_content(fa) and _is_stored(content)


# -- the packed monomial format -----------------------------------------------------

_exponent_vectors = st.lists(st.integers(0, MAX_EXP), max_size=SLOTS)


def _tuple_key(exps):
    """The graded-lex key of the tuple format the packed ints replaced:
    (total degree, exponent tuple with trailing zeros trimmed)."""
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return (sum(exps), tuple(exps))


@settings(max_examples=300)
@given(_exponent_vectors, _exponent_vectors)
def test_packed_order_is_the_tuple_order(a, b):
    ma, mb = mono(a), mono(b)
    assert (ma < mb) == (_tuple_key(a) < _tuple_key(b))
    assert (ma == mb) == (_tuple_key(a) == _tuple_key(b))


@settings(max_examples=200)
@given(_exponent_vectors)
def test_encoding_then_decoding_gives_the_exponents_back(exps):
    m = mono(exps)
    assert exponents(m, len(exps)) == tuple(exps)
    assert mono_items(m) == [(i, e) for i, e in enumerate(exps) if e]
    assert mono_degree(m) == sum(exps)
    assert all(mono_get(m, i) == e for i, e in enumerate(exps))


@settings(max_examples=100)
@given(_exponent_vectors, st.integers(0, SLOTS - 1), st.integers(0, MAX_EXP))
def test_mono_set_touches_one_field(exps, i, e):
    dense = list(exps) + [0] * (SLOTS - len(exps))
    dense[i] = e
    assert mono_set(mono(exps), i, e) == mono(dense)


def test_products_up_to_the_limit_carry_into_no_other_field():
    top = p_pow(p_var(SLOTS - 1), MAX_EXP)
    full = p_mul(top, p_pow(p_var(0), MAX_EXP))
    (m,) = full
    assert mono_items(m) == [(0, MAX_EXP), (SLOTS - 1, MAX_EXP)]
    assert p_div_exact(full, top) == p_pow(p_var(0), MAX_EXP)
    assert p_vars(full) == {0, SLOTS - 1}


def test_exponent_overflow_raises():
    x, y = p_var(0), p_var(SLOTS - 1)
    with pytest.raises(MonomialLimitError, match=str(MAX_EXP)):
        p_pow(x, MAX_EXP + 1)
    with pytest.raises(MonomialLimitError):
        p_pow(p_add(x, y), 100_000)
    with pytest.raises(MonomialLimitError):
        p_mul(p_pow(y, MAX_EXP), p_add(y, p_const(1)))
    with pytest.raises(MonomialLimitError):
        mono_set(0, 3, MAX_EXP + 1)


def test_generators_past_the_slots_are_refused():
    with pytest.raises(MonomialLimitError, match=str(SLOTS)):
        p_var(SLOTS)
    with pytest.raises(MonomialLimitError):
        mono_get(0, SLOTS)


def test_division_past_the_limit_fails_cleanly():
    # the remainder of x^100*y^100 / (x + y^2) climbs to x^150: the walk
    # meets exponents past MAX_EXP and reports the inexact division
    x, y = p_var(0), p_var(1)
    b = p_add(x, p_pow(y, 2))
    assert p_div_exact(p_mul(p_pow(x, 100), p_pow(y, 100)), b) is None
    q = p_mul(p_pow(x, 60), p_pow(y, 60))
    assert p_div_exact(p_mul(q, b), b) == q


def test_generators_in_the_order_the_monomials_meet_them():
    x, y, z = p_var(0), p_var(1), p_var(2)
    # y^2 then y*z: y's field changes bits, and is still not new
    a = {next(iter(p_pow(y, 2))): 1, next(iter(p_mul(y, z))): 1}
    assert sympoly.p_vars_in_order(a, p_add(x, z)) == [1, 2, 0]


def _vars_in_order_by_items(*polys):
    """The reference: each monomial's generators by `mono_items`, kept when
    their field in the union of the monomials so far is still zero."""
    seen = 0
    out = []
    for poly in polys:
        for m in poly:
            out.extend(i for i, _ in mono_items(m) if not mono_get(seen, i))
            seen |= m
    return out


_sparse_monomials = st.lists(
    st.lists(st.tuples(st.integers(0, SLOTS - 1), st.integers(1, MAX_EXP)), max_size=4).map(
        lambda pairs: mono([dict(pairs).get(i, 0) for i in range(SLOTS)])
    ),
    max_size=5,
)


@settings(max_examples=200)
@given(st.lists(_sparse_monomials, max_size=3))
def test_generators_in_met_order_match_the_item_walk(polys):
    polys = [dict.fromkeys(ms, 1) for ms in polys]
    assert sympoly.p_vars_in_order(*polys) == _vars_in_order_by_items(*polys)


# -- circle reduction against the quadratic version it replaced ----------------------


def _quadratic_circle_reduce(a, pairs):
    """p_circle_reduce as it was before it ran in linear time: the result is
    copied by p_add once per term and 1 - c^2 is rebuilt for every term."""
    if not pairs:
        return a
    # bits 1 and up of the s fields: set exactly when some exponent is >= 2
    high = sum((sympoly._FIELD ^ 1) << sympoly._slot(si) for si in pairs)
    if not any(m & high for m in a):
        return a
    out = {}
    for m, c in a.items():
        term = {m: c}
        for si, ci in pairs.items():
            if mono_get(m, si) >= 2:
                reduced = {}
                for tm, tc in term.items():
                    te = mono_get(tm, si)
                    base = {mono_set(tm, si, te % 2): tc}
                    one_minus_c2 = p_sub(p_const(1), p_pow(p_var(ci), 2))
                    reduced = p_add(reduced, p_mul(base, p_pow(one_minus_c2, te // 2)))
                term = reduced
        out = p_add(out, term)
    return out


def _both_circle_reductions(a, pairs):
    """(linear, quadratic) results, or the exception type each raised."""
    out = []
    for reduce in (
        lambda: p_circle_reduce(a, pairs, _circle_high(pairs)),
        lambda: _quadratic_circle_reduce(a, pairs),
    ):
        try:
            out.append(reduce())
        except MonomialLimitError:
            out.append(MonomialLimitError)
    return out


# generators 0 and 1, then the pairs (2, 3) and (4, 5); two pairs or the first
_CIRCLE_PAIRS = st.sampled_from(({2: 3}, {2: 3, 4: 5}))
_circle_polys = st.lists(
    st.tuples(
        st.integers(-9, 9).filter(bool) | st.fractions(-9, 9, max_denominator=4).filter(bool),
        st.lists(st.integers(0, MAX_EXP), min_size=6, max_size=6),
    ),
    max_size=4,
)


@settings(max_examples=80)
@given(_circle_polys, _CIRCLE_PAIRS)
def test_circle_reduction_matches_the_quadratic_version(terms, pairs):
    a = {}
    for c, exps in terms:
        a = p_add(a, {mono(exps): c})
    linear, quadratic = _both_circle_reductions(a, pairs)
    # the same terms in the same order: expr.transfer reads generators in it
    assert linear == quadratic
    if linear is not MonomialLimitError:
        assert list(linear.items()) == list(quadratic.items())
        assert all(mono_get(m, si) <= 1 for m in linear for si in pairs)


def test_circle_reduction_cases():
    s, c, x = p_var(2), p_var(3), p_var(0)
    pairs = {2: 3}
    # s^5 * x = s * (1 - c^2)^2 * x
    reduced = p_circle_reduce(p_mul(p_pow(s, 5), x), pairs, _circle_high(pairs))
    expected = p_mul(p_mul(s, x), p_pow(p_sub(p_const(1), p_pow(c, 2)), 2))
    assert reduced == expected
    # s^2 + c^2 - 1 reduces to zero; a reduced polynomial comes back as it is
    unit = p_sub(p_add(p_pow(s, 2), p_pow(c, 2)), p_const(1))
    assert p_circle_reduce(unit, pairs, _circle_high(pairs)) == {}
    assert p_circle_reduce(expected, pairs, _circle_high(pairs)) is expected
    # s^4 * c^125 needs c^129: both versions refuse it
    past = p_mul(p_pow(s, 4), p_pow(c, MAX_EXP - 2))
    assert _both_circle_reductions(past, pairs) == [MonomialLimitError] * 2
    at_limit = p_mul(p_pow(s, 4), p_pow(c, MAX_EXP - 4))
    linear, quadratic = _both_circle_reductions(at_limit, pairs)
    assert linear == quadratic and mono_get(max(linear), 3) == MAX_EXP


# -- residues mod p against the term-by-term formula ---------------------------------


def _residue_by_terms(a, values):
    """The reference: each term is its coefficient's residue num * den^-1
    times the powers of its generators' residues, read by `mono_items`."""
    total = 0
    for m, c in a.items():
        c = Fraction(c)
        if c.denominator % PRIME == 0:
            raise PrimeDenominatorError(c)
        term = c.numerator * pow(c.denominator, -1, PRIME) % PRIME
        for i, k in mono_items(m):
            term = term * (values[i] if k == 1 else pow(values[i], k, PRIME)) % PRIME
        total += term
    return total % PRIME


def test_residue_walk_matches_the_term_formula():
    rng = random.Random(31)
    # base symbols, a parameter and two sin/cos pairs on the half-angle circle
    chart = Chart(["x", "y", "theta", "phi"], ["eps"])
    chart.trig_pair("theta")
    chart.trig_pair("phi")
    n = len(chart.gens())
    for _ in range(300):
        values = modular_point(chart, rng)
        a = {}
        for _ in range(rng.randint(0, 6)):
            exps = [0] * n
            for i in rng.sample(range(n), rng.randint(0, 3)):
                exps[i] = rng.choice((1, 2, rng.randint(3, MAX_EXP), MAX_EXP))
            c = rng.choice((
                rng.randint(-(10**30), 10**30) or 1,
                Fraction(rng.randint(1, 99), rng.randint(2, 99)),
                Fraction(rng.randint(-(10**30), -1), PRIME + rng.randint(1, 99)),
            ))
            a[mono(exps)] = c
        assert p_residue(a, values, PRIME) == _residue_by_terms(a, values)
    # a denominator that PRIME divides has no residue, wherever it sits
    for c in (Fraction(1, PRIME), Fraction(-3, 2 * PRIME)):
        for m in (0, mono([0, 2, 0, 1])):
            a = {mono([1]): 1, m: c}
            with pytest.raises(PrimeDenominatorError):
                p_residue(a, [2, 3, 4, 5], PRIME)
            with pytest.raises(PrimeDenominatorError):
                _residue_by_terms(a, [2, 3, 4, 5])
