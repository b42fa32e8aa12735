"""Polynomial layer: arithmetic, exact division, gcd, square roots."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatkit import sympoly
from flatkit.errors import MonomialLimitError
from flatkit.sympoly import (
    MAX_EXP,
    SLOTS,
    _to_zz,
    _zdiv_exact,
    _zheu,
    mono_degree,
    mono_get,
    mono_items,
    mono_set,
    p_add,
    p_const,
    p_content,
    p_diff,
    p_div_exact,
    p_gcd,
    p_is_zero,
    p_lcm,
    p_mul,
    p_pow,
    p_primitive,
    p_scale,
    p_sqrt,
    p_sub,
    p_total_degree,
    p_var,
    p_vars,
)

from conftest import exponents, mono


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


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_gcd_heuristic_agrees_with_prs(a, b, c):
    a, b = p_mul(a, c), p_mul(b, c)
    g = p_gcd(a, b)
    assert g == _prs_gcd(a, b)
    if not p_is_zero(c):
        assert p_div_exact(g, p_primitive(c)) is not None


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=40, deadline=None)
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
    assert qq is not None and sympoly.p_content(qq) == over_q
    assert (got is None) == (Fraction(over_q).denominator != 1)


def test_lcm():
    x = p_var(0)
    a = p_sub(p_mul(x, x), p_const(1))  # (x-1)(x+1)
    b = p_sub(x, p_const(1))
    m = p_lcm(a, b)
    assert p_div_exact(m, a) is not None
    assert p_div_exact(m, b) is not None
    assert p_total_degree(m) == 2


def test_diff_product_rule():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_poly(rng, nvars=2)
        b = rand_poly(rng, nvars=2)
        lhs = p_diff(p_mul(a, b), 0)
        rhs = p_add(p_mul(p_diff(a, 0), b), p_mul(a, p_diff(b, 0)))
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


@settings(max_examples=80, deadline=None, derandomize=True)
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
        (p_diff(a, i), p_diff(fa, i), False),
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


@settings(max_examples=300, deadline=None)
@given(_exponent_vectors, _exponent_vectors)
def test_packed_order_is_the_tuple_order(a, b):
    ma, mb = mono(a), mono(b)
    assert (ma < mb) == (_tuple_key(a) < _tuple_key(b))
    assert (ma == mb) == (_tuple_key(a) == _tuple_key(b))


@settings(max_examples=200, deadline=None)
@given(_exponent_vectors)
def test_encoding_then_decoding_gives_the_exponents_back(exps):
    m = mono(exps)
    assert exponents(m, len(exps)) == tuple(exps)
    assert mono_items(m) == [(i, e) for i, e in enumerate(exps) if e]
    assert mono_degree(m) == sum(exps)
    assert all(mono_get(m, i) == e for i, e in enumerate(exps))


@settings(max_examples=100, deadline=None)
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
