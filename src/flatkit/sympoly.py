"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dict mapping monomials to nonzero rational coefficients.
A coefficient is an int when its value is an integer and a Fraction
otherwise, never a float or a bool: almost every coefficient of a control
system is an integer, and int arithmetic skips the gcd that every Fraction
operation pays to renormalize.  Int-only operands stay int under add, neg,
mul, pow and p_derive; the routines that make new coefficients (p_const,
p_scale, p_div_exact) store an integral value as an int, and p_gcd and
p_lcm return primitive integer polynomials: int coefficients whose gcd is
1, the leading one positive.  A sum or product of Fractions may still leave
an integral Fraction; since Fraction(2) == 2 and hash(Fraction(2)) == hash(2),
that changes neither Poly equality nor hashing nor any rendered string.

A monomial is one nonnegative int, its exponent vector packed (Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  From the most significant end:

    | total degree | e_0 | e_1 | ... | e_(SLOTS-1) |

The total degree takes every bit above SLOTS * FIELD_BITS, so it is never
bounded.  Below it sit SLOTS fields of FIELD_BITS bits, generator 0 in the
most significant one.  The top bit of each field is a guard bit, always
clear in a monomial, so an exponent is at most MAX_EXP = 2^(FIELD_BITS-1) - 1.
The constant monomial is 0; `mono_set(m, i, e)` gives generator i the
exponent e, and `mono_items(m)` lists the (generator, exponent) pairs.

* Order.  Comparing two such ints compares the degrees first, then e_0,
  e_1, ... in turn: graded lexicographic order with generator 0 first,
  which is the order rendering and every leading term use.  So `p_lead` is
  `max`, the division walk's heap key is `-m` and rendering sorts by `m`.
* Product.  a * b is a + b: each field sum stays below 2^FIELD_BITS, so no
  carry reaches the next field, and the degree fields add.  A sum whose
  field reached MAX_EXP + 1 shows it in that field's guard bit.
* Quotient.  b divides a iff (a - b) & guard bits is 0: the lowest field
  where b's exponent is larger borrows from the field above and leaves its
  own guard bit set.

Two limits follow, both checked, neither silent:

* SLOTS = 64 generators per chart.  `expr.Chart` refuses to register the
  65th.  The largest charts measured have 25 generators in the tier-1 tests
  and in one round of each flatbench workload, and 40 on the two-chain
  models of ROADMAP item 3 (20 states; `analyze` and `verify` of tc5 to
  tc10).  A two-input system of 20 states without parameters or angles has
  an input-jet chart of at most 20 + 2 * 19 = 58 coordinates (R_i <= n - 1).
* FIELD_BITS = 8, so MAX_EXP = 127.  The largest exponents measured are 31
  in the tier-1 tests, 16 in flatbench and 27 on the two-chain models.  A
  wider field costs on every product: a 900-product `p_mul` on 64 slots
  took 281 us at 8 bits, 395 us at 16 bits and 2.9 ms on the trimmed
  exponent tuples this format replaced (Python 3.11, 2-vCPU x86 VM).

`p_mul` (and so `p_pow`) checks its product's fields whenever the operands'
degrees add past MAX_EXP, and raises MonomialLimitError on a set guard bit;
`mono_set` and `p_var` refuse what does not fit.  The division walk needs
no check of its own: each quotient monomial passes the divisibility test,
so it is a valid monomial, and its products with the divisor's terms carry
into no other field.  A product past MAX_EXP shows that the division is
inexact (in an exact one no product has an exponent above the dividend's
degree in that generator), and the quotient monomial it leads to fails the
test.

Outside this module monomials are read only through `mono_items`,
`mono_degree`, `mono_get`, `mono_set` and the `p_*` functions, among them
`p_residue`, the residue walk mod a prime that `sample` evaluates with: it
decodes each monomial's fields in place, with no `mono_items` list.

Exact division has one heap walk (`_div_walk`) for both coefficient rings:
p_div_exact divides coefficients over the rationals, and the integer core of
the gcd divides them with `divmod`, stopping when a remainder is left.

gcds (p_gcd) run over the integers after clearing denominators, in three
stages, each returning the same unique answer:

* cheap exits: zero or constant operands, equal operands, integer and
  monomial content, no common generator, one operand dividing the other;
* GCDHEU (Char, Geddes & Gonnet, JSC 1989): evaluate one generator at an
  integer xi >= 2*min(|a|, |b|) + 29, take the gcd of the images the same
  way, and read a candidate from the xi-adic digits of its coefficients.
  By CGG 1989 Thm. 1 a primitive candidate that divides both operands
  exactly is their gcd, so only candidates that pass both divisions are
  returned.  It gives up after six evaluation points or when the evaluated
  coefficients would pass _HEU_MAX_BITS bits;
* the subresultant remainder sequence, recursive in the generators, as
  the fallback.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import MonomialLimitError, PrimeDenominatorError

Monomial = int
Poly = dict[Monomial, int | Fraction]

SLOTS = 64
FIELD_BITS = 8
MAX_EXP = (1 << (FIELD_BITS - 1)) - 1

_FIELD = (1 << FIELD_BITS) - 1
_DEG_SHIFT = SLOTS * FIELD_BITS
_EXPS = (1 << _DEG_SHIFT) - 1
# the bit offset of generator i's field, and the monomial x_i itself
_SHIFT = tuple((SLOTS - 1 - i) * FIELD_BITS for i in range(SLOTS))
_VAR = tuple((1 << _DEG_SHIFT) + (1 << s) for s in _SHIFT)
_FIELDS = tuple(_FIELD << s for s in _SHIFT)  # the bits of generator i's field
_GUARDS = sum(1 << (s + FIELD_BITS - 1) for s in _SHIFT)
# monomials from here up have a degree, and maybe an exponent, past MAX_EXP
_DEG_PAST = (MAX_EXP + 1) << _DEG_SHIFT

_ZERO = 0
_ONE = 1


def _exponent_overflow() -> MonomialLimitError:
    return MonomialLimitError(f"an exponent passes the limit of {MAX_EXP}")


def _slot(i: int) -> int:
    """The field offset of generator i; raises past SLOTS generators."""
    if i >= SLOTS:
        raise MonomialLimitError(f"generator {i} passes the limit of {SLOTS} generators")
    return _SHIFT[i]


def mono_items(m: Monomial) -> list[tuple[int, int]]:
    """(generator, exponent) for each generator of m, in generator order."""
    x = m & _EXPS
    out = []
    while x:
        # the highest set bit lies in the field of the next generator
        i = (_DEG_SHIFT - x.bit_length()) // FIELD_BITS
        s = _SHIFT[i]
        e = x >> s
        out.append((i, e))
        x -= e << s
    return out


def mono_degree(m: Monomial) -> int:
    return m >> _DEG_SHIFT


def mono_get(m: Monomial, i: int) -> int:
    return (m >> _slot(i)) & _FIELD


def mono_set(m: Monomial, i: int, e: int) -> Monomial:
    if e > MAX_EXP:
        raise _exponent_overflow()
    return m + (e - ((m >> _slot(i)) & _FIELD)) * _VAR[i]


def _coeff(c: int | Fraction) -> int | Fraction:
    """c as a coefficient: an int when its value is an integer."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def p_const(c: int | Fraction) -> Poly:
    c = _coeff(c)
    return {} if c == 0 else {0: c}


def p_var(i: int) -> Poly:
    _slot(i)
    return {_VAR[i]: _ONE}


def p_is_zero(p: Poly) -> bool:
    return not p


def p_is_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and 0 in p)


def p_const_value(p: Poly) -> int | Fraction:
    if not p:
        return _ZERO
    return p[0]


def p_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_scale(a: Poly, c: int | Fraction) -> Poly:
    c = _coeff(c)
    if not c:
        return {}
    out: Poly = {}
    for m, v in a.items():
        v *= c
        out[m] = v.numerator if type(v) is not int and v.denominator == 1 else v
    return out


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 and 0 in a:
        # a constant factor scales b; the constant 1 copies it
        c = a[0]
        return dict(b) if c == 1 else {m: c * v for m, v in b.items()}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    # in a product of degree MAX_EXP or less every exponent fits its field
    if max(a) + max(b) >= _DEG_PAST and any(m & _GUARDS for m in out):
        raise _exponent_overflow()
    return out


def p_pow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative polynomial power")
    out = p_const(1)
    base = a
    while n:
        if n & 1:
            out = p_mul(out, base)
        base_needed = n >> 1
        if base_needed:
            base = p_mul(base, base)
        n >>= 1
    return out


def p_total_degree(a: Poly) -> int:
    if not a:
        return 0
    return max(a) >> _DEG_SHIFT


def p_degree_in(a: Poly, i: int) -> int:
    s = _slot(i)
    return max((m >> s) & _FIELD for m in a) if a else 0


def p_vars(a: Poly) -> set[int]:
    seen = 0
    for m in a:
        seen |= m
    return {i for i, _ in mono_items(seen)}


def p_vars_in_order(*polys: Poly) -> list[int]:
    """The generators of the polys in the order their monomials meet them:
    poly by poly, monomial by monomial, and by index within a monomial."""
    unseen = _EXPS  # the fields of the generators not met yet
    out: list[int] = []
    for poly in polys:
        for m in poly:
            x = m & unseen
            while x:
                # the highest set bit lies in the field of the next generator
                i = (_DEG_SHIFT - x.bit_length()) // FIELD_BITS
                out.append(i)
                unseen ^= _FIELDS[i]
                x &= unseen
    return out


def p_lead(a: Poly) -> tuple[Monomial, int | Fraction]:
    m = max(a)
    return m, a[m]


def p_clear(a: Poly) -> tuple[Poly, int]:
    """(den * a, den) with den the lcm of a's coefficient denominators, so
    that every coefficient of den * a is an int; (a, 1) when they all are."""
    if Fraction not in map(type, a.values()):
        return a, 1
    den = math.lcm(*(c.denominator for c in a.values()))
    return p_scale(a, den), den


def p_residue(a: Poly, values: Sequence[int], prime: int) -> int:
    """a mod `prime` at the residues `values` of its generators, in one walk
    over the terms: each monomial's fields are decoded in place, and an int
    coefficient enters the product as it is.  A Fraction coefficient whose
    denominator `prime` divides raises PrimeDenominatorError."""
    total = 0
    for m, c in a.items():
        if type(c) is int:
            term = c
        else:
            den = c.denominator
            if den % prime == 0:
                raise PrimeDenominatorError(c)
            term = c.numerator * pow(den, -1, prime)
        x = m & _EXPS
        while x:
            # the highest set bit lies in the field of the next generator
            i = (_DEG_SHIFT - x.bit_length()) // FIELD_BITS
            s = _SHIFT[i]
            e = x >> s
            x -= e << s
            v = values[i]
            term = term * (v if e == 1 else pow(v, e, prime)) % prime
        total += term
    return total % prime


# generator -> (slot offset, multiplier): the chain rule of a derivation
Chain = dict[int, tuple[int, Poly]]


def p_derive(terms: list[tuple[int, Poly, Chain, int]]) -> dict[int, Poly]:
    """The derivation kernel: for each term (slot, a, chain, den), with
    chain[g] = (offset, m_g), add (da/dg) * m_g / den into output slot
    slot + offset, for every generator g of the chain.

    Multipliers are nonzero with int coefficients, and each den is a
    nonzero int (a negative one subtracts).  The walk runs on ints: each a
    is cleared by the lcm of its coefficient denominators first, every term
    is brought to one common denominator, and the outputs are divided by it
    once at the end.  A slot that no product reaches, or whose products
    cancel, is absent.  Each monomial of a meets only the generators it
    shares with the chain, read off its packed fields.  No exponent passes
    MAX_EXP in an output of degree MAX_EXP or less, so only a higher one has
    its fields checked; a set guard bit raises MonomialLimitError.
    """
    cleared = []
    common = 1
    for slot, a, chain, den in terms:
        if Fraction in map(type, a.values()):
            a, da = p_clear(a)
            den *= da
        cleared.append((slot, a, chain, den))
        if den != 1:
            common = math.lcm(common, den)
    out: dict[int, Poly] = {}
    masks: dict[int, int] = {}  # id(chain) -> the fields of its generators
    shift, var = _SHIFT, _VAR
    for base_slot, a, chain, den in cleared:
        scale = common // den
        mask = masks.get(id(chain))
        if mask is None:
            mask = masks[id(chain)] = sum(map(_FIELDS.__getitem__, chain))
        for m, c in a.items():
            x = m & mask
            if not x:
                continue
            c *= scale
            while x:
                # the highest set bit lies in the field of the next generator
                g = (_DEG_SHIFT - x.bit_length()) // FIELD_BITS
                e = x >> shift[g]
                x -= e << shift[g]
                offset, mg = chain[g]
                acc = out.get(base_slot + offset)
                if acc is None:
                    acc = out[base_slot + offset] = {}
                base = m - var[g]
                k = c * e
                for mm, cm in mg.items():
                    t = base + mm
                    v = acc.get(t, 0) + k * cm
                    if v:
                        acc[t] = v
                    else:
                        del acc[t]
    for slot, acc in list(out.items()):
        if not acc:
            del out[slot]
        elif max(acc) >= _DEG_PAST and any(t & _GUARDS for t in acc):
            raise _exponent_overflow()
        elif common != 1:
            out[slot] = {t: _qdivide(v, common) for t, v in acc.items()}
    return out


def p_reflect(a: Poly, i: int) -> Poly:
    """a with generator i replaced by its negative."""
    s = _slot(i)
    return {m: -c if (m >> s) & 1 else c for m, c in a.items()}


def p_rename(a: Poly, index: dict[int, int]) -> Poly:
    """a with generator i renamed index[i]; the renaming must be one-to-one
    on the generators of a."""
    var = {i: _VAR[j] for i, j in index.items()}
    return {sum(e * var[i] for i, e in mono_items(m)): c for m, c in a.items()}


def _circle_high(pairs: dict[int, int]) -> int:
    """Bits 1 and up of each sine field of `pairs`: m & mask is nonzero
    exactly when some sine exponent of m is 2 or more."""
    return sum((_FIELD ^ 1) << _slot(si) for si in pairs)


def p_circle_reduce(a: Poly, pairs: dict[int, int], high: int) -> Poly:
    """Normal form modulo s^2 + c^2 - 1 for each pair (s, c) of generators:
    every power s^e with e >= 2 becomes s^(e mod 2) * (1 - c^2)^(e div 2).

    `high` is `_circle_high(pairs)`, which the caller keeps beside its
    pairs; a polynomial with no sine exponent past 1 is returned as it is.
    Runs in time linear in the terms it makes: each term expands by the
    binomial coefficients of (1 - c^2)^k, applied to the packed monomial,
    straight into one result dict.  A cosine exponent pushed past MAX_EXP
    raises MonomialLimitError.
    """
    if not high or not any(m & high for m in a):
        return a
    out: Poly = {}
    for m, c in a.items():
        terms = [(m, c)]
        if m & high:
            for si, ci in pairs.items():
                k = ((m >> _SHIFT[si]) & _FIELD) >> 1
                if not k:
                    continue
                if ((m >> _SHIFT[ci]) & _FIELD) + 2 * k > MAX_EXP:
                    raise _exponent_overflow()
                # s^(2k) -> sum over j of (-1)^j C(k, j) c^(2j)
                down = 2 * k * _VAR[si]
                up = 2 * _VAR[ci]
                row = [(-1) ** j * math.comb(k, j) for j in range(k + 1)]
                terms = [
                    (tm - down + j * up, tc * b)
                    for tm, tc in terms
                    for j, b in enumerate(row)
                ]
        for tm, tc in terms:
            s = out.get(tm, 0) + tc
            if s:
                out[tm] = s
            else:
                del out[tm]
    return out


def _div_walk(
    a: Poly,
    b: Poly,
    divide: Callable[[int | Fraction, int | Fraction], Optional[int | Fraction]],
) -> Optional[Poly]:
    """Quotient a/b when b divides a exactly, else None.

    `divide(c, lc)` is one coefficient of the quotient, or None when that
    coefficient does not exist in the ring.  A monomial divisor (a constant
    included) divides term by term.  Otherwise a single descending pass runs
    over the remainder support: every monomial in the remainder owns a live
    heap entry, entries for cancelled monomials are skipped on pop, and
    products of a quotient term only land strictly below the monomial being
    eliminated.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    mb, cb = p_lead(b)
    quo: Poly = {}
    if len(b) == 1:
        for mr, cr in a.items():
            m = mr - mb
            if m & _GUARDS:
                return None
            c = divide(cr, cb)
            if c is None:
                return None
            quo[m] = c
        return quo
    btail = [(m, c) for m, c in b.items() if m != mb]
    rem = dict(a)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    while heap:
        mr = -heapq.heappop(heap)
        cr = rem.pop(mr, None)
        if cr is None:
            continue
        m = mr - mb
        if m & _GUARDS:
            return None
        c = divide(cr, cb)
        if c is None:
            return None
        quo[m] = c
        for mt, ct in btail:
            mm = m + mt
            prev = rem.get(mm)
            if prev is None:
                heapq.heappush(heap, -mm)
                rem[mm] = -c * ct
            else:
                val = prev - c * ct
                if val:
                    rem[mm] = val
                else:
                    del rem[mm]
    return quo


def _qdivide(c: int | Fraction, lc: int | Fraction) -> int | Fraction:
    """c / lc over the rationals; an int when the quotient is integral."""
    if type(c) is int and type(lc) is int:
        if c % lc == 0:
            return c // lc
        return Fraction(c, lc)
    return _coeff(c / lc)  # at least one operand is a Fraction, so c / lc is one


def p_div_exact(a: Poly, b: Poly) -> Optional[Poly]:
    """Quotient a/b over the rationals when b divides a exactly, else None."""
    return _div_walk(a, b, _qdivide)


def _uv_coeffs(a: Poly, v: int) -> dict[int, Poly]:
    """View a as univariate in generator v with polynomial coefficients."""
    s = _slot(v)
    out: dict[int, Poly] = {}
    for m, c in a.items():
        e = (m >> s) & _FIELD
        base = m - e * _VAR[v]
        coeff = out.setdefault(e, {})
        t = coeff.get(base, 0) + c
        if t:
            coeff[base] = t
        else:
            coeff.pop(base, None)
    return {e: c for e, c in out.items() if c}


def _uv_assemble(coeffs: dict[int, Poly], v: int) -> Poly:
    out: Poly = {}
    for e, poly in coeffs.items():
        for m, c in poly.items():
            out[mono_set(m, v, e)] = c
    return out


# --- gcd core over integer coefficients ---
#
# The remainder sequence runs on dict[Monomial, int]: Fraction arithmetic
# renormalizes on every operation, which dominates runtime on the dense
# intermediate products, while plain ints are cheap.  p_add/p_sub/p_mul/p_pow,
# the division walk and the monomial helpers work on either coefficient ring
# (a product with the constant 1 copies the other operand, so ints stay ints).

ZPoly = Poly  # same shape, int coefficients


def _to_zz(a: Poly) -> ZPoly:
    out = p_clear(a)[0]
    g = _zcontent(out)
    if g > 1:
        out = {m: v // g for m, v in out.items()}
    return out


def _zcontent(a: ZPoly) -> int:
    g = 0
    for v in a.values():
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


def _zposlead(a: ZPoly) -> ZPoly:
    if a and p_lead(a)[1] < 0:
        return {m: -c for m, c in a.items()}
    return dict(a)


def _zdivide(c: int, lc: int) -> Optional[int]:
    q, r = divmod(c, lc)
    return None if r else q


def _zdiv_exact(a: ZPoly, b: ZPoly) -> Optional[ZPoly]:
    """Quotient a/b over the integers when exact, else None."""
    return _div_walk(a, b, _zdivide)


def _uv_zcontent(coeffs: dict[int, ZPoly]) -> ZPoly:
    g: ZPoly = {}
    for p in coeffs.values():
        g = _zgcd(g, p)
        if g == {0: 1}:
            return g
    return g


def _uv_zdivide(coeffs: dict[int, ZPoly], d: ZPoly) -> dict[int, ZPoly]:
    if d == {0: 1}:
        return coeffs
    out: dict[int, ZPoly] = {}
    for e, poly in coeffs.items():
        q = _zdiv_exact(poly, d)
        assert q is not None, "content division must be exact"
        out[e] = q
    return out


def _uv_prem(a: dict[int, ZPoly], b: dict[int, ZPoly]) -> dict[int, ZPoly]:
    """Standard pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    db = max(b)
    lb = b[db]
    steps = max(a) - db + 1
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        # r := lb*r - lr*b*v^(dr-db)
        new: dict[int, ZPoly] = {}
        for e, poly in r.items():
            new[e] = p_mul(lb, poly)
        for e, poly in b.items():
            shifted = e + dr - db
            new[shifted] = p_sub(new.get(shifted, {}), p_mul(lr, poly))
        r = {e: poly for e, poly in new.items() if poly}
        steps -= 1
    # pad skipped degree drops so the subresultant divisibility theory applies
    if steps > 0 and r:
        factor = p_pow(lb, steps)
        r = {e: p_mul(factor, poly) for e, poly in r.items()}
    return r


def _mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise minimum of two exponent vectors."""
    out = 0
    for i, e in mono_items(a):
        f = (b >> _SHIFT[i]) & _FIELD
        if f:
            out += min(e, f) * _VAR[i]
    return out


def _mono_content(a: Poly) -> Monomial:
    """Componentwise minimum exponent vector over the support of a."""
    it = iter(a)
    g = next(it)
    for m in it:
        if not g:
            break
        g = _mono_gcd(g, m)
    return g


def _mono_shift_down(a: Poly, m: Monomial) -> Poly:
    if not m:
        return a
    out: Poly = {}
    for mm, c in a.items():
        q = mm - m
        assert not q & _GUARDS
        out[q] = c
    return out


# --- heuristic gcd (GCDHEU) ---
#
# Char, Geddes & Gonnet, "GCDHEU: heuristic polynomial GCD algorithm based on
# integer GCD computation", JSC 1989.  Replacing generator v by an integer xi
# leaves a gcd with one generator fewer, computed the same way down to an
# integer gcd.  The symmetric xi-adic digits of its coefficients, read as the
# coefficients of v^0, v^1, ..., give a candidate.  For primitive a, b and
# xi >= 2*min(|a|, |b|) + 2 (|.| the largest absolute coefficient), a
# primitive candidate that divides both a and b is their gcd (CGG 1989,
# Thm. 1).  xi starts at 2*min(|a|, |b|) + 29 and only grows, so the two exact
# divisions make every accepted answer the gcd; a failed candidate costs only
# time.

_HEU_TRIES = 6
# The evaluated operands have coefficients of about xi.bit_length() * deg_v
# bits.  Past this cap the heuristic gives up and the PRS runs.  On random
# operands in 4 to 10 generators of degree up to 8 (Python 3.11, 2-vCPU x86
# VM), a give-up at this cap took at most 0.11 s, the PRS seconds.
_HEU_MAX_BITS = 100_000


def _zeval(a: ZPoly, v: int, xi: int) -> ZPoly:
    """a with generator v replaced by the integer xi."""
    s = _slot(v)
    out: ZPoly = {}
    for m, c in a.items():
        e = (m >> s) & _FIELD
        if e:
            m -= e * _VAR[v]
            c *= xi**e
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _zadic(g: ZPoly, v: int, xi: int, top: int) -> Optional[ZPoly]:
    """Symmetric xi-adic expansion: digit k of each coefficient goes to v^k.
    None when a digit lands above v^top: such a candidate has a larger
    degree in v than an operand of degree top, so it divides neither."""
    half = xi // 2
    out: ZPoly = {}
    for m, c in g.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                if e > top:
                    return None
                out[mono_set(m, v, e)] = d
            c = (c - d) // xi
            e += 1
    return out


def _zheu(a: ZPoly, b: ZPoly) -> Optional[ZPoly]:
    """Integer gcd of nonzero a, b (content included, positive lead) by
    GCDHEU, or None when some level gives up."""
    ia = _zcontent(a)
    ib = _zcontent(b)
    if p_is_const(a) or p_is_const(b):
        return {0: math.gcd(ia, ib)}
    a = {m: c // ia for m, c in a.items()}
    b = {m: c // ib for m, c in b.items()}
    v = max(p_vars(a) | p_vars(b))
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    da, db = p_degree_in(a, v), p_degree_in(b, v)
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * max(da, db) > _HEU_MAX_BITS:
            return None
        gamma = _zheu(_zeval(a, v, xi), _zeval(b, v, xi))
        if gamma is None:
            return None
        h = _zadic(gamma, v, xi, min(da, db))
        if h is not None:
            ih = _zcontent(h)
            h = _zposlead({m: c // ih for m, c in h.items()})
            if _zdiv_exact(a, h) is not None and _zdiv_exact(b, h) is not None:
                ig = math.gcd(ia, ib)
                return {m: c * ig for m, c in h.items()} if ig > 1 else h
        xi = xi * 73794 // 27011
    return None


def _zgcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Integer gcd (content included), positive leading coefficient."""
    if not a:
        return _zposlead(b)
    if not b:
        return _zposlead(a)
    if p_is_const(a):
        return {0: math.gcd(a[0], _zcontent(b))}
    if p_is_const(b):
        return {0: math.gcd(b[0], _zcontent(a))}
    if a == b:
        return _zposlead(a)
    ia = _zcontent(a)
    ib = _zcontent(b)
    ig = math.gcd(ia, ib)
    if ia > 1:
        a = {m: c // ia for m, c in a.items()}
    if ib > 1:
        b = {m: c // ib for m, c in b.items()}
    # the monomial content splits off cheaply and shrinks everything below
    ma = _mono_content(a)
    mb = _mono_content(b)
    mg = _mono_gcd(ma, mb)
    a = _mono_shift_down(a, ma)
    b = _mono_shift_down(b, mb)

    def lift(g: ZPoly) -> ZPoly:
        if mg:
            g = {m + mg: c for m, c in g.items()}
        if ig > 1:
            g = {m: c * ig for m, c in g.items()}
        return g

    if p_is_const(a) or p_is_const(b):
        return lift({0: 1})
    common = p_vars(a) & p_vars(b)
    if not common:
        return lift({0: 1})
    # trial divisions catch the frequent "one operand divides the other" case
    if len(b) <= len(a) and _zdiv_exact(a, b) is not None:
        return _zposlead(lift(b))
    if len(a) <= len(b) and _zdiv_exact(b, a) is not None:
        return _zposlead(lift(a))
    heu = _zheu(a, b)
    if heu is not None:
        return lift(heu)
    v = max(common)
    ua = _uv_coeffs(a, v)
    ub = _uv_coeffs(b, v)
    ca = _uv_zcontent(ua)
    cb = _uv_zcontent(ub)
    cont = _zgcd(ca, cb)
    ua = _uv_zdivide(ua, ca)
    ub = _uv_zdivide(ub, cb)
    if max(ua) < max(ub):
        ua, ub = ub, ua
    # subresultant sequence: divide each remainder by the known factor g*h^d
    # instead of recomputing multivariate contents at every step
    g: ZPoly = {0: 1}
    h: ZPoly = {0: 1}
    while max(ub) > 0:
        d = max(ua) - max(ub)
        r = _uv_prem(ua, ub)
        if not r:
            break
        divisor = p_mul(g, p_pow(h, d)) if d else g
        r = _uv_zdivide(r, divisor)
        ua, ub = ub, r
        g = ua[max(ua)]
        if d == 1:
            h = g
        elif d > 1:
            hn = _zdiv_exact(p_pow(g, d), p_pow(h, d - 1))
            assert hn is not None, "subresultant h-sequence division must be exact"
            h = hn
    if max(ub) == 0:
        return _zposlead(lift(cont))
    rc = _uv_zcontent(ub)
    ub = _uv_zdivide(ub, rc)
    return _zposlead(lift(p_mul(cont, _uv_assemble(ub, v))))


def p_gcd(a: Poly, b: Poly) -> Poly:
    """The unique gcd that is primitive with positive leading coefficient:
    the integer gcd of the operands' primitive integer forms.

    Cheap exits first, then GCDHEU, then the subresultant remainder sequence
    (see the module docstring); all three give the same answer, so the choice
    never shows in canonical forms.
    """
    return _zgcd(_to_zz(a), _to_zz(b))


def p_lcm(a: Poly, b: Poly) -> Poly:
    if p_is_zero(a) or p_is_zero(b):
        return {}
    q = p_div_exact(p_mul(a, b), p_gcd(a, b))
    assert q is not None
    return p_primitive(q)


def p_primitive(a: Poly) -> Poly:
    """The integer multiple of a that is primitive with a positive leading
    coefficient."""
    return _zposlead(_to_zz(a))


def _frac_sqrt(c: int | Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    ns = math.isqrt(c.numerator)
    ds = math.isqrt(c.denominator)
    if ns * ns != c.numerator or ds * ds != c.denominator:
        return None
    return Fraction(ns, ds)


def p_sqrt(a: Poly) -> Optional[Poly]:
    """Exact polynomial square root, or None when a is not a perfect square."""
    if not a:
        return {}
    if p_is_const(a):
        r = _frac_sqrt(p_const_value(a))
        return None if r is None else p_const(r)
    v = max(p_vars(a))
    cf = _uv_coeffs(a, v)
    n = max(cf)
    if n % 2:
        return None
    m = n // 2
    qm = p_sqrt(cf[n])
    if qm is None:
        return None
    q: dict[int, Poly] = {m: qm}
    two_qm = p_scale(qm, 2)
    for k in range(m - 1, -1, -1):
        s = cf.get(m + k, {})
        for i in range(k + 1, m):
            j = m + k - i
            if k + 1 <= j <= m - 1:
                s = p_sub(s, p_mul(q[i], q[j]))
        qk = p_div_exact(s, two_qm)
        if qk is None:
            return None
        q[k] = qk
    root = _uv_assemble({e: poly for e, poly in q.items() if poly}, v)
    if p_sub(p_mul(root, root), a):
        return None
    return root
