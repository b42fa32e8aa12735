"""Charts, extension generators, and canonical rational expressions.

An Expr is always stored in canonical form: a quotient of two trig-reduced
multivariate polynomials over the rationals with the common polynomial factor
cancelled and a monic denominator.  Generators are the chart's base symbols
(coordinates and parameters) plus the sin/cos pair of each angle, a base
symbol registered on demand.  The pair obeys the circle relation
sin^2 + cos^2 = 1, reduced so every sine exponent is at most one.  Each
generator records its base symbol, the symbol itself or the angle; free
symbols, coordinate dependence and the antiderivative's domain check all
read it.

sin and cos of an integer combination k_1*s_1 + ... + k_m*s_m of base
symbols expand onto the pairs of s_1, ..., s_m by the addition formula, so
sin(-x), sin(2*x) and cos(theta - x) are polynomials in the generators.
Every other application is refused with UnsupportedFunctionError, because
no generator could carry its algebraic relations and `is_zero` could not
decide expressions built on it: sin/cos of a non-integer multiple, a
product or a constant offset, exp except exp(0), ln except ln(1), and sqrt
except of a constant with a rational root.

`at_zero` sets base symbols to 0 in numerator and denominator: sin 0 = 0
and cos 0 = 1 satisfy the circle relation, so this is a ring map on the
generators.  `transfer` only re-indexes the generators: a renaming of
variables keeps numerator and denominator coprime and trig-reduced, so the
result is canonical once its denominator is made monic under the target's
order.

Only this module builds a canonical expression.  Other modules read the
chart through its public doors, never through its private fields, and
never construct an Expr with `_raw=True`:

* `Chart.reduce(p)` circle-reduces a polynomial with the chart's own pairs
  and mask;
* `Chart.poly(p)` is the expression of a trig-reduced polynomial, whose
  denominator is 1;
* `Chart.index(name)` is the generator index of a symbol;
* `chain(chart, {s: (slot, m)})` is the chain rule of a derivation;
* `exact_sqrt(e)` is a square root in the expression field;
* `clear_sines(chart, num, den)` scales a polynomial quotient by the sine
  conjugates of its denominator, which leaves a sine-free denominator.

These results are canonical as built and skip `_canonicalize`:

* `Chart.poly` of a trig-reduced polynomial: a polynomial sum or product
  reduced by `Chart.reduce`, an exact or gcd quotient of a trig-reduced
  polynomial, and any sine-free polynomial, such as a canonical
  denominator or an lcm of them;
* a transfer that keeps the index of every generator of e, as extending a
  chart with no parameters does: numerator and denominator are e's own,
  with no renaming and no `_monic`, since neither the packed monomials nor
  their order change;
* the sum of two polynomials (denominators 1);
* the product of two polynomials, circle-reduced once;
* the exact quotient of two polynomials: a sine's degree in a product is
  the sum of its degrees in the factors, so a trig-reduced dividend has a
  trig-reduced quotient;
* a canonical expression times a nonzero constant (same monic
  denominator, no new common factor);
* a derivation of a polynomial (`derive` with no `scale`): the kernel's
  output, circle-reduced once.

A polynomial here has the constant denominator 1; a one-term denominator
such as cos(theta) or x is not one.  `_canonicalize` returns on a constant
denominator before the sine clearing, and a denominator of 1 costs no
scaling pass.

Numerator and denominator are `sympoly` polynomials, whose monomials are
packed ints (graded lex is int order).  This module reads a monomial only
through sympoly's helpers: `mono_items` for rendering, evaluation and the
generator map, `p_rename` for `transfer`, `p_circle_reduce` and
`p_reflect` for the circle relation.  The chart keeps the sin -> cos map
of its pairs and, beside it, the mask `p_circle_reduce` tests monomials
with.  A chart holds at most `sympoly.SLOTS` generators; registering one
more raises MonomialLimitError.

Derivatives are derivations (see `fields`): `derive` applies a chain,
one multiplier per generator, through the kernel `sympoly.p_derive`, which
walks the numerator (and the denominator of a quotient) once.  The chart
keeps its chain rule beside its generators: each base symbol s maps to
(s, 1) and, once the pair of s is registered, (sin s, cos s) and
(cos s, -sin s).  `chain` scales the rule of each symbol by its
multiplier and passes the rule through for the multiplier 1;
`differentiate(e, s)` is `derive` on the chain of s with multiplier 1.
Nothing is stored, so every call walks e.  Each Expr keeps its base
symbols; the derivative by any other symbol is zero without a walk.
Another slot keeps the expression's residue at each shared sample point
(`sample.residues_at`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from .errors import (
    ChartMismatchError,
    MonomialLimitError,
    PoleError,
    UnknownSymbolError,
    UnsupportedFunctionError,
    ZeroDenominatorError,
)
from .sympoly import (
    SLOTS,
    Chain,
    Poly,
    _circle_high,
    _frac_sqrt,
    mono_degree,
    mono_get,
    mono_items,
    mono_set,
    p_add,
    p_circle_reduce,
    p_const,
    p_const_value,
    p_degree_in,
    p_derive,
    p_div_exact,
    p_gcd,
    p_is_const,
    p_is_zero,
    p_lead,
    p_mul,
    p_neg,
    p_pow,
    p_reflect,
    p_rename,
    p_scale,
    p_sqrt,
    p_sub,
    p_total_degree,
    p_var,
    p_vars,
    p_vars_in_order,
)

if TYPE_CHECKING:
    from .fields import VectorField

Scalar = Union["Expr", Fraction, int]

_UNIT = p_const(1)

_IDENT_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


class GenInfo(NamedTuple):
    """One generator of the polynomial ring underlying a chart."""

    name: str
    kind: str  # "base" | "sin" | "cos"
    base: str  # the base symbol itself, or the angle of sin/cos


def check_symbol_name(name: str, role: str = "symbol") -> None:
    """Raise ValueError unless `name` is an identifier that shadows no
    function of the expression grammar; `role` says what the name is for."""
    if not (
        name
        and (name[0].isalpha() or name[0] == "_")
        and all(ch in _IDENT_OK for ch in name)
    ):
        raise ValueError(f"invalid {role} name '{name}'")
    if name in FUNCTION_TABLE:
        raise ValueError(f"{role} name '{name}' shadows a function")


class Chart:
    """An ordered coordinate chart with named parameters.

    Coordinates come first in the generator numbering, then parameters, then
    dynamically registered extension generators.  Charts compare by identity;
    expressions from different charts never mix.
    """

    def __init__(self, coordinates: Iterable[str], parameters: Iterable[str] = ()):
        coords = tuple(coordinates)
        params = tuple(parameters)
        seen: set[str] = set()
        for name in coords + params:
            check_symbol_name(name)
            if name in seen:
                raise ValueError(f"duplicate symbol name '{name}'")
            seen.add(name)
        _check_slots(len(seen))
        self.coordinates = coords
        self.parameters = params
        self._gens: list[GenInfo] = [GenInfo(n, "base", n) for n in coords + params]
        self._index: dict[str, int] = {g.name: i for i, g in enumerate(self._gens)}
        self._sin_to_cos: dict[int, int] = {}
        self._circle_high = 0  # sympoly._circle_high of _sin_to_cos
        # base symbol index -> (g, dg/d symbol) for each generator g on it
        one = p_const(1)
        self._chain_rule: dict[int, list[tuple[int, Poly]]] = {
            i: [(i, one)] for i in range(len(self._gens))
        }
        self._zero = Expr(self, p_const(0), p_const(1), _raw=True)
        self._one = Expr(self, p_const(1), p_const(1), _raw=True)

    # -- symbol access ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def has_symbol(self, name: str) -> bool:
        idx = self._index.get(name)
        return idx is not None and self._gens[idx].kind == "base"

    def sym(self, name: str) -> "Expr":
        if not self.has_symbol(name):
            raise UnknownSymbolError(name)
        return Expr(self, p_var(self._index[name]), p_const(1), _raw=True)

    def const(self, value: Fraction | int) -> "Expr":
        return Expr(self, p_const(value), p_const(1), _raw=True)

    @property
    def zero(self) -> "Expr":
        return self._zero

    @property
    def one(self) -> "Expr":
        return self._one

    def index(self, name: str) -> int:
        """The generator index of a symbol of the chart."""
        return self._index[name]

    def reduce(self, p: Poly) -> Poly:
        """p in normal form modulo the circle relation of each trig pair of
        the chart; a trig-reduced p comes back as it is."""
        return p_circle_reduce(p, self._sin_to_cos, self._circle_high)

    def poly(self, p: Poly) -> "Expr":
        """The expression of a trig-reduced polynomial p, canonical as built:
        its denominator is 1."""
        return Expr(self, p, p_const(1), _raw=True)

    @cached_property
    def zero_field(self) -> VectorField:
        """The chart's zero vector field, built once (`fields.zero_field`)."""
        from .fields import VectorField

        return VectorField(self, (self._zero,) * self.dim)

    def parse(self, text: str) -> "Expr":
        from .parser import parse as _parse

        return _parse(self, text)

    # -- generator registry ------------------------------------------------

    def gens(self) -> tuple[GenInfo, ...]:
        return tuple(self._gens)

    def gen_info(self, index: int) -> GenInfo:
        return self._gens[index]

    def sin_to_cos(self) -> dict[int, int]:
        return self._sin_to_cos

    def trig_pair(self, angle: str) -> tuple[int, int]:
        """Generator indices of sin(angle), cos(angle) for a base symbol."""
        if not self.has_symbol(angle):
            raise UnknownSymbolError(angle)
        skey = f"sin({angle})"
        ckey = f"cos({angle})"
        if skey not in self._index:
            _check_slots(len(self._gens) + 2)
            self._gens.append(GenInfo(skey, "sin", angle))
            self._index[skey] = len(self._gens) - 1
            self._gens.append(GenInfo(ckey, "cos", angle))
            self._index[ckey] = len(self._gens) - 1
            self._sin_to_cos = dict(self._sin_to_cos)
            self._sin_to_cos[self._index[skey]] = self._index[ckey]
            self._circle_high = _circle_high(self._sin_to_cos)
            si, ci = self._index[skey], self._index[ckey]
            self._chain_rule[self._index[angle]] += [(si, p_var(ci)), (ci, p_neg(p_var(si)))]
        return self._index[skey], self._index[ckey]

    def gen_depends_on_coordinates(self, index: int) -> bool:
        return self._gens[index].base in self.coordinates

    def extend(self, extra_coordinates: Iterable[str]) -> "Chart":
        """A fresh chart with coordinates appended after the existing ones."""
        return Chart(tuple(self.coordinates) + tuple(extra_coordinates), self.parameters)


def _check_slots(count: int) -> None:
    if count > SLOTS:
        raise MonomialLimitError(
            f"a chart of {count} generators passes the limit of {SLOTS}"
        )


class Expr:
    """A canonical rational expression over a chart."""

    __slots__ = ("chart", "num", "den", "_hash", "_symbols", "_residues")

    def __init__(self, chart: Chart, num: Poly, den: Poly, _raw: bool = False):
        if not _raw:
            num, den = _canonicalize(chart, num, den)
        self.chart = chart
        self.num = num
        self.den = den
        self._hash: Optional[int] = None
        self._symbols: Optional[frozenset[str]] = None  # see _symbol_set
        self._residues: Optional[dict] = None  # see sample.residues_at

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return p_is_const(self.num) and p_is_const(self.den)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self.render()}")
        return Fraction(p_const_value(self.num), p_const_value(self.den))

    def total_degree(self) -> int:
        return max(p_total_degree(self.num), p_total_degree(self.den))

    def _symbol_set(self) -> frozenset[str]:
        if self._symbols is None:
            gens = p_vars(self.num) | p_vars(self.den)
            self._symbols = frozenset(self.chart.gen_info(idx).base for idx in gens)
        return self._symbols

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: Scalar) -> "Expr":
        if isinstance(other, Expr):
            if other.chart is not self.chart:
                raise ChartMismatchError("operands on different charts")
            return other
        return self.chart.const(other)

    def __add__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            if p_is_const(self.den):
                # a sum of trig-reduced polynomials is trig-reduced
                return Expr(self.chart, p_add(self.num, o.num), self.den, _raw=True)
            return Expr(self.chart, p_add(self.num, o.num), self.den)
        num = p_add(p_mul(self.num, o.den), p_mul(o.num, self.den))
        return Expr(self.chart, num, p_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(self.chart, p_neg(self.num), self.den, _raw=True)

    def __sub__(self, other: Scalar) -> "Expr":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "Expr":
        return self._coerce(other) - self

    def __mul__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return self.chart.zero
        if o.is_constant():
            return self._scaled(p_const_value(o.num))
        if self.is_constant():
            return o._scaled(p_const_value(self.num))
        if p_is_const(self.den) and p_is_const(o.den):
            # the reduced product of two polynomials is canonical over 1
            chart = self.chart
            num = p_circle_reduce(p_mul(self.num, o.num), chart._sin_to_cos, chart._circle_high)
            return Expr(chart, num, self.den, _raw=True)
        return Expr(self.chart, p_mul(self.num, o.num), p_mul(self.den, o.den))

    __rmul__ = __mul__

    def _scaled(self, c: int | Fraction) -> "Expr":
        # c * num over the same monic den is still in lowest terms
        if c == 1:
            return self
        return Expr(self.chart, p_scale(self.num, c), self.den, _raw=True)

    def __truediv__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o.num and p_is_const(self.den) and p_is_const(o.den):
            q = p_div_exact(self.num, o.num)
            if q is not None:
                # degrees in a sine add under a product, so the exact
                # quotient of a trig-reduced polynomial is trig-reduced
                return Expr(self.chart, q, self.den, _raw=True)
        return Expr(self.chart, p_mul(self.num, o.den), p_mul(self.den, o.num))

    def __rtruediv__(self, other: Scalar) -> "Expr":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n == 0:
            return self.chart.one
        if n < 0:
            return Expr(self.chart, p_pow(self.den, -n), p_pow(self.num, -n))
        return Expr(self.chart, p_pow(self.num, n), p_pow(self.den, n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.as_fraction() == Fraction(other)
            return NotImplemented
        return (
            self.chart is other.chart
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (id(self.chart), frozenset(self.num.items()), frozenset(self.den.items()))
            )
        return self._hash

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        ns = _render_poly(self.chart, self.num)
        if p_is_const(self.den) and p_const_value(self.den) == 1:
            return ns
        ds = _render_poly(self.chart, self.den)
        return f"({ns})/({ds})"

    def __repr__(self) -> str:
        return f"Expr({self.render()})"

    __str__ = render


def _clear_sin_denominator(
    s2c: dict[int, int], high: int, num: Poly, den: Poly
) -> tuple[Poly, Poly]:
    """Multiply through by conjugates until the denominator is sine-free.

    With sine-free denominators, cross-multiplied identities hold in the
    plain polynomial ring, which makes the canonical representative unique
    even though the circle ring is not a UFD.
    """
    for si in s2c:
        if p_degree_in(den, si):
            # sin -> -sin for one angle is an automorphism of the ring
            conj = p_reflect(den, si)
            num = p_circle_reduce(p_mul(num, conj), s2c, high)
            den = p_circle_reduce(p_mul(den, conj), s2c, high)
    return num, den


def clear_sines(chart: Chart, num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """(num * c, den * c), circle-reduced, for trig-reduced polynomials num
    and den != 0, where c is the product of den's sine conjugates (see
    `_clear_sin_denominator`): den * c is sine-free and num/den unchanged,
    and a sine-free den comes back with c = 1."""
    return _clear_sin_denominator(chart._sin_to_cos, chart._circle_high, num, den)


def _monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den divided by den's leading coefficient, with no pass over
    them when it is 1."""
    lc = p_lead(den)[1]
    if lc == 1:
        return num, den
    inv = Fraction(1) / lc
    return p_scale(num, inv), p_scale(den, inv)


def _canonicalize(chart: Chart, num: Poly, den: Poly) -> tuple[Poly, Poly]:
    s2c, high = chart._sin_to_cos, chart._circle_high
    num = p_circle_reduce(num, s2c, high)
    den = p_circle_reduce(den, s2c, high)
    if p_is_zero(den):
        raise ZeroDenominatorError("denominator is identically zero")
    if p_is_zero(num):
        return {}, p_const(1)
    if p_is_const(den):
        return _monic(num, den)
    if s2c:
        num, den = _clear_sin_denominator(s2c, high, num, den)
    if not p_is_const(num):
        q = p_div_exact(num, den)
        if q is not None:
            num, den = q, p_const(1)
        else:
            g = p_gcd(num, den)
            if not p_is_const(g):
                qn = p_div_exact(num, g)
                qd = p_div_exact(den, g)
                assert qn is not None and qd is not None
                num, den = qn, qd
    return _monic(num, den)


def _render_coeff(c: int | Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _render_poly(chart: Chart, poly: Poly) -> str:
    if p_is_zero(poly):
        return "0"
    pieces: list[str] = []
    for m in sorted(poly, reverse=True):  # graded lex, the largest first
        c = poly[m]
        factors = []
        for i, e in mono_items(m):
            name = chart.gen_info(i).name
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            body = _render_coeff(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = _render_coeff(abs(c)) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


# -- elementary functions ----------------------------------------------------


def _angle_terms(func: str, arg: Expr) -> list[tuple[str, int]]:
    """(s_i, k_i) with arg = sum of k_i*s_i over base symbols and integer k_i."""
    terms = []
    if p_is_const(arg.den):  # canonical: a constant denominator is 1
        for m, c in arg.num.items():
            if mono_degree(m) != 1 or c.denominator != 1:
                break
            [(i, _)] = mono_items(m)
            info = arg.chart.gen_info(i)
            if info.kind != "base":
                break
            terms.append((info.name, c.numerator))
        else:
            return terms
    raise UnsupportedFunctionError(
        f"{func}({arg.render()})",
        "sin and cos take only integer combinations of symbols",
    )


def _sin_or_cos(func: str, arg: Expr) -> Expr:
    """sin or cos of an integer combination of base symbols, expanded by the
    addition formula onto the sin/cos pair of each symbol."""
    chart = arg.chart
    terms = _angle_terms(func, arg)
    if len(terms) == 1 and terms[0][1] == 1:  # a bare angle is a generator
        si, ci = chart.trig_pair(terms[0][0])
        return chart.poly(p_var(si if func == "sin" else ci))
    s, c = chart.zero, chart.one
    for name, k in terms:
        si, ci = chart.trig_pair(name)
        s1, c1 = chart.poly(p_var(si)), chart.poly(p_var(ci))
        sk, ck = s1, c1
        for _ in range(abs(k) - 1):
            sk, ck = sk * c1 + ck * s1, ck * c1 - sk * s1
        if k < 0:
            sk = -sk
        s, c = s * ck + c * sk, c * ck - s * sk
    return s if func == "sin" else c


def fn_sin(arg: Expr) -> Expr:
    return _sin_or_cos("sin", arg)


def fn_cos(arg: Expr) -> Expr:
    return _sin_or_cos("cos", arg)


def fn_tan(arg: Expr) -> Expr:
    return fn_sin(arg) / fn_cos(arg)


def fn_cot(arg: Expr) -> Expr:
    return fn_cos(arg) / fn_sin(arg)


def fn_exp(arg: Expr) -> Expr:
    if arg.is_zero():
        return arg.chart.one
    raise UnsupportedFunctionError(f"exp({arg.render()})", "exp is rational only at 0")


def fn_ln(arg: Expr) -> Expr:
    if arg == 1:
        return arg.chart.zero
    raise UnsupportedFunctionError(f"ln({arg.render()})", "ln is rational only at 1")


def fn_sqrt(arg: Expr) -> Expr:
    if arg.is_constant():
        r = _frac_sqrt(arg.as_fraction())
        if r is not None:
            return arg.chart.const(r)
    raise UnsupportedFunctionError(
        f"sqrt({arg.render()})", "sqrt is taken only of constants with a rational root"
    )


FUNCTION_TABLE: dict[str, Callable[[Expr], Expr]] = {
    "sin": fn_sin,
    "cos": fn_cos,
    "tan": fn_tan,
    "cot": fn_cot,
    "exp": fn_exp,
    "ln": fn_ln,
    "sqrt": fn_sqrt,
}


# -- exact square roots ---------------------------------------------------------


def _trig_sqrt(p: Poly, sin_to_cos: dict[int, int]) -> Optional[Poly]:
    """Exact square root of a canonical polynomial, None if none is found.

    Canonical forms rewrite sin^2 as 1 - cos^2, so (q*sin)^2 arrives as
    (1 - cos^2)*q^2; that shape is tried for one sine factor.  Roots mixing
    sine and sine-free terms, such as (a + b*sin)^2, are not found.
    """
    root = p_sqrt(p)
    if root is not None:
        return root
    for si, ci in sin_to_cos.items():
        q = p_div_exact(p, p_sub(p_const(1), p_mul(p_var(ci), p_var(ci))))
        root = None if q is None else p_sqrt(q)
        if root is not None:
            return p_mul(root, p_var(si))
    return None


def exact_sqrt(e: Expr) -> Optional[Expr]:
    """Exact square root in the expression field, None if not a square."""
    # sqrt(num/den) = sqrt(num*den)/den.  One root of the product also covers
    # a sine factor of den: den keeps a positive lead, so its factor 1 - cos^2
    # arrives as cos^2 - 1 with the sign moved onto num
    num = _trig_sqrt(p_mul(e.num, e.den), e.chart._sin_to_cos)
    if num is None:
        return None
    root = Expr(e.chart, num, e.den)
    # trig reduction may have rewritten the radicand; trust only a re-check
    if not (root * root - e).is_zero():
        return None
    return root


# -- differentiation ----------------------------------------------------------


def derive(e: Expr, chain: Chain, den: int = 1, scale: Optional[Poly] = None) -> dict[int, Expr]:
    """The derivation of `chain` applied to e, divided by den * scale: for
    chain[g] = (k, m_g), entry k of the result is the sum of
    (de/dg) * m_g / (den * scale) over the generators g routed to k.

    A polynomial e with no `scale` takes one `p_derive` walk, and each
    output gets one circle reduction and a raw Expr.  Otherwise each output
    is canonicalized once: n/d goes by the quotient rule
    (d * D(n) - n * D(d)) / (d^2 * scale), with D(n) and D(d) two walks.
    Slots whose output is zero are absent.
    """
    chart = e.chart
    s2c, high = chart._sin_to_cos, chart._circle_high
    out = {}
    if p_is_const(e.den):
        for k, p in p_derive([(0, e.num, chain, den)]).items():
            p = p_circle_reduce(p, s2c, high)
            if p:
                out[k] = Expr(chart, p, scale) if scale else Expr(chart, p, e.den, _raw=True)
        return out
    parts = p_derive([(0, e.num, chain, den)])
    dparts = p_derive([(0, e.den, chain, den)])
    square = p_mul(e.den, e.den)
    if scale:
        square = p_mul(square, scale)
    for k in sorted(parts.keys() | dparts.keys()):
        dn = p_circle_reduce(parts.get(k, {}), s2c, high)
        dd = p_circle_reduce(dparts.get(k, {}), s2c, high)
        d = Expr(chart, p_sub(p_mul(e.den, dn), p_mul(e.num, dd)), square)
        if not d.is_zero():
            out[k] = d
    return out


def chain(chart: Chart, slots: dict[int, tuple[int, Poly]]) -> Chain:
    """The chain rule of a derivation that sends each base symbol s of
    `slots` (generator index to (output slot, multiplier m)) to m: s gives
    m and, for each trig pair the chart already has on s, sin s gives
    cos s * m and cos s gives -sin s * m, all at s's slot; a multiplier 1
    passes the rule's own polynomials through.  Registers nothing."""
    rule = chart._chain_rule
    return {
        g: (k, m if g == s else u if m == _UNIT else p_mul(u, m))
        for s, (k, m) in slots.items()
        for g, u in rule[s]
    }


def differentiate(e: Expr, sym: str) -> Expr:
    """Partial derivative with respect to a base symbol of the chart: the
    derivation kernel applied to the chain of `sym` with multiplier 1."""
    chart = e.chart
    if not chart.has_symbol(sym):
        raise UnknownSymbolError(sym)
    if sym not in e._symbol_set():
        return chart.zero
    return derive(e, chain(chart, {chart._index[sym]: (0, p_const(1))})).get(0, chart.zero)


# -- evaluation ----------------------------------------------------------------


def eval_at(e: Expr, point) -> Fraction:
    """Exact evaluation at a sample point; raises PoleError on a zero denominator."""
    if point.chart is not e.chart:
        raise ChartMismatchError("sample point from another chart")
    den = _eval_poly(e.den, point)
    if den == 0:
        raise PoleError(_render_poly(e.chart, e.den))
    return _eval_poly(e.num, point) / den


def _eval_poly(poly: Poly, point) -> Fraction:
    total = Fraction(0)
    for m, c in poly.items():
        term = c
        for i, ee in mono_items(m):
            term *= point.value(i) ** ee
        total += term
    return total


# -- restriction and transfer ----------------------------------------------------


def at_zero(e: Expr, names: Collection[str]) -> Expr:
    """e with the named base symbols set to 0.  A term that holds one of
    them or its sine vanishes, and its cosine becomes 1; a denominator that
    vanishes raises ZeroDenominatorError."""
    if e._symbol_set().isdisjoint(names):
        return e
    chart = e.chart

    def restrict(poly: Poly) -> Poly:
        out: Poly = {}
        for m, c in poly.items():
            for i, _ in mono_items(m):
                info = chart.gen_info(i)
                if info.base in names:
                    if info.kind != "cos":
                        break
                    m = mono_set(m, i, 0)
            else:
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return out

    return Expr(chart, restrict(e.num), restrict(e.den))


def transfer(e: Expr, target: Chart) -> Expr:
    """Re-index onto a chart holding e's base symbols; sin/cos pairs are
    registered on it in the order the monomials meet them.  A constant,
    whose canonical denominator is 1, is `target.zero` or `target.const`;
    when no generator of e changes its index, the result shares e's
    numerator and denominator."""
    return transfer_all((e,), target)[0]


def transfer_all(exprs: Sequence[Expr], target: Chart) -> list[Expr]:
    """`transfer` of each expression of one chart, through one generator
    map: its pairs are registered in the order the monomials of e_0.num,
    e_0.den, e_1.num, ... meet them, as one `transfer` after another would
    register them, and when no generator changes its index every result
    shares its numerator and denominator."""
    source = exprs[0].chart if exprs else target
    if any(e.chart is not source for e in exprs):
        raise ChartMismatchError("expressions on different charts")
    if source is target:
        return list(exprs)
    index: dict[int, int] = {}
    moved = False
    for i in p_vars_in_order(*(p for e in exprs for p in (e.num, e.den))):
        info = source.gen_info(i)
        if not target.has_symbol(info.base):
            raise UnknownSymbolError(info.base)
        if info.kind == "base":
            j = target._index[info.base]
        else:
            j = target.trig_pair(info.base)[info.kind == "cos"]
        index[i] = j
        moved = moved or i != j
    out = []
    for e in exprs:
        if e.is_constant():
            out.append(target.zero if e.is_zero() else target.const(p_const_value(e.num)))
            continue
        num, den = e.num, e.den  # kept: the same packed monomials, in the same order
        if moved:
            num, den = _monic(p_rename(num, index), p_rename(den, index))
        result = Expr(target, num, den, _raw=True)
        result._symbols = e._symbols
        out.append(result)
    return out


# -- exact antiderivatives -------------------------------------------------------


def antiderivative(e: Expr, sym: str) -> Optional[Expr]:
    """An expression F with dF/d(sym) = e, or None when outside the exact class.

    Supported integrands are polynomial in sym, sin(sym) and cos(sym) (with
    coefficients free of sym); denominators must not involve sym.  This is the
    class closed under the classic power-reduction formulas, which suffices
    for path integration of exact covector components.
    """
    chart = e.chart
    if not chart.has_symbol(sym):
        raise UnknownSymbolError(sym)

    def involves_sym(idx: int) -> bool:
        return chart.gen_info(idx).base == sym

    for idx in p_vars(e.den):
        if involves_sym(idx):
            return None

    sym_idx = chart._index[sym]
    skey = f"sin({sym})"
    si = chart._index.get(skey)
    ci = chart._sin_to_cos.get(si) if si is not None else None

    total = chart.zero
    den_expr = chart.poly(e.den)
    for m, c in e.num.items():
        p = mono_get(m, sym_idx)
        a = mono_get(m, si) if si is not None else 0
        b = mono_get(m, ci) if ci is not None else 0
        rest = mono_set(m, sym_idx, 0)
        if si is not None:
            rest = mono_set(rest, si, 0)
        if ci is not None:
            rest = mono_set(rest, ci, 0)
        for idx, _ in mono_items(rest):
            if involves_sym(idx):
                return None
        piece = _integrate_monomial(chart, sym, p, a, b)
        if piece is None:
            return None
        total = total + chart.poly({rest: c}) * piece
    return total / den_expr


def _integrate_monomial(chart: Chart, sym: str, p: int, a: int, b: int) -> Optional[Expr]:
    """Integral of sym^p * sin(sym)^a * cos(sym)^b with respect to sym."""
    x = chart.sym(sym)
    if a == 0 and b == 0:
        return x ** (p + 1) / (p + 1)
    s = fn_sin(x)
    c = fn_cos(x)
    if p == 0:
        if a == 0:
            inner = _integrate_monomial(chart, sym, 0, 0, b - 2) if b >= 2 else chart.zero
            if b == 1:
                return s
            if inner is None:
                return None
            return c ** (b - 1) * s / b + inner * Fraction(b - 1, b)
        if a == 1:
            return -(c ** (b + 1)) / (b + 1)
        return None  # canonical forms keep sine exponents below two
    # integration by parts lowers the power of sym
    inner = _integrate_monomial(chart, sym, 0, a, b)
    if inner is None:
        return None
    tail = antiderivative(x ** (p - 1) * inner, sym)
    if tail is None:
        return None
    return x**p * inner - chart.const(p) * tail


def strip_coordinate_constant(e: Expr) -> Expr:
    """Drop monomials free of all coordinates when the denominator is too.

    Used to present first integrals without additive constants (which may be
    parameter expressions, e.g. the -eps left by path integration).
    """
    chart = e.chart
    for idx in p_vars(e.den):
        if chart.gen_depends_on_coordinates(idx):
            return e
    const_part: Poly = {}
    for m, c in e.num.items():
        if not any(chart.gen_depends_on_coordinates(i) for i, _ in mono_items(m)):
            const_part[m] = c
    if not const_part:
        return e
    return Expr(chart, p_sub(e.num, const_part), e.den)
