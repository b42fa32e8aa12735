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

`substitute` maps each base symbol to a value and re-applies sin/cos to the
mapped angle.  `transfer` only re-indexes the generators: a renaming of
variables keeps numerator and denominator coprime and trig-reduced, so the
result is canonical once its denominator is made monic under the target's
order.

These results are canonical as built and skip `_canonicalize`: the sum of
two polynomials (denominators 1), a canonical expression times a nonzero
constant (same monic denominator, no new common factor), and the partial
derivative of a trig-reduced polynomial by one generator.  A constant
denominator of 1 costs no scaling pass.

Numerator and denominator are `sympoly` polynomials, whose monomials are
packed ints (graded lex is int order).  This module reads a monomial only
through sympoly's helpers: `mono_items` for rendering, evaluation and the
generator map, `p_rename` for `transfer`, `p_circle_reduce` and
`p_reflect` for the circle relation.  A chart holds at most
`sympoly.SLOTS` generators; registering one more raises MonomialLimitError.

`differentiate` is memoized per expression, in a slot of the Expr, so each
(expression, symbol) pair is differentiated at most once.  Charts only add
generators, so a stored derivative stays canonical.  Each Expr also keeps
its base symbols; the derivative by any other symbol is zero without a walk.
A third slot keeps the F_p evaluation program that `sample` decodes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

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
    Poly,
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
    p_diff,
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
    p_sub,
    p_total_degree,
    p_var,
    p_vars,
    p_vars_in_order,
)

Scalar = Union["Expr", Fraction, int]

_IDENT_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


@dataclass(frozen=True)
class GenInfo:
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
        self._deriv_cache: dict[tuple[int, str], "Expr"] = {}
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
        return self._index[skey], self._index[ckey]

    def _gen_expr(self, index: int) -> "Expr":
        return Expr(self, p_var(index), p_const(1), _raw=True)

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

    __slots__ = ("chart", "num", "den", "_hash", "_derivs", "_symbols", "_program")

    def __init__(self, chart: Chart, num: Poly, den: Poly, _raw: bool = False):
        if not _raw:
            num, den = _canonicalize(chart, num, den)
        self.chart = chart
        self.num = num
        self.den = den
        self._hash: Optional[int] = None
        self._derivs: Optional[dict[str, Expr]] = None  # see differentiate
        self._symbols: Optional[frozenset[str]] = None  # see _symbol_set
        self._program: Optional[tuple] = None  # see sample._residue_program

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return p_is_zero(self.num)

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

    def free_symbols(self) -> set[str]:
        return set(self._symbol_set())

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
        return Expr(self.chart, p_mul(self.num, o.num), p_mul(self.den, o.den))

    __rmul__ = __mul__

    def _scaled(self, c: int | Fraction) -> "Expr":
        # c * num over the same monic den is still in lowest terms
        if c == 1:
            return self
        return Expr(self.chart, p_scale(self.num, c), self.den, _raw=True)

    def __truediv__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
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


def _clear_sin_denominator(s2c: dict[int, int], num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Multiply through by conjugates until the denominator is sine-free.

    With sine-free denominators, cross-multiplied identities hold in the
    plain polynomial ring, which makes the canonical representative unique
    even though the circle ring is not a UFD.
    """
    for si in s2c:
        if p_degree_in(den, si):
            # sin -> -sin for one angle is an automorphism of the ring
            conj = p_reflect(den, si)
            num = p_circle_reduce(p_mul(num, conj), s2c)
            den = p_circle_reduce(p_mul(den, conj), s2c)
    return num, den


def _over_constant(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num / c for a constant denominator c, with no pass over num when c is 1."""
    c = p_const_value(den)
    if c == 1:
        return num, den
    return p_scale(num, Fraction(1) / c), p_const(1)


def _canonicalize(chart: Chart, num: Poly, den: Poly) -> tuple[Poly, Poly]:
    s2c = chart.sin_to_cos()
    num = p_circle_reduce(num, s2c)
    den = p_circle_reduce(den, s2c)
    if p_is_zero(den):
        raise ZeroDenominatorError("denominator is identically zero")
    if p_is_zero(num):
        return {}, p_const(1)
    if s2c:
        num, den = _clear_sin_denominator(s2c, num, den)
    if p_is_const(den):
        return _over_constant(num, den)
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
    if p_is_const(den):
        return _over_constant(num, den)
    lc = p_lead(den)[1]
    if lc != 1:
        inv = Fraction(1) / lc
        num = p_scale(num, inv)
        den = p_scale(den, inv)
    return num, den


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
        return chart._gen_expr(si if func == "sin" else ci)
    s, c = chart.zero, chart.one
    for name, k in terms:
        si, ci = chart.trig_pair(name)
        s1, c1 = chart._gen_expr(si), chart._gen_expr(ci)
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


# -- differentiation ----------------------------------------------------------


def _gen_derivative(chart: Chart, index: int, sym: str) -> Expr:
    cached = chart._deriv_cache.get((index, sym))
    if cached is not None:
        return cached
    info = chart.gen_info(index)
    if info.base != sym:
        out = chart.zero
    elif info.kind == "base":
        out = chart.one
    else:
        si, ci = chart.trig_pair(sym)
        out = chart._gen_expr(ci) if info.kind == "sin" else -chart._gen_expr(si)
    chart._deriv_cache[(index, sym)] = out
    return out


def _poly_derivative(chart: Chart, poly: Poly, sym: str) -> Expr:
    total = chart.zero
    for idx in p_vars(poly):
        dgen = _gen_derivative(chart, idx, sym)
        if dgen.is_zero():
            continue
        dp = p_diff(poly, idx)
        if dp:
            # d/dg of a trig-reduced polynomial is trig-reduced
            term = Expr(chart, dp, p_const(1), _raw=True)
            total = total + (term if chart.gen_info(idx).kind == "base" else term * dgen)
    return total


def differentiate(e: Expr, sym: str) -> Expr:
    """Partial derivative with respect to a base symbol of the chart.

    Memoized per expression: repeated calls return the same object.
    """
    chart = e.chart
    if not chart.has_symbol(sym):
        raise UnknownSymbolError(sym)
    if sym not in e._symbol_set():
        return chart.zero
    memo = e._derivs
    if memo is None:
        memo = e._derivs = {}
    elif sym in memo:
        return memo[sym]
    dn = _poly_derivative(chart, e.num, sym)
    if p_is_const(e.den):
        out = dn
    else:
        dd = _poly_derivative(chart, e.den, sym)
        den_expr = Expr(chart, e.den, p_const(1), _raw=True)
        num_expr = Expr(chart, e.num, p_const(1), _raw=True)
        out = (dn * den_expr - num_expr * dd) / (den_expr * den_expr)
    memo[sym] = out
    return out


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


def eval_float(e: Expr, base_values: dict[str, float]) -> float:
    """Float shadow evaluation from base-symbol values.

    Trig extension generators take their real values sin(theta), cos(theta),
    unlike exact sample points, which assign independent circle coordinates.
    """

    def gen_value(idx: int) -> float:
        info = e.chart.gen_info(idx)
        if info.kind == "base":
            return base_values[info.name]
        if info.kind == "sin":
            return math.sin(base_values[info.base])
        return math.cos(base_values[info.base])

    def poly_value(poly: Poly) -> float:
        total = 0.0
        for m, c in poly.items():
            term = float(c)
            for i, ee in mono_items(m):
                term *= gen_value(i) ** ee
            total += term
        return total

    den = poly_value(e.den)
    if abs(den) < 1e-300:
        raise PoleError(_render_poly(e.chart, e.den))
    return poly_value(e.num) / den


# -- substitution and transfer --------------------------------------------------


def _map_generators(e: Expr, target: Chart, repl: dict[str, Expr]) -> Expr:
    """e on the target chart with each base symbol replaced by its value in
    repl (by the same-named symbol of target when absent); sin/cos are
    re-applied to the mapped angle.  On e's own chart, a generator whose
    base symbol repl leaves alone stays as it is."""
    source = e.chart

    def gen_value(idx: int) -> Expr:
        info = source.gen_info(idx)
        if target is source and info.base not in repl:
            return source._gen_expr(idx)
        value = repl.get(info.base)
        if value is None:
            value = target.sym(info.base)
        return value if info.kind == "base" else FUNCTION_TABLE[info.kind](value)

    def poly_to_expr(poly: Poly) -> Expr:
        total = target.zero
        for m, c in poly.items():
            term = target.const(c)
            for i, ee in mono_items(m):
                term = term * gen_value(i) ** ee
            total = total + term
        return total

    return poly_to_expr(e.num) / poly_to_expr(e.den)


def substitute(e: Expr, mapping: dict[str, Scalar]) -> Expr:
    """Substitute expressions (or constants) for base symbols, same chart."""
    chart = e.chart
    repl: dict[str, Expr] = {}
    for name, value in mapping.items():
        if not chart.has_symbol(name):
            raise UnknownSymbolError(name)
        repl[name] = value if isinstance(value, Expr) else chart.const(value)
        if repl[name].chart is not chart:
            raise ChartMismatchError("substitution value on another chart")
    return _map_generators(e, chart, repl)


def transfer(e: Expr, target: Chart) -> Expr:
    """Re-index onto a chart holding e's base symbols; sin/cos pairs are
    registered on it in the order the monomials meet them."""
    if e.chart is target:
        return e
    index: dict[int, int] = {}
    for i in p_vars_in_order(e.num, e.den):
        info = e.chart.gen_info(i)
        if not target.has_symbol(info.base):
            raise UnknownSymbolError(info.base)
        if info.kind == "base":
            index[i] = target._index[info.base]
        else:
            index[i] = target.trig_pair(info.base)[info.kind == "cos"]
    num = p_rename(e.num, index)
    den = p_rename(e.den, index)
    lc = p_lead(den)[1]
    if lc != 1:
        inv = Fraction(1) / lc
        num, den = p_scale(num, inv), p_scale(den, inv)
    out = Expr(target, num, den, _raw=True)
    out._symbols = e._symbols
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
    den_expr = Expr(chart, e.den, p_const(1), _raw=True)
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
        total = total + Expr(chart, {rest: c}, p_const(1), _raw=True) * piece
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
            if b == 0:
                return x
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
