"""Infix expression parser.

Grammar (all binary operators left-associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' atom)*
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Precedence is ^ > unary minus > * / > + -, so -x^2 parses as -(x^2).
Exponents must be integer constants; decimal literals are exact rationals
(0.5 is 1/2).  Known functions: sin, cos, tan, cot, exp, ln, sqrt, within
the arguments `expr` accepts; any other application is a ParseError at the
function's name.  Tokens are ASCII: digits 0-9 and identifiers over
`expr._IDENT_OK`; one compiled pattern reads them all, as plain
(kind, text, position) tuples, before parsing starts.

How values are built.  A subexpression whose canonical denominator is 1 (a
polynomial) is a `sympoly` dict while it is built; any other value is an
`Expr`.  A sum of polynomial terms accumulates into one dict.  A product of
two polynomials is `chart.reduce(p_mul(a, b))`, a positive power
`chart.reduce(p_pow(a, n))` and a product by a constant a scaling, each
reduced where `Expr` arithmetic reduces it, so every dict is trig-reduced
and needs no canonicalization.  Quotients, negative powers, function
applications and any operation with a non-polynomial operand go through
`Expr` arithmetic, which canonicalizes them and checks their zeros and
poles; a result whose denominator is 1 is a dict again.  Every operation
runs in the order and on the operands it has in the grammar, so the dicts
hold their terms in the order `Expr` arithmetic would give them, and the
sin/cos pairs are registered in the same order.  A polynomial result
becomes an `Expr` once, by `chart.poly`; a symbol's generator is
`chart.index`.  The parser reads no private field of the chart (see
`expr`).  A text that is one integer literal or one symbol of the chart,
as most components of a model are, is read by one pattern match, with no
tokens.

Errors.  A product or power with an exponent past the polynomial format's
limit (`sympoly.MAX_EXP`) is a ParseError at the token just read, as is a
chart past `sympoly.SLOTS` generators.  Parentheses and function arguments
nested more than MAX_DEPTH deep are a ParseError "expression nested too
deeply" at the parenthesis past the cap, and so is running out of
interpreter frames; a run of minus signs is read in a loop, with no cap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import (
    MonomialLimitError,
    ParseError,
    UnknownSymbolError,
    UnsupportedFunctionError,
    ZeroDenominatorError,
)
from .expr import FUNCTION_TABLE, Chart, Expr
from .sympoly import (
    Poly,
    p_const,
    p_is_const,
    p_mul,
    p_neg,
    p_pow,
    p_scale,
    p_var,
)

# operators, identifiers, numbers (with their dot, so that "1." and "1.x"
# are malformed) and any other character that is not whitespace
_TOKEN = re.compile(r"\s*(?:([-+*/^()])|([A-Za-z_][A-Za-z0-9_]*)|([0-9]+(?:\.[0-9]*)?)|(\S))")
# a lone integer literal or identifier, as most components of a model are;
# a longer literal takes the tokens, whose path reports one past int()'s
# digit limit
_LONE = re.compile(r"\s*(?:([0-9]{1,18})|([A-Za-z_][A-Za-z0-9_]*))\s*")
# far past what a model writes, and about where five interpreter frames per
# level would fill the default recursion limit of 1,000
MAX_DEPTH = 200

# a polynomial (denominator 1) as a dict, anything else as an Expr
_Value = Union[Poly, Expr]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) tuples; kind is the operator character,
    "ident", "num" or "end"."""
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        token = m[group]
        pos = m.start(group)
        if group == 1:
            append((token, token, pos))
        elif group == 2:
            append(("ident", token, pos))
        elif group == 4:
            raise ParseError(f"unexpected character '{token}'", pos)
        elif token[-1] == ".":
            raise ParseError("malformed number", pos)
        else:
            append(("num", token, pos))
    append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, chart: Chart, text: str):
        self.chart = chart
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def parse(self) -> Expr:
        try:
            value = self.sum()
        except MonomialLimitError as err:  # a power such as x^100000
            raise ParseError(str(err), self.tokens[self.k - 1][2]) from None
        except RecursionError:  # called with the interpreter's stack nearly full
            at = self.tokens[self.k - 1][2]
            raise ParseError("expression nested too deeply", at) from None
        kind, text, pos = self.tokens[self.k]
        if kind != "end":
            raise ParseError(f"unexpected trailing input '{text}'", pos)
        return self.expr(value)

    # -- values ------------------------------------------------------------

    def expr(self, value: _Value) -> Expr:
        if type(value) is dict:
            return self.chart.poly(value)
        return value

    @staticmethod
    def lower(e: Expr) -> _Value:
        # a canonical constant denominator is 1
        return e.num if p_is_const(e.den) else e

    # -- grammar -----------------------------------------------------------

    def sum(self) -> _Value:
        tokens = self.tokens
        value = self.term()
        owned = False  # whether value is a dict this sum may add into
        while True:
            op = tokens[self.k][0]
            if op != "+" and op != "-":
                return value
            self.k += 1
            rhs = self.term()
            if type(value) is dict and type(rhs) is dict:
                if not owned:
                    value = dict(value)
                    owned = True
                minus = op == "-"
                for m, c in rhs.items():
                    s = value.get(m, 0) + (-c if minus else c)
                    if s:
                        value[m] = s
                    else:
                        del value[m]
            else:
                a, b = self.expr(value), self.expr(rhs)
                value = self.lower(a + b if op == "+" else a - b)
                owned = False

    def term(self) -> _Value:
        """unary (('*' | '/') unary)*, with each unary read in place: its
        minus signs, its atom and the atom's powers."""
        tokens = self.tokens
        value: _Value = {}
        op, pos = "", 0  # the operator before the factor being read
        while True:
            negate = False
            while tokens[self.k][0] == "-":
                self.k += 1
                negate = not negate
            factor = self.atom()
            while tokens[self.k][0] == "^":
                caret = tokens[self.k][2]
                self.k += 1
                factor = self.power(factor, self.atom(), caret)
            if negate:
                factor = p_neg(factor) if type(factor) is dict else -factor
            if not op:
                value = factor
            elif op == "*":
                value = self.times(value, factor)
            elif type(factor) is dict and not factor:  # an Expr value is never zero
                raise ParseError("division by zero", pos)
            else:
                value = self.lower(self.expr(value) / self.expr(factor))
            op, _, pos = tokens[self.k]
            if op != "*" and op != "/":
                return value
            self.k += 1

    def times(self, a: _Value, b: _Value) -> _Value:
        """a * b, by the cases of `Expr.__mul__`."""
        if type(a) is not dict or type(b) is not dict:
            return self.lower(self.expr(a) * self.expr(b))
        if not a or not b:
            return {}
        if p_is_const(b):
            return a if b[0] == 1 else p_scale(a, b[0])
        if p_is_const(a):
            return b if a[0] == 1 else p_scale(b, a[0])
        return self.chart.reduce(p_mul(a, b))

    def power(self, value: _Value, exponent: _Value, pos: int) -> _Value:
        """value ^ exponent, the '^' at pos."""
        if type(exponent) is not dict or not p_is_const(exponent):
            raise ParseError("power exponent must be an integer constant", pos)
        n = exponent.get(0, 0)
        if n.denominator != 1:
            raise ParseError("power exponent must be an integer", pos)
        n = n.numerator
        if type(value) is not dict:  # never zero
            return self.lower(value**n)
        if n > 0:
            return self.chart.reduce(p_pow(value, n))
        if n == 0:
            return p_const(1)
        if not value:
            raise ParseError("zero raised to a negative power", pos)
        return self.lower(self.expr(value) ** n)

    def atom(self) -> _Value:
        kind, text, pos = self.tokens[self.k]
        self.k += 1
        if kind == "num":
            # int() is much cheaper than Fraction() on the integers models hold
            try:
                return p_const(Fraction(text) if "." in text else int(text))
            except ValueError:  # past the interpreter's integer-string limit
                raise ParseError("number literal too long", pos) from None
        if kind == "ident":
            if text not in FUNCTION_TABLE:
                chart = self.chart
                if chart.has_symbol(text):
                    return p_var(chart.index(text))
                raise UnknownSymbolError(text, pos)
            paren, _, opened = self.tokens[self.k]
            if paren != "(":
                raise ParseError(f"function '{text}' requires an argument", pos)
            self.k += 1
        elif kind == "(":
            opened = pos
        else:
            raise ParseError(f"unexpected token '{text or 'end of input'}'", pos)
        # a parenthesized expression or a function's argument, read in this
        # frame: each level of nesting costs sum, term and atom
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply", opened)
        value = self.sum()
        close, _, at = self.tokens[self.k]
        self.k += 1
        if close != ")":
            raise ParseError("expected ')'", at)
        self.depth -= 1
        if text == "(":
            return value
        arg = self.expr(value)
        try:
            return self.lower(FUNCTION_TABLE[text](arg))
        except ZeroDenominatorError:  # cot(0)
            raise ParseError(f"'{text}' has a pole at its argument", pos) from None
        except UnsupportedFunctionError as err:
            raise ParseError(
                f"{text}({arg.render()}) is not supported: {err.reason}", pos
            ) from None


def parse(chart: Chart, text: str) -> Expr:
    """Parse text to a canonical expression over the chart."""
    lone = _LONE.fullmatch(text)
    if lone is not None:
        number, name = lone.groups()
        if number is not None:
            return chart.const(int(number))
        if chart.has_symbol(name):
            return chart.sym(name)
    return _Parser(chart, text).parse()
