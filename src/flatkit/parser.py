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
function's name.  A product or power with an exponent past the polynomial
format's limit (`sympoly.MAX_EXP`) is a ParseError at the token just read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    MonomialLimitError,
    ParseError,
    UnknownSymbolError,
    UnsupportedFunctionError,
    ZeroDenominatorError,
)
from .expr import FUNCTION_TABLE, Chart, Expr


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("malformed number", i)
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{ch}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, chart: Chart, text: str):
        self.chart = chart
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected '{op}'", tok.pos)

    def parse(self) -> Expr:
        try:
            e = self.expr()
        except MonomialLimitError as err:  # a power such as x^100000
            raise ParseError(str(err), self.tokens[self.k - 1].pos) from None
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input '{tok.text}'", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.unary()
            if op.text == "*":
                e = e * rhs
            elif rhs.is_zero():
                raise ParseError("division by zero", op.pos)
            else:
                e = e / rhs
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            op = self.advance()
            exponent = self.atom()
            if not exponent.is_constant():
                raise ParseError("power exponent must be an integer constant", op.pos)
            value = exponent.as_fraction()
            if value.denominator != 1:
                raise ParseError("power exponent must be an integer", op.pos)
            n = value.numerator
            if n < 0 and e.is_zero():
                raise ParseError("zero raised to a negative power", op.pos)
            e = e**n
        return e

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return self.chart.const(Fraction(tok.text))
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "ident":
            name = tok.text
            if name in FUNCTION_TABLE:
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == "(":
                    self.advance()
                    arg = self.expr()
                    self.expect_op(")")
                    try:
                        return FUNCTION_TABLE[name](arg)
                    except ZeroDenominatorError:  # cot(0)
                        raise ParseError(f"'{name}' has a pole at its argument", tok.pos) from None
                    except UnsupportedFunctionError as err:
                        raise ParseError(
                            f"{name}({arg.render()}) is not supported: {err.reason}", tok.pos
                        ) from None
                raise ParseError(f"function '{name}' requires an argument", tok.pos)
            if self.chart.has_symbol(name):
                return self.chart.sym(name)
            raise UnknownSymbolError(name, tok.pos)
        raise ParseError(f"unexpected token '{tok.text or 'end of input'}'", tok.pos)


def parse(chart: Chart, text: str) -> Expr:
    """Parse text to a canonical expression over the chart."""
    return _Parser(chart, text).parse()
