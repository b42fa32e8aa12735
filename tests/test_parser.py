"""The parser against its reference: the recursive parser that built one
`Expr` per atom and combined them with `Expr` arithmetic, kept verbatim
below.  `flatkit.parser` builds polynomial subexpressions as dicts; on any
text it must give the reference's expression, with the same terms in the
same order and the same sin/cos pairs registered on the chart, or raise the
reference's exception with the same message and position."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatkit.errors import (
    FlatkitError,
    MonomialLimitError,
    ParseError,
    UnknownSymbolError,
    UnsupportedFunctionError,
    ZeroDenominatorError,
)
from flatkit.expr import _IDENT_OK, FUNCTION_TABLE, Chart, Expr
from flatkit.parser import MAX_DEPTH, parse

# -- the reference parser -------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


_OPS = set("+-*/^()")
_DIGITS = "0123456789"


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or text[j] not in _DIGITS:
                    raise ParseError("malformed number", i)
                while j < n and text[j] in _DIGITS:
                    j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch in _IDENT_OK:  # not a digit: those start a number
            j = i
            while j < n and text[j] in _IDENT_OK:
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
        except RecursionError:  # parentheses, arguments or minus signs
            at = self.tokens[self.k - 1].pos
            raise ParseError("expression nested too deeply", at) from None
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
            # int() is much cheaper than Fraction() on the integers models hold
            try:
                value = Fraction(tok.text) if "." in tok.text else int(tok.text)
            except ValueError:  # past the interpreter's integer-string limit
                raise ParseError("number literal too long", tok.pos) from None
            return self.chart.const(value)
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


def reference_parse(chart: Chart, text: str) -> Expr:
    """Parse text to a canonical expression over the chart."""
    return _Parser(chart, text).parse()


# -- the parser against the reference --------------------------------------------


def _chart() -> Chart:
    return Chart(["x", "y", "theta"], ["eps"])


def _outcome(parse_with, text: str) -> tuple:
    """What parsing text on a fresh chart gives: the expression's rendering,
    its terms in dict order (the numerator's with their coefficient types)
    and the chart's generators; or the exception's type, message and
    position.  A constant denominator is 1 as an int from the parser where
    the reference may keep Fraction(1), which sympoly treats alike."""
    chart = _chart()
    try:
        e = parse_with(chart, text)
    except Exception as err:  # whatever the reference raises, the parser must
        return ("raised", type(err), str(err), getattr(err, "position", None))
    return (
        "parsed",
        e.render(),
        [(m, c, type(c)) for m, c in e.num.items()],
        list(e.den.items()),
        chart.gens(),
    )


def _assert_like_the_reference(text: str) -> None:
    got = _outcome(parse, text)
    assert got == _outcome(reference_parse, text)
    if got[0] == "parsed":
        chart = _chart()
        assert parse(chart, text) == reference_parse(chart, text)


_SYMBOLS = ("x", "y", "theta", "eps")
# sin and cos take integer combinations of symbols; the others are refused
_ANGLES = st.one_of(
    st.sampled_from(["theta", "x"]),
    st.lists(
        st.tuples(st.integers(-2, 2), st.sampled_from(["x", "theta"])), min_size=1, max_size=2
    ).map(lambda terms: " + ".join(f"{k}*{s}" for k, s in terms)),
    st.sampled_from(["0", "x - x", "theta/2", "x^2", "1"]),
)
_LEAVES = st.one_of(
    st.sampled_from(_SYMBOLS),
    # products of these meet the circle relation
    st.sampled_from(["sin(theta)", "cos(theta)", "sin(x)"]),
    st.integers(0, 12).map(str),
    st.sampled_from(["0.5", "2.25", "1.0", "007", "10.50"]),
    st.builds("{}({})".format, st.sampled_from(["sin", "cos", "tan", "cot"]), _ANGLES),
    st.sampled_from(["exp(0)", "ln(1)", "sqrt(9/4)", "exp(x)"]),
    # zero only once the circle relation reduces it
    st.just("(sin(theta)^2 + cos(theta)^2 - 1)"),
    # powers up to and past MAX_EXP, on atoms only: a sum to the 127th
    # power is too slow for a test
    st.builds(
        "{}^{}".format,
        st.sampled_from(["x", "eps", "sin(theta)", "cos(x)"]),
        st.sampled_from([2, 64, 100, 127, 128, 300]),
    ),
)


def _compound(children):
    return st.one_of(
        st.builds(
            "{}{}{}".format,
            children,
            st.sampled_from([" + ", " - ", "-", "*", " * ", "/", " / "]),
            children,
        ),
        st.builds("-{}".format, children),
        st.builds("({})".format, children),
        st.builds(
            "({})^{}".format,
            children,
            st.sampled_from(["0", "1", "2", "3", "(-1)", "(-2)", "(0.5*2)", "0.5", "x", "(1/2)"]),
        ),
    )


_STRAYS = ["@", "1.", ".5", "²", ")", "(", "sin()", "q7", "^", "  ", "*"]


@st.composite
def _texts(draw):
    text = draw(st.recursive(_LEAVES, _compound, max_leaves=8))
    if draw(st.integers(0, 4)) == 0:  # a stray token somewhere
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_STRAYS)) + text[at:]
    return text


@settings(max_examples=150)
@given(_texts())
@example("x^127*x")
@example("x^100*sin(theta)^2*x^100")
def test_parse_matches_the_reference(text):
    _assert_like_the_reference(text)


@pytest.mark.parametrize(
    "text, raised",
    [
        ("x^127*x", "an exponent passes the limit of 127 (at position 6)"),
        ("sin(theta)^300", "an exponent passes the limit of 127 (at position 11)"),
        ("x/(sin(theta)^2+cos(theta)^2-1)", "division by zero (at position 1)"),
        ("--x", None),
        ("x^(0.5*2)", None),
        ("1.", "malformed number (at position 0)"),
        (".5", "unexpected character '.' (at position 0)"),
        ("sin()", "unexpected token ')' (at position 4)"),
        ("(x-x)^(-1)", "zero raised to a negative power (at position 5)"),
        ("cot(0)", "'cot' has a pole at its argument (at position 0)"),
        ("x + q7", "unknown symbol 'q7' (at position 4)"),
        ("x/(y - y)^2", "division by zero (at position 1)"),
        ("1/x + x/y - 1/x", None),
        ("(x + 1)*(x - 1)/(x - 1) + sin(2*theta)", None),
        ("x^2^3 - (-x)^6", None),
        ("tan(theta)*cos(theta) - sin(theta)", None),
        ("x +   ", "unexpected token 'end of input' (at position 6)"),
        # lone tokens: integers and symbols, and what only looks like one
        (" 007 ", None),
        ("  eps", None),
        ("1" * 19, None),
        ("q7", "unknown symbol 'q7' (at position 0)"),
        (" sin ", "function 'sin' requires an argument (at position 1)"),
        ("x2y", "unknown symbol 'x2y' (at position 0)"),
    ],
)
def test_fixed_cases_match_the_reference(text, raised):
    _assert_like_the_reference(text)
    if raised is not None:
        with pytest.raises(FlatkitError) as err:
            parse(_chart(), text)
        assert str(err.value) == raised


# -- nesting ------------------------------------------------------------------------


def _nested(depth: int, inner: str = "x") -> str:
    return "(" * depth + inner + ")" * depth


def test_fifty_levels_of_nesting_parse():
    _assert_like_the_reference(_nested(50))
    _assert_like_the_reference("sin(" + _nested(49, "2*x - theta") + ")")


def test_nesting_past_the_cap_is_an_error_at_the_parenthesis_past_it():
    chart = _chart()
    assert parse(chart, _nested(MAX_DEPTH)) == chart.sym("x")
    with pytest.raises(ParseError, match="expression nested too deeply") as err:
        parse(chart, _nested(MAX_DEPTH + 1))
    assert err.value.position == MAX_DEPTH
    # a function's argument is one level
    text = "-sin(" + _nested(MAX_DEPTH - 1) + ")"
    assert parse(chart, text) == -chart.parse("sin(x)")
    with pytest.raises(ParseError, match="expression nested too deeply") as err:
        parse(chart, "1 + sin(" + _nested(MAX_DEPTH) + ")")
    assert err.value.position == 7 + MAX_DEPTH


def test_running_out_of_frames_is_a_nesting_error():
    chart = _chart()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    # too few frames for 50 levels, which the cap allows
    sys.setrecursionlimit(depth + 60)
    try:
        with pytest.raises(ParseError, match="expression nested too deeply"):
            parse(chart, _nested(50))
    finally:
        sys.setrecursionlimit(limit)


def test_a_run_of_minus_signs_has_no_cap():
    chart = _chart()
    assert parse(chart, "-" * 2001 + "x") == -chart.sym("x")


# -- cost shape -------------------------------------------------------------------


def _polynomial_sum(rng: random.Random, terms: int) -> str:
    return " + ".join(
        f"{rng.randint(-9, 9)}*{rng.choice(_SYMBOLS)}^{rng.randint(1, 4)}*{rng.choice(_SYMBOLS)}"
        for _ in range(terms)
    )


def test_a_polynomial_sum_builds_one_expr_at_any_length(monkeypatch):
    built = []
    real = Expr.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    counts = []
    for terms in (10, 1000):
        chart = _chart()
        text = _polynomial_sum(random.Random(terms), terms)
        built.clear()
        monkeypatch.setattr(Expr, "__init__", counting)
        e = parse(chart, text)
        monkeypatch.undo()
        counts.append(len(built))
        assert e == reference_parse(chart, text)
    assert counts == [1, 1]
