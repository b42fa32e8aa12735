"""Seeded sample points for generic-position evaluation.

The rank engine evaluates in the prime field F_p, p = PRIME = 2^61 - 1.  A
point gives every base symbol an independent nonzero residue and the
sin/cos pair of an angle the half-angle point (2t, 1 - t^2) / (1 + t^2), so
sin^2 + cos^2 = 1 holds mod p; since p = 3 mod 4, 1 + t^2 never vanishes.
Coefficients reduce as num * den^-1 mod p.  A point where a denominator or
a constraint vanishes mod p is redrawn.  By the Schwartz-Zippel lemma
(Schwartz 1980; Zippel 1979) a nonzero polynomial of degree D vanishes at
such a point with probability at most D/p.  So a rank read off a modular
point can only be too low, never too high, and it is too low with
probability at most D/p when D is the degree of a nonvanishing maximal
minor.

An expression is decoded once, at its first evaluation: each term becomes
its coefficient's residue and the (generator, exponent) pairs of its packed
monomial, kept in the Expr's `_program` slot.  Every later point only
multiplies residues.  The rank engine passes only nonzero entries.

`SamplePoint`, `draw_point` and `draw_admissible` are the exact rational
counterpart: base symbols receive random rationals with numerator and
denominator bounded by 997, angles a rational point on the unit circle
through the same half-angle parameterization.  They serve as the reference
evaluation in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    PoleError,
    PrimeDenominatorError,
    SampleExhaustedError,
    StaleSamplePointError,
)
from .expr import Chart, Expr, eval_at
from .sympoly import Poly, mono_items

_BOUND = 997

PRIME = (1 << 61) - 1


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_BOUND, _BOUND), rng.randint(1, _BOUND))


def _circle_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational (sin, cos) with both coordinates nonzero."""
    while True:
        t = random_rational(rng)
        if t in (0, 1, -1):
            continue
        den = 1 + t * t
        return Fraction(2) * t / den, (1 - t * t) / den


@dataclass(frozen=True)
class SamplePoint:
    """A total assignment of rationals to every generator known at draw time."""

    chart: Chart
    values: tuple[Fraction, ...]

    def value(self, index: int) -> Fraction:
        if index >= len(self.values):
            raise StaleSamplePointError(
                f"generator {self.chart.gen_info(index).name} registered after draw"
            )
        return self.values[index]

    def base_values(self) -> dict[str, Fraction]:
        out = {}
        for i, v in enumerate(self.values):
            info = self.chart.gen_info(i)
            if info.kind == "base":
                out[info.name] = v
        return out


def draw_point(chart: Chart, rng: random.Random) -> SamplePoint:
    gens = chart.gens()
    values: list[Fraction] = []
    circle: dict[str, tuple[Fraction, Fraction]] = {}
    for info in gens:
        if info.kind == "base":
            values.append(random_rational(rng))
        else:
            if info.base not in circle:
                circle[info.base] = _circle_point(rng)
            s, c = circle[info.base]
            values.append(s if info.kind == "sin" else c)
    return SamplePoint(chart, tuple(values))


def draw_admissible(
    chart: Chart,
    rng: random.Random,
    exprs: list[Expr],
    constraints: tuple[Expr, ...] = (),
    tries: int = 60,
) -> SamplePoint:
    """A point where every expression evaluates and every constraint is nonzero."""
    for _ in range(tries):
        point = draw_point(chart, rng)
        try:
            for g in constraints:
                if eval_at(g, point) == 0:
                    raise PoleError(g.render())
            for e in exprs:
                eval_at(e, point)
        except (PoleError, StaleSamplePointError):
            continue
        return point
    raise SampleExhaustedError(
        f"no admissible sample point within {tries} tries on chart "
        f"({', '.join(chart.coordinates)})"
    )


# -- evaluation in F_p ---------------------------------------------------------


def _residue(c: int | Fraction) -> int:
    """c mod PRIME; raises PrimeDenominatorError when PRIME divides its denominator."""
    if type(c) is int:
        return c % PRIME
    den = c.denominator
    if den == 1:
        return c.numerator % PRIME
    if den % PRIME == 0:
        raise PrimeDenominatorError(c)
    return c.numerator * pow(den, -1, PRIME) % PRIME


_Program = list[tuple[int, list[tuple[int, int]]]]


def _poly_program(poly: Poly) -> _Program:
    """Each term as its coefficient's residue and its (generator, exponent)
    pairs."""
    return [(_residue(c), mono_items(m)) for m, c in poly.items()]


def _residue_program(e: Expr) -> tuple[_Program, _Program]:
    """The decoded terms of e's numerator and denominator, built at e's
    first evaluation and kept in its `_program` slot."""
    if e._program is None:
        e._program = (_poly_program(e.num), _poly_program(e.den))
    return e._program


def _run(program: _Program, values: Sequence[int]) -> int:
    total = 0
    for term, factors in program:
        for i, k in factors:
            term = term * (values[i] if k == 1 else pow(values[i], k, PRIME)) % PRIME
        total += term
    return total % PRIME


def _expr_residue(e: Expr, values: Sequence[int]) -> Optional[int]:
    """e mod PRIME at the residues `values` of its chart's generators, or
    None when its denominator vanishes there."""
    num_program, den_program = _residue_program(e)
    num = _run(num_program, values)
    den = _run(den_program, values)
    if den == 1:
        return num
    if den == 0:
        return None
    return num * pow(den, -1, PRIME) % PRIME


def modular_point(chart: Chart, rng: random.Random) -> list[int]:
    """Residues for every generator of the chart, circle relation included."""
    values: list[int] = []
    circle: dict[str, tuple[int, int]] = {}
    for info in chart.gens():
        if info.kind in ("sin", "cos"):
            if info.base not in circle:
                # t avoids 0 and +-1, so that neither coordinate vanishes.
                t = rng.randrange(2, PRIME - 1)
                inv = pow(1 + t * t, -1, PRIME)
                circle[info.base] = (2 * t * inv % PRIME, (1 - t * t) * inv % PRIME)
            s, c = circle[info.base]
            values.append(s if info.kind == "sin" else c)
        else:
            values.append(rng.randrange(1, PRIME))
    return values


def draw_residues(
    chart: Chart,
    rng: random.Random,
    exprs: Sequence[Expr],
    constraints: Sequence[Expr] = (),
    tries: int = 60,
) -> list[int]:
    """The residues of `exprs` at one point where none of them has a pole and
    no constraint vanishes; each expression is evaluated once per point."""
    for _ in range(tries):
        values = modular_point(chart, rng)
        if not all(_expr_residue(g, values) for g in constraints):
            continue
        out: list[int] = []
        for e in exprs:
            r = _expr_residue(e, values)
            if r is None:
                break
            out.append(r)
        else:
            return out
    raise SampleExhaustedError(
        f"no admissible sample point within {tries} tries on chart "
        f"({', '.join(chart.coordinates)})"
    )
