"""Seeded sample points for generic-position evaluation.

The rank engine evaluates in the prime field F_p, p = PRIME = 2^61 - 1.  A
point gives every base symbol an independent nonzero residue and the
sin/cos pair of an angle the half-angle point (2t, 1 - t^2) / (1 + t^2), so
sin^2 + cos^2 = 1 holds mod p; since p = 3 mod 4, 1 + t^2 never vanishes.
Coefficients reduce as num * den^-1 mod p.  A point where a denominator or
a constraint vanishes mod p is redrawn; a draw gives up with
SampleExhaustedError after `_TRIES` = 60 points.  By the Schwartz-Zippel
lemma (Schwartz 1980; Zippel 1979) a nonzero polynomial of degree D
vanishes at such a point with probability at most D/p.  So a rank read off
a modular point can only be too low, never too high, and it is too low
with probability at most D/p when D is the degree of a nonvanishing
maximal minor.

An expression is evaluated from its packed terms by `sympoly.p_residue`,
one walk that decodes each monomial in place: each term is its
coefficient's residue times the powers of the residues of its generators.
A denominator that is the constant 1 is not walked.  The rank engine
passes only nonzero entries.

The rank engine draws every point through `admissible_point`: one where no
constraint vanishes and none of the given expressions has a pole.  It
shares its points among all its rank calls on a chart.  `residues_at`
evaluates each expression at a point once and keeps the residue, or None at
a pole, in the Expr's `_residues` slot, keyed by the point object: the key
holds the point, so no other point can take its place.

`SamplePoint`, `draw_point` and `draw_admissible` are the exact rational
counterpart: base symbols receive random rationals with numerator and
denominator bounded by 997, angles a rational point on the unit circle
through the same half-angle parameterization.  They serve as the reference
evaluation in tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (
    PoleError,
    SampleExhaustedError,
    StaleSamplePointError,
)
from .expr import Chart, Expr, eval_at
from .sympoly import p_const, p_residue

_BOUND = 997
_TRIES = 60  # points drawn before SampleExhaustedError

PRIME = (1 << 61) - 1
_UNIT = p_const(1)


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


class SamplePoint(NamedTuple):
    """A total assignment of rationals to every generator known at draw time."""

    chart: Chart
    values: tuple[Fraction, ...]

    def value(self, index: int) -> Fraction:
        if index >= len(self.values):
            raise StaleSamplePointError(
                f"generator {self.chart.gen_info(index).name} registered after draw"
            )
        return self.values[index]


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
) -> SamplePoint:
    """A point where every expression evaluates and every constraint is nonzero."""
    for _ in range(_TRIES):
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
        f"no admissible sample point within {_TRIES} tries on chart "
        f"({', '.join(chart.coordinates)})"
    )


# -- evaluation in F_p ---------------------------------------------------------


def _expr_residue(e: Expr, values: Sequence[int]) -> Optional[int]:
    """e mod PRIME at the residues `values` of its chart's generators, or
    None when its denominator vanishes there.  A denominator that is the
    constant 1 is not walked."""
    num = p_residue(e.num, values, PRIME)
    if e.den == _UNIT:
        return num
    den = p_residue(e.den, values, PRIME)
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


class ModularPoint:
    """Residues for every generator of a chart at one admissible point.  A
    point is compared by identity: it keys each Expr's residue memo."""

    __slots__ = ("values",)

    def __init__(self, values: list[int]) -> None:
        self.values = values


def admissible_point(
    chart: Chart,
    rng: random.Random,
    constraints: Sequence[Expr],
    exprs: Sequence[Expr],
) -> ModularPoint:
    """The first drawn point of the chart where no constraint vanishes and
    none of `exprs` has a pole; the residues of `exprs` there are kept
    (`residues_at`)."""
    for _ in range(_TRIES):
        point = ModularPoint(modular_point(chart, rng))
        if all(_expr_residue(g, point.values) for g in constraints) and (
            residues_at(exprs, point) is not None
        ):
            return point
    raise SampleExhaustedError(
        f"no admissible sample point within {_TRIES} tries on chart "
        f"({', '.join(chart.coordinates)})"
    )


def residues_at(exprs: Sequence[Expr], point: ModularPoint) -> Optional[list[int]]:
    """The residues of `exprs` at a point, or None when one of them
    has a pole there.  Each expression is evaluated once per point; its
    residue, or None, is kept in its `_residues` slot."""
    values = point.values
    out = []
    for e in exprs:
        memo = e._residues
        if memo is None:
            memo = e._residues = {}
        r = memo.get(point, -1)
        if r == -1:
            r = memo[point] = _expr_residue(e, values)
        if r is None:
            return None
        out.append(r)
    return out
