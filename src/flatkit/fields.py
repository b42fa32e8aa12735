"""Vector fields, covector fields, and Lie operations on a chart.

Components are indexed by the chart's coordinates; parameters never carry
components and are treated as constants by every derivative.
Each field's support, its nonzero components, is computed once; a
bracket's support is read off the only entries its loops can write.
A vector field also keeps its directions (the coordinates of its support)
and its symbols (those its components depend on).  When neither of v, w
moves along a symbol of the other, every derivative in [v, w] is zero, so
the bracket is zero with no derivative taken.

Such a bracket is the chart's one zero field (`zero_field`).  Every other
bracket is memoized on v, keyed by the value of w, so a question takes each
[v, w] once, and a repeat returns the same field even when an equal w was
built on another path.  A field hashes its chart's identity and the hashes
of its components, which each Expr computes once from its int and Fraction
coefficients; equal fields on different charts differ, so they never share
an entry.  The memo lives as long as v does.

Every Lie operation is one derivation, computed by the kernel
`sympoly.p_derive` in a single walk over the terms of the polynomials it
differentiates.  A derivation is given by its chain: one multiplier
polynomial per generator, the generator's image, built by `expr.chain`.
Along a field v the chain rule sends x_j to v_j and, for a trig pair the
chart already has on x_j, sin x_j to cos x_j * v_j and cos x_j to
-sin x_j * v_j; no generator is registered.  A field is cleared to v~ / D
first, with D the lcm of its component denominators (times that of its
coefficient denominators), so every multiplier has int coefficients; the
kernel clears the polynomial it walks the same way, runs its inner loop
on ints and divides by the common denominator once at the end.  The chain of a field is kept on it
until its chart registers another trig pair (`Chart.sin_to_cos` grows).

* `lie_derivative` walks h along v's chain; a quotient n/d takes the
  quotient rule (d L n - n L d) / d^2 (`expr.quotient_rule`),
  canonicalized once (`expr.derive`).
* `lie_bracket` of polynomial fields walks each w_i along v's chain and
  each v_i along w's, subtracting, into one dict per component; otherwise
  [v, w]_i = L_v w_i - L_w v_i from two canonical Lie derivatives.
* `differential` gives dh up to den(h)^2; callers read only the line it
  spans.  Its chain sends the generators on coordinate j to component j;
  for h = n/d, component j is the polynomial d * dn_j - n * dd_j that
  `expr.quotient_rule` gives, with no gcd.  Every caller (the rank of
  d phi, the ladder and dx rows of the rank check and the Q sequence, the
  membership and independence of first integrals) reads spans, ranks, zero
  tests and memberships, which a nonzero factor on a row does not change.

Each output polynomial gets one `Chart.reduce` and, over a polynomial
operand or in `differential`, becomes an Expr by `Chart.poly`: it is
canonical as built.  This module reads no private field of the chart (see
`expr`).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import ChartMismatchError
from .expr import Chart, Expr, chain, derive, quotient_rule, transfer_all
from .sympoly import (
    Chain,
    Poly,
    p_clear,
    p_const,
    p_derive,
    p_div_exact,
    p_is_const,
    p_lcm,
    p_mul,
    p_scale,
)


def _check_components(chart: Chart, components: Sequence[Expr]) -> tuple[Expr, ...]:
    comps = tuple(components)
    if len(comps) != chart.dim:
        raise ValueError(
            f"expected {chart.dim} components, got {len(comps)}"
        )
    for c in comps:
        if c.chart is not chart:
            raise ChartMismatchError("component on a different chart")
    return comps


class _Field:
    """Components on a chart.  Equal to a field of the same kind on the same
    chart with equal components, and hashed to match."""

    def __init__(self, chart: Chart, components: Sequence[Expr]) -> None:
        self.chart = chart
        self.components = _check_components(chart, components)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.chart is other.chart and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.chart, self.components))

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Ascending indices of the nonzero components."""
        return tuple(i for i, c in enumerate(self.components) if not c.is_zero())

    def is_zero(self) -> bool:
        return not self.support


class VectorField(_Field):
    @cached_property
    def directions(self) -> frozenset[str]:
        names = self.chart.coordinates
        return frozenset(names[i] for i in self.support)

    @cached_property
    def symbols(self) -> frozenset[str]:
        return frozenset().union(*(self.components[i]._symbol_set() for i in self.support))

    def _derivation(self) -> tuple[Chain, int, Optional[Poly]]:
        """The chain rule of the field as a derivation, cleared to integers:
        (chain, den, scale) with v = v~ / (den * scale), where scale is the
        lcm of the component denominators (None when every component is a
        polynomial) and den that of the coefficient denominators of v~.
        chain sends x_j to v~_j and, for each trig pair the chart has on
        x_j, sin x_j to cos x_j * v~_j and cos x_j to -sin x_j * v~_j, all
        at offset 0.

        Kept until the chart registers another trig pair: charts only add
        pairs, and each new one adds two generators the chain must route.
        """
        chart = self.chart
        pairs = len(chart.sin_to_cos())
        memo = self.__dict__.get("_chain_memo")
        if memo is not None and memo[0] == pairs:
            return memo[1]
        comps = [self.components[j] for j in self.support]
        scale = None
        for c in comps:
            if not p_is_const(c.den):
                scale = c.den if scale is None else p_lcm(scale, c.den)
        cleared = [
            p_clear(c.num if scale is None else p_mul(c.num, p_div_exact(scale, c.den)))
            for c in comps
        ]
        den = math.lcm(*(d for _, d in cleared))
        rule = chain(chart, {
            j: (0, num if d == den else p_scale(num, den // d))
            for j, (num, d) in zip(self.support, cleared)
        })
        self.__dict__["_chain_memo"] = (pairs, (rule, den, scale))
        return rule, den, scale

    @cached_property
    def _bracket_memo(self) -> dict["VectorField", "VectorField"]:
        """w -> [self, w], keyed by the value of w; see `lie_bracket`."""
        return {}

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.chart is not self.chart:
            raise ChartMismatchError("vector fields on different charts")
        return VectorField(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def scale(self, factor: Expr) -> "VectorField":
        return VectorField(self.chart, tuple(factor * c for c in self.components))


class CovectorField(_Field):
    def render(self) -> str:
        parts = []
        for name, c in zip(self.chart.coordinates, self.components):
            if not c.is_zero():
                r = c.render()
                parts.append(f"d{name}" if r == "1" else f"({r})*d{name}")
        return " + ".join(parts) if parts else "0"


def zero_field(chart: Chart) -> VectorField:
    """The chart's zero vector field, one object per chart."""
    return chart.zero_field


def pair(omega: CovectorField, v: VectorField) -> Expr:
    """The pointwise pairing <omega, v>."""
    if omega.chart is not v.chart:
        raise ChartMismatchError("pairing across charts")
    total = omega.chart.zero
    for i in omega.support:
        if i in v.support:
            total = total + omega.components[i] * v.components[i]
    return total


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]^i = L_v w^i - L_w v^i.

    For polynomial fields both derivatives go into one `p_derive` dict,
    circle-reduced once; otherwise each is a canonical `derive` output."""
    if v.chart is not w.chart:
        raise ChartMismatchError("bracket across charts")
    chart = v.chart
    if v.directions.isdisjoint(w.symbols) and w.directions.isdisjoint(v.symbols):
        return zero_field(chart)  # every derivative below would be zero
    memo = v._bracket_memo
    hit = memo.get(w)
    if hit is not None:
        return hit
    out = [chart.zero] * chart.dim
    cv, dv, sv = v._derivation()
    cw, dw, sw = w._derivation()
    union = sorted(set(v.support) | set(w.support))
    if sv is None and sw is None:
        terms = [(i, w.components[i].num, cv, dv) for i in w.support]
        terms += [(i, v.components[i].num, cw, -dw) for i in v.support]
        for i, num in p_derive(terms).items():
            num = chart.reduce(num)
            if num:
                out[i] = chart.poly(num)
    else:
        zero = chart.zero
        for i in union:
            vi, wi = v.components[i], w.components[i]
            out[i] = derive(wi, cv, dv, sv).get(0, zero) - derive(vi, cw, dw, sw).get(0, zero)
    bracket = VectorField(chart, tuple(out))
    # the loops write only entries in the union; fill the support cache
    bracket.__dict__["support"] = tuple(i for i in union if not out[i].is_zero())
    memo[w] = bracket
    return bracket


def lie_derivative(h: Expr, v: VectorField) -> Expr:
    """The Lie derivative L_v h of a function along a field."""
    if h.chart is not v.chart:
        raise ChartMismatchError("derivative across charts")
    if v.directions.isdisjoint(h._symbol_set()):
        return h.chart.zero  # h does not depend on any direction of v
    return derive(h, *v._derivation()).get(0, h.chart.zero)


def differential(h: Expr) -> CovectorField:
    """dh up to den(h)^2; callers read only the line it spans.

    One derivation whose chain sends each generator on coordinate j to
    slot j.  A polynomial h gives dh itself.  For h = n/d the components
    are the polynomials d * dn_j - n * dd_j of `expr.quotient_rule`, each
    circle-reduced and built by `Chart.poly`: the covector d^2 * dh, which
    spans the same line as dh, with no gcd taken."""
    chart, dim = h.chart, h.chart.dim
    one = p_const(1)
    indices = sorted(chart.index(name) for name in h._symbol_set())
    coords = {j: (j, one) for j in indices if j < dim}
    if p_is_const(h.den):
        parts = derive(h, chain(chart, coords))
    else:
        parts = {}
        for j, p in quotient_rule(h, chain(chart, coords)).items():
            p = chart.reduce(p)
            if p:
                parts[j] = chart.poly(p)
    comps = [chart.zero] * dim
    for j, d in parts.items():
        comps[j] = d
    dh = CovectorField(chart, comps)
    dh.__dict__["support"] = tuple(sorted(parts))  # the nonzero outputs
    return dh


def transfer_field(v: VectorField, target: Chart) -> VectorField:
    """Move a field to a chart whose coordinates extend the source's, with
    one generator map for all its components (`expr.transfer_all`).

    New coordinates receive zero components.
    """
    pos = {name: i for i, name in enumerate(v.chart.coordinates)}
    kept = [name for name in target.coordinates if name in pos]
    moved = dict(zip(kept, transfer_all([v.components[pos[n]] for n in kept], target)))
    return VectorField(target, tuple(moved.get(n, target.zero) for n in target.coordinates))


def fields_matrix(fields: Iterable[_Field]) -> list[list[Expr]]:
    """One row of components per vector or covector field."""
    return [list(f.components) for f in fields]
