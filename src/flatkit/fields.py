"""Vector fields, covector fields, and Lie operations on a chart.

Components are indexed by the chart's coordinates; parameters never carry
components and are treated as constants by every derivative.
Each field's support, its nonzero components, is computed once; a
bracket's support is read off the only entries its loops can write.
A vector field also keeps its directions (the coordinates of its support)
and its symbols (those its components depend on).  When neither of v, w
moves along a symbol of the other, every derivative in [v, w] is zero, so
the bracket is zero with no derivative taken.

Every other bracket is memoized on v, keyed by the identity of w, so a
question takes each [v, w] once and a repeat returns the same field.  The
memo holds w beside the bracket, so no id it is keyed by can be reused
while the entry lives; it lives as long as v does, and keys by identity
because hashing a field would hash every component.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .errors import ChartMismatchError
from .expr import Chart, Expr, differentiate, transfer


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

    @cached_property
    def _bracket_memo(self) -> dict[int, tuple["VectorField", "VectorField"]]:
        """id(w) -> (w, [self, w]); see `lie_bracket`."""
        return {}

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.chart is not self.chart:
            raise ChartMismatchError("vector fields on different charts")
        return VectorField(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-c for c in self.components))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, factor: Expr) -> "VectorField":
        return VectorField(self.chart, tuple(factor * c for c in self.components))

    def render(self) -> str:
        parts = []
        for name, c in zip(self.chart.coordinates, self.components):
            if not c.is_zero():
                parts.append(f"({c.render()})*d/d{name}")
        return " + ".join(parts) if parts else "0"


class CovectorField(_Field):
    def render(self) -> str:
        parts = []
        for name, c in zip(self.chart.coordinates, self.components):
            if not c.is_zero():
                r = c.render()
                parts.append(f"d{name}" if r == "1" else f"({r})*d{name}")
        return " + ".join(parts) if parts else "0"


def zero_field(chart: Chart) -> VectorField:
    return VectorField(chart, tuple(chart.zero for _ in chart.coordinates))


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
    """[v, w]^i = v^j d_j w^i - w^j d_j v^i."""
    if v.chart is not w.chart:
        raise ChartMismatchError("bracket across charts")
    chart = v.chart
    if v.directions.isdisjoint(w.symbols) and w.directions.isdisjoint(v.symbols):
        return zero_field(chart)  # every derivative below would be zero
    hit = v._bracket_memo.get(id(w))
    if hit is not None:
        return hit[1]
    names = chart.coordinates
    out = [chart.zero] * chart.dim
    supp_v = {i: v.components[i] for i in v.support}
    supp_w = {i: w.components[i] for i in w.support}
    # j ascending, as in the dense double loop, so every derivative (and any
    # generator it registers) comes in the same order
    union = sorted(supp_v.keys() | supp_w.keys())
    for j in union:
        name_j = names[j]
        vj = supp_v.get(j)
        if vj is not None:
            for i, wi in supp_w.items():
                d = differentiate(wi, name_j)
                if not d.is_zero():
                    out[i] = out[i] + vj * d
        wj = supp_w.get(j)
        if wj is not None:
            for i, vi in supp_v.items():
                d = differentiate(vi, name_j)
                if not d.is_zero():
                    out[i] = out[i] - wj * d
    bracket = VectorField(chart, tuple(out))
    # the loops write only entries in the union; fill the support cache
    bracket.__dict__["support"] = tuple(i for i in union if not out[i].is_zero())
    v._bracket_memo[id(w)] = (w, bracket)
    return bracket


def lie_derivative(h: Expr, v: VectorField) -> Expr:
    """The Lie derivative L_v h of a function along a field."""
    if h.chart is not v.chart:
        raise ChartMismatchError("derivative across charts")
    total = v.chart.zero
    for j in v.support:
        d = differentiate(h, v.chart.coordinates[j])
        if not d.is_zero():
            total = total + v.components[j] * d
    return total


def differential(h: Expr) -> CovectorField:
    """The coordinate differential dh of a function."""
    chart = h.chart
    return CovectorField(
        chart, tuple(differentiate(h, name) for name in chart.coordinates)
    )


def transfer_field(v: VectorField, target: Chart) -> VectorField:
    """Move a field to a chart whose coordinates extend the source's.

    New coordinates receive zero components.
    """
    pos = {name: i for i, name in enumerate(v.chart.coordinates)}
    comps = []
    for name in target.coordinates:
        i = pos.get(name)
        comps.append(target.zero if i is None else transfer(v.components[i], target))
    return VectorField(target, tuple(comps))


def fields_matrix(fields: Iterable[_Field]) -> list[list[Expr]]:
    """One row of components per vector or covector field."""
    return [list(f.components) for f in fields]
