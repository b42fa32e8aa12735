"""Distributions, codistributions, and the invariant operations on them.

A distribution (a span of vector fields) and a codistribution (a span of
covector fields) share one core.  It drops zero generators, takes the greedy
basis and the rank from the shared `RankEngine`, builds the exact dual span
(annihilator or coannihilator) from one nullspace, cross-checks the sampled
rank against it, and decides membership by pairing with that dual.  The two
classes add only their own parts: brackets and involutivity, or integrability.

A dual's basis is its nullspace, whose solutions are independent, so only
source spans are sampled.  A dual's dual is its source: the annihilator of D
records D as its coannihilator and the coannihilator of Q records Q as its
annihilator, so going back costs no nullspace and reuses the source's cache.
Membership, involutivity and integrability verdicts go through exact
pairings, so no certificate ever rests on sampling alone, with two exact
shortcuts.  Both rest on one fact: a sampled rank is a proven lower bound,
since a nonzero modular minor means a nonzero generic minor.

- A coordinate span.  When the rank equals the number of columns the
  generators touch (the union of their supports), the span is span{d/dx_c}
  or span{dx_c} over those columns, which is involutive and integrable.
  That rank is then exact, the touched columns being an upper bound.  Its
  dual is spanned by the units of the untouched columns, which `_dual_span`
  writes down with no elimination: they are the vectors `right_nullspace`
  returns for columns that are zero in every row, and the block of touched
  columns, of full column rank, adds none.
- A rank rise, which proves "no".  When every generator of a span without
  a dual is in its basis, the sampled rank r is exact, the generator count
  being an upper bound.  If the rank of the basis plus some candidates
  (the basis brackets for `is_involutive`, the other span's generators for
  `contains`) exceeds r at one point, the chart's first shared point
  (`RankEngine.lower_bound`), a candidate lies outside the span: not
  involutive, or not contained, with no exact dual built.  One point
  suffices, since only a rise is read and a modular rank never exceeds
  the generic one; a rise the point misses is "not proven" and goes to
  the dual.  "Yes" still needs the exact pairing.  So does a span with a
  dependent generator, whose sampled rank may be too low: A = [t*e1]
  sampled at t = 0 has rank 0, and e1 then rises although it lies in A.
  A span that has its dual already (a dual span always does) skips the
  test.

An engine that under-reports misses a shortcut and meets the dual's
cross-check instead.

The part of a codistribution in span{dx} (`intersect_with_coordinates`) is
an ordinary span of unnormalized, possibly dependent combinations: its
sampled rank becomes exact once `is_integrable` has answered, by the
coordinate-span certificate or by building the coannihilator.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import (
    ChartMismatchError,
    NotIntegrableError,
    RankDisagreementError,
    ZeroDenominatorError,
)
from .expr import (
    Chart,
    Expr,
    antiderivative,
    at_zero,
    differentiate,
    strip_coordinate_constant,
)
from .fields import (
    CovectorField,
    VectorField,
    differential,
    fields_matrix,
    lie_bracket,
    pair,
)
from .linalg import (
    RankEngine,
    combine_rows,
    echelon,
    exact_independent_rows,
    left_nullspace,
    normalize_vector,
    right_nullspace,
    unit_vector,
)


class _Span:
    """The core shared by `Distribution` and `Codistribution`: nonzero
    generators on one chart, their greedy basis and rank, and the exact dual
    span, built once, that cross-checks the rank and decides membership."""

    _element: type  # VectorField or CovectorField
    _dual_kind: type  # the span class of the dual, bound below both classes

    def __init__(self, chart: Chart, generators: Sequence, engine: RankEngine) -> None:
        for g in generators:
            if g.chart is not chart:
                raise ChartMismatchError("generator on a different chart")
        self.chart = chart
        self.engine = engine
        self._generators = tuple(g for g in generators if not g.is_zero())
        self._basis: Optional[tuple] = None
        self._dual: Optional[_Span] = None

    @property
    def rank(self) -> int:
        return len(self.basis())

    def is_empty(self) -> bool:
        return not self._generators

    def basis(self) -> tuple:
        """The greedy subset of the generators realizing the rank."""
        if self._basis is None:
            rows = fields_matrix(self._generators)
            picked = self.engine.independent_rows(rows, self.chart)
            self._basis = tuple(self._generators[i] for i in picked)
        return self._basis

    def _touched_columns(self) -> set[int]:
        """The union of the generators' supports."""
        return set().union(*(g.support for g in self._generators))

    def _is_coordinate_span(self) -> bool:
        """The rank reaches the number of touched columns, so the span is the
        coordinate span over them (see the module docstring)."""
        return self.rank == len(self._touched_columns())

    def _dual_span(self) -> "_Span":
        """The exact dual span, whose rank cross-checks the sampled one; a
        coordinate span's dual is the units of its untouched columns."""
        if self._dual is None:
            chart = self.chart
            if self._is_coordinate_span():
                # the rank is exact, so no elimination: these are the unit
                # solutions `right_nullspace` gives its dead columns
                touched = self._touched_columns()
                sols = [
                    unit_vector(chart, chart.dim, c) for c in range(chart.dim) if c not in touched
                ]
            else:
                sols = right_nullspace(fields_matrix(self._generators), chart, ncols=chart.dim)
                exact = chart.dim - len(sols)
                if exact != self.rank:
                    raise RankDisagreementError(
                        f"sampled rank {self.rank} != exact rank {exact}"
                    )
            kind = self._dual_kind
            dual = kind(chart, [kind._element(chart, tuple(s)) for s in sols], self.engine)
            # independent: each solution alone is nonzero in its free column
            dual._basis, dual._dual = dual._generators, self
            self._dual = dual
        return self._dual

    def _rank_rises(self, candidates: Sequence) -> bool:
        """True when one point proves that some candidate lies outside the
        span (a rank rise, see the module docstring); False means "not
        proven", never "inside"."""
        if self._dual is not None:
            return False
        basis = self.basis()
        extra = [x for x in candidates if not x.is_zero()]
        if not extra or len(basis) < len(self._generators) or len(basis) == self.chart.dim:
            return False
        rows = fields_matrix(basis + tuple(extra))
        return self.engine.lower_bound(rows, self.chart) > len(basis)

    def _contains(self, x) -> bool:
        """Exact membership: x pairs to zero with every generator of the dual."""
        return x.is_zero() or all(
            self._pair(x, y).is_zero() for y in self._dual_span()._generators
        )

    def contains(self, other: "_Span") -> bool:
        return not self._rank_rises(other._generators) and all(
            self._contains(x) for x in other._generators
        )

    def span_equal(self, other: "_Span") -> bool:
        return self.contains(other) and other.contains(self)


class Distribution(_Span):
    """A span of vector fields; its dual is the annihilator."""

    _element = VectorField

    def __init__(
        self,
        chart: Chart,
        fields: Sequence[VectorField],
        engine: RankEngine,
    ) -> None:
        super().__init__(chart, fields, engine)
        self._brackets: Optional[tuple[VectorField, ...]] = None
        self._involutive: Optional[bool] = None
        self._cauchy: Optional[Distribution] = None

    @property
    def fields(self) -> tuple[VectorField, ...]:
        return self._generators

    def basis(self) -> tuple[VectorField, ...]:
        """The greedy subset of the fields realizing the rank."""
        # defined on this class too: flatbench/tracer.py times it by this name
        return super().basis()

    def annihilator(self) -> "Codistribution":
        """Exact annihilating codistribution; cross-checks the sampled rank."""
        return self._dual_span()

    @staticmethod
    def _pair(v: VectorField, w: CovectorField) -> Expr:
        return pair(w, v)

    def contains_field(self, v: VectorField) -> bool:
        """Exact membership test via the annihilator pairing."""
        return self._contains(v)

    def _basis_brackets(self) -> tuple[VectorField, ...]:
        """[b_i, b_j] for i < j over the basis, row by row, computed once per
        span: the involutivity test, `derived_step` and the Cauchy
        characteristic all read this tuple."""
        if self._brackets is None:
            b = self.basis()
            self._brackets = tuple(
                lie_bracket(b[i], b[j]) for i in range(len(b)) for j in range(i + 1, len(b))
            )
        return self._brackets

    def is_involutive(self) -> bool:
        if self._involutive is None:
            self._involutive = self._is_coordinate_span() or (
                not self._rank_rises(self._basis_brackets())
                and all(self.contains_field(br) for br in self._basis_brackets())
            )
        return self._involutive


class Codistribution(_Span):
    """A span of covector fields (a Pfaffian system); its dual is the
    coannihilator."""

    _element = CovectorField
    _pair = staticmethod(pair)

    @property
    def covectors(self) -> tuple[CovectorField, ...]:
        return self._generators

    def coannihilator(self) -> Distribution:
        """Exact distribution of fields annihilated by every covector."""
        return self._dual_span()

    def contains_covector(self, w: CovectorField) -> bool:
        return self._contains(w)

    def is_integrable(self) -> bool:
        """Frobenius: integrable iff the coannihilator is involutive; a
        coordinate span is integrable without it."""
        return self._is_coordinate_span() or self.coannihilator().is_involutive()


Distribution._dual_kind = Codistribution
Codistribution._dual_kind = Distribution


def span(chart: Chart, fields: Sequence[VectorField], engine: RankEngine) -> Distribution:
    return Distribution(chart, fields, engine)


def sum_spans(a: Distribution, extra: Sequence[VectorField]) -> Distribution:
    return Distribution(a.chart, tuple(a.fields) + tuple(extra), a.engine)


def derived_step(d: Distribution) -> Distribution:
    """D + [D, D], computed from a basis of D."""
    return sum_spans(d, [b for b in d._basis_brackets() if not b.is_zero()])


def involutive_closure(d: Distribution) -> Distribution:
    """Smallest involutive distribution containing d."""
    cur = d
    while not cur.is_involutive():
        nxt = derived_step(cur)
        if nxt.rank == cur.rank:
            # contains_field said no while the rank stalled: sampling lied.
            raise RankDisagreementError("closure stalled below involutivity")
        cur = nxt
    return cur


def cauchy_characteristic(d: Distribution) -> Distribution:
    """C(D) = {v in D : [v, D] subset D}, exact over the function field, and
    computed once per distribution.

    An involutive D, the tangent space among them, is its own characteristic.
    Otherwise, with basis fields v_a and annihilator covectors w_k, the
    combination sum_a alpha_a v_a lies in C(D) iff
    sum_a alpha_a <w_k, [v_a, v_b]> = 0 for all k, b — a linear system over
    the rational-function field, built from the brackets that the
    involutivity test already took.
    """
    if d._cauchy is not None:
        return d._cauchy
    if d.is_empty() or not d.annihilator().covectors or d.is_involutive():
        d._cauchy = d
        return d
    chart, basis, ann = d.chart, d.basis(), d.annihilator().covectors
    r = len(basis)
    # <w_k, [v_a, v_b]> is paired once, for a < b; the pairing is linear
    # and canonical forms are unique, so b < a takes its negation
    paired: dict[tuple[int, int, int], Expr] = {}
    pending = iter(d._basis_brackets())
    for a in range(r):
        for b in range(a + 1, r):
            bracket = next(pending)
            for k, w in enumerate(ann):
                paired[k, a, b] = p = pair(w, bracket)
                paired[k, b, a] = -p
    rows = [
        [chart.zero if a == b else paired[k, a, b] for a in range(r)]
        for b in range(r)
        for k in range(len(ann))
    ]
    fields = []
    for alpha in right_nullspace(rows, chart, ncols=r):
        comps = combine_rows(alpha, [b.components for b in basis], chart)
        fields.append(VectorField(chart, tuple(normalize_vector(comps, chart))))
    d._cauchy = Distribution(chart, fields, d.engine)
    return d._cauchy


def intersect(a: Distribution, b: Distribution) -> Distribution:
    """D_a intersect D_b = (ann(D_a) + ann(D_b))^perp."""
    if a.chart is not b.chart:
        raise ChartMismatchError("intersection across charts")
    stacked = list(a.annihilator().covectors) + list(b.annihilator().covectors)
    q = Codistribution(a.chart, stacked, a.engine)
    return q.coannihilator()


def intersect_with_coordinates(
    q: Codistribution, names: Sequence[str]
) -> Codistribution:
    """The part of span{q} expressible with the named differentials only.

    A combination of the spanning covectors lies in span{d(names)} iff it
    kills the complementary columns, i.e. it is a left-null combination of
    the outside-column block.  The result is an ordinary span of those
    combinations, unnormalized and possibly dependent; its rank is sampled,
    and becomes exact once `is_integrable` has answered.
    """
    chart = q.chart
    keep = set(names)
    out_cols = [i for i, c in enumerate(chart.coordinates) if c not in keep]
    rows = fields_matrix(q.covectors)
    combos = left_nullspace([[row[j] for j in out_cols] for row in rows], chart)
    parts = [CovectorField(chart, tuple(combine_rows(c, rows, chart))) for c in combos]
    return Codistribution(chart, parts, q.engine)


class FirstIntegralsResult(NamedTuple):
    functions: list[Expr]
    rank: int

    @property
    def shortfall(self) -> int:
        return self.rank - len(self.functions)

    def complete(self) -> bool:
        return self.shortfall == 0


def first_integrals(q: Codistribution) -> FirstIntegralsResult:
    """Closed-form functions whose differentials span an integrable system.

    Works row by row on an echelonized basis; each row is integrated modulo
    the coordinates already pivoted by earlier rows (those are frozen, i.e.
    treated as constants).  Rows whose coefficients fall outside the built-in
    antiderivative class are reported as shortfall rather than guessed at.
    """
    if q.is_empty():
        return FirstIntegralsResult([], 0)
    if not q.is_integrable():
        raise NotIntegrableError("codistribution fails the Frobenius test")
    chart = q.chart
    res = echelon(fields_matrix(q.covectors), chart)
    funcs: list[Expr] = []
    diffs: list[list[Expr]] = []
    frozen: set[str] = set()
    for row, col in zip(res.rows, res.pivot_cols):
        h = _integrate_row(chart, normalize_vector(row, chart), frozen)
        if h is not None:
            dh = differential(h)
            if not dh.is_zero() and q.contains_covector(dh):
                funcs.append(strip_coordinate_constant(h))
                diffs.append(list(dh.components))
        frozen.add(chart.coordinates[col])
    # Differentials of the found functions must stay independent.
    kept = exact_independent_rows(diffs, chart)
    return FirstIntegralsResult([funcs[i] for i in kept], q.rank)


def _integrate_row(
    chart: Chart, w: Sequence[Expr], frozen: set[str]
) -> Optional[Expr]:
    active = [
        (i, name)
        for i, name in enumerate(chart.coordinates)
        if name not in frozen and not w[i].is_zero()
    ]
    if not active:
        return None
    if len(active) == 1:
        i, name = active[0]
        if w[i].is_constant():
            return chart.sym(name)
    # Exactness on the active block (frozen coordinates ride along).
    for a in range(len(active)):
        ia, na = active[a]
        for b in range(a + 1, len(active)):
            ib, nb = active[b]
            lhs = differentiate(w[ia], nb)
            rhs = differentiate(w[ib], na)
            if not (lhs - rhs).is_zero():
                return None
    h = chart.zero
    names = [name for _, name in active]
    try:
        for pos, (i, name) in enumerate(active):
            integrand = at_zero(w[i], names[pos + 1:])
            if integrand.is_zero():
                continue
            prim = antiderivative(integrand, name)
            if prim is None:
                return None
            h = h + prim - at_zero(prim, (name,))
    except ZeroDenominatorError:
        # Freezing later coordinates at zero can land on a pole of the
        # integrand: path integration from the origin is undefined there.
        return None
    return h if not h.is_zero() else None
