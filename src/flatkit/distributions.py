"""Distributions, codistributions, and the invariant operations on them.

Ranks of spans are decided by the shared `RankEngine`; membership,
involutivity, and integrability verdicts always go through exact annihilator
pairings so no certificate ever rests on sampling alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    differentiate,
    strip_coordinate_constant,
    substitute,
)
from .fields import (
    CovectorField,
    VectorField,
    covectors_matrix,
    differential,
    fields_matrix,
    lie_bracket,
    pair,
)
from .linalg import (
    RankEngine,
    echelon,
    left_nullspace,
    normalize_vector,
    right_nullspace,
)


class Distribution:
    """A span of vector fields with cached rank and exact annihilator."""

    def __init__(
        self,
        chart: Chart,
        fields: Sequence[VectorField],
        engine: RankEngine,
    ) -> None:
        for f in fields:
            if f.chart is not chart:
                raise ChartMismatchError("field on a different chart")
        self.chart = chart
        self.fields = tuple(f for f in fields if not f.is_zero())
        self.engine = engine
        self._rank: Optional[int] = None
        self._annihilator: Optional["Codistribution"] = None
        self._basis: Optional[tuple[VectorField, ...]] = None
        self._involutive: Optional[bool] = None
        self._brackets: Optional[list[VectorField]] = None

    @property
    def rank(self) -> int:
        if self._rank is None:
            self.basis()
        return self._rank

    @property
    def corank(self) -> int:
        return self.chart.dim - self.rank

    def is_empty(self) -> bool:
        return not self.fields

    def basis(self) -> tuple[VectorField, ...]:
        """The greedy subset of the generators realizing the rank."""
        if self._basis is None:
            picked = self.engine.independent_rows(fields_matrix(self.fields), self.chart)
            if self._rank is None:
                self._rank = len(picked)
            elif self._rank != len(picked):
                raise RankDisagreementError(
                    f"sampled rank {len(picked)} != exact rank {self._rank}"
                )
            self._basis = tuple(self.fields[i] for i in picked)
        return self._basis

    def annihilator(self) -> "Codistribution":
        """Exact annihilating codistribution; cross-checks the sampled rank."""
        if self._annihilator is None:
            if not self.fields:
                covs = [
                    CovectorField(self.chart, tuple(row))
                    for row in right_nullspace([], self.chart, ncols=self.chart.dim)
                ]
            else:
                rows = right_nullspace(fields_matrix(self.fields), self.chart)
                covs = [CovectorField(self.chart, tuple(r)) for r in rows]
            exact = self.chart.dim - len(covs)
            if exact != self.rank:
                raise RankDisagreementError(
                    f"sampled rank {self.rank} != exact rank {exact}"
                )
            self._annihilator = Codistribution(
                self.chart, covs, self.engine, _rank=len(covs)
            )
        return self._annihilator

    def contains_field(self, v: VectorField) -> bool:
        """Exact membership test via the annihilator pairing."""
        if v.is_zero():
            return True
        return all(pair(w, v).is_zero() for w in self.annihilator().covectors)

    def contains(self, other: "Distribution") -> bool:
        return all(self.contains_field(f) for f in other.fields)

    def _basis_brackets(self) -> list[VectorField]:
        if self._brackets is None:
            b = self.basis()
            self._brackets = [
                lie_bracket(b[i], b[j])
                for i in range(len(b))
                for j in range(i + 1, len(b))
            ]
        return self._brackets

    def is_involutive(self) -> bool:
        if self._involutive is None:
            self._involutive = all(
                self.contains_field(br) for br in self._basis_brackets()
            )
        return self._involutive

    def span_equal(self, other: "Distribution") -> bool:
        return self.contains(other) and other.contains(self)


def span(chart: Chart, fields: Sequence[VectorField], engine: RankEngine) -> Distribution:
    return Distribution(chart, fields, engine)


def generic_rank(
    items: Sequence[VectorField | CovectorField], chart: Chart, engine: RankEngine
) -> int:
    """Generic rank of a family of vector fields or covector fields."""
    if not items:
        return 0
    rows = [list(it.components) for it in items]
    return engine.rank(rows, chart)


def sum_spans(a: Distribution, extra: Sequence[VectorField]) -> Distribution:
    return Distribution(a.chart, tuple(a.fields) + tuple(extra), a.engine)


def derived_step(d: Distribution) -> Distribution:
    """D + [D, D], computed from a basis of D."""
    return sum_spans(d, [b for b in d._basis_brackets() if not b.is_zero()])


def derived_flag(d: Distribution, max_steps: Optional[int] = None) -> list[Distribution]:
    """D = D_0 subset D_1 subset ... until the rank stalls."""
    flag = [d]
    steps = 0
    while max_steps is None or steps < max_steps:
        nxt = derived_step(flag[-1])
        if nxt.rank == flag[-1].rank:
            break
        flag.append(nxt)
        steps += 1
    return flag

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
    """C(D) = {v in D : [v, D] subset D}, exact over the function field.

    With basis fields v_a and annihilator covectors w_k, the combination
    sum_a alpha_a v_a lies in C(D) iff sum_a alpha_a <w_k, [v_a, v_b]> = 0
    for all k, b — a linear system over the rational-function field.
    """
    basis = d.basis()
    r = len(basis)
    if r == 0:
        return Distribution(d.chart, (), d.engine)
    ann = d.annihilator().covectors
    if not ann:
        return d  # the full tangent space is its own characteristic
    if d.is_involutive():
        return d
    table = [[None] * r for _ in range(r)]
    rows: list[list[Expr]] = []
    for b in range(r):
        for w in ann:
            row = []
            for a in range(r):
                if a == b:
                    row.append(d.chart.zero)
                    continue
                br = table[a][b]
                if br is None:
                    if table[b][a] is not None:
                        br = -table[b][a]
                    else:
                        br = lie_bracket(basis[a], basis[b])
                    table[a][b] = br
                row.append(pair(w, br))
            rows.append(row)
    sols = right_nullspace(rows, d.chart, ncols=r)
    fields = []
    for alpha in sols:
        comps = [d.chart.zero] * d.chart.dim
        for a in range(r):
            if not alpha[a].is_zero():
                for i in range(d.chart.dim):
                    c = basis[a].components[i]
                    if not c.is_zero():
                        comps[i] = comps[i] + alpha[a] * c
        comps = normalize_vector(comps, d.chart)
        fields.append(VectorField(d.chart, tuple(comps)))
    return Distribution(d.chart, fields, d.engine)


def intersect(a: Distribution, b: Distribution) -> Distribution:
    """D_a intersect D_b = (ann(D_a) + ann(D_b))^perp."""
    if a.chart is not b.chart:
        raise ChartMismatchError("intersection across charts")
    stacked = list(a.annihilator().covectors) + list(b.annihilator().covectors)
    q = Codistribution(a.chart, stacked, a.engine)
    return q.coannihilator()


class Codistribution:
    """A span of covector fields (a Pfaffian system)."""

    def __init__(
        self,
        chart: Chart,
        covectors: Sequence[CovectorField],
        engine: RankEngine,
        _rank: Optional[int] = None,
    ) -> None:
        for w in covectors:
            if w.chart is not chart:
                raise ChartMismatchError("covector on a different chart")
        self.chart = chart
        self.covectors = tuple(w for w in covectors if not w.is_zero())
        self.engine = engine
        self._rank = _rank
        self._coann: Optional[Distribution] = None

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.engine.rank(
                covectors_matrix(self.covectors), self.chart
            )
        return self._rank

    def is_empty(self) -> bool:
        return not self.covectors

    def coannihilator(self) -> Distribution:
        """Exact distribution of fields annihilated by every covector."""
        if self._coann is None:
            if not self.covectors:
                sols = right_nullspace([], self.chart, ncols=self.chart.dim)
            else:
                sols = right_nullspace(covectors_matrix(self.covectors), self.chart)
            exact = self.chart.dim - len(sols)
            if exact != self.rank:
                raise RankDisagreementError(
                    f"sampled rank {self.rank} != exact rank {exact}"
                )
            self._coann = Distribution(
                self.chart,
                [VectorField(self.chart, tuple(s)) for s in sols],
                self.engine,
            )
            self._coann._rank = self.chart.dim - exact
        return self._coann

    def contains_covector(self, w: CovectorField) -> bool:
        if w.is_zero():
            return True
        return all(pair(w, v).is_zero() for v in self.coannihilator().fields)

    def contains(self, other: "Codistribution") -> bool:
        return all(self.contains_covector(w) for w in other.covectors)

    def span_equal(self, other: "Codistribution") -> bool:
        return self.contains(other) and other.contains(self)

    def is_integrable(self) -> bool:
        """Frobenius: integrable iff the coannihilator is involutive."""
        if self.is_empty():
            return True
        return self.coannihilator().is_involutive()

    def reduced_basis(self) -> list[CovectorField]:
        """Echelonized, normalized spanning covectors (exact)."""
        if not self.covectors:
            return []
        res = echelon(covectors_matrix(self.covectors), self.chart)
        out = []
        for k in range(res.rank):
            out.append(
                CovectorField(
                    self.chart, tuple(normalize_vector(res.rows[k], self.chart))
                )
            )
        return out


def intersect_with_coordinates(
    q: Codistribution, names: Sequence[str]
) -> Codistribution:
    """The part of span{q} expressible with the named differentials only.

    A combination of the spanning covectors lies in span{d(names)} iff it
    kills the complementary columns, i.e. it is a left-null combination of
    the outside-column block.
    """
    chart = q.chart
    keep = set(names)
    out_cols = [i for i, c in enumerate(chart.coordinates) if c not in keep]
    rows = covectors_matrix(q.covectors)
    if not rows:
        return Codistribution(chart, (), q.engine)
    combos = left_nullspace([[row[j] for j in out_cols] for row in rows], chart)
    covs: list[CovectorField] = []
    mat: list[list[Expr]] = []
    for c in combos:
        comp = [chart.zero] * chart.dim
        for i, coef in enumerate(c):
            if coef.is_zero():
                continue
            for j in range(chart.dim):
                e = rows[i][j]
                if not e.is_zero():
                    comp[j] = comp[j] + coef * e
        w = CovectorField(chart, tuple(normalize_vector(comp, chart)))
        if w.is_zero():
            continue
        mat.append(list(w.components))
        if len(mat) > 1 and echelon(mat, chart).rank < len(mat):
            mat.pop()
            continue
        covs.append(w)
    return Codistribution(chart, covs, q.engine, _rank=len(covs))


@dataclass
class FirstIntegralsResult:
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
    rows = q.reduced_basis()
    coann = q.coannihilator().fields
    funcs: list[Expr] = []
    frozen: set[str] = set()
    res = echelon(covectors_matrix(q.covectors), chart)
    for k, w in enumerate(rows):
        h = _integrate_row(chart, w, frozen)
        if h is not None:
            dh = differential(h)
            if all(pair(dh, v).is_zero() for v in coann) and not dh.is_zero():
                funcs.append(strip_coordinate_constant(h))
        frozen.add(chart.coordinates[res.pivot_cols[k]])
    # Differentials of the found functions must stay independent.
    kept: list[Expr] = []
    mat: list[list[Expr]] = []
    for h in funcs:
        mat.append(list(differential(h).components))
        if echelon(mat, chart).rank < len(mat):
            mat.pop()
            continue
        kept.append(h)
    return FirstIntegralsResult(kept, q.rank)


def _integrate_row(
    chart: Chart, w: CovectorField, frozen: set[str]
) -> Optional[Expr]:
    active = [
        (i, name)
        for i, name in enumerate(chart.coordinates)
        if name not in frozen and not w.components[i].is_zero()
    ]
    if not active:
        return None
    if len(active) == 1:
        i, name = active[0]
        if w.components[i].is_constant():
            return chart.sym(name)
    # Exactness on the active block (frozen coordinates ride along).
    for a in range(len(active)):
        ia, na = active[a]
        for b in range(a + 1, len(active)):
            ib, nb = active[b]
            lhs = differentiate(w.components[ia], nb)
            rhs = differentiate(w.components[ib], na)
            if not (lhs - rhs).is_zero():
                return None
    h = chart.zero
    names = [name for _, name in active]
    try:
        for pos, (i, name) in enumerate(active):
            integrand = w.components[i]
            later = {n: chart.const(0) for n in names[pos + 1:]}
            if later:
                integrand = substitute(integrand, later)
            if integrand.is_zero():
                continue
            prim = antiderivative(integrand, name)
            if prim is None:
                return None
            h = h + prim - substitute(prim, {name: chart.const(0)})
    except ZeroDenominatorError:
        # Freezing later coordinates at zero can land on a pole of the
        # integrand: path integration from the origin is undefined there.
        return None
    return h if not h.is_zero() else None
