"""Feedback-invariant distribution sequences and flat-output candidates.

One driver grows a chain D_1 c D_2 c ... c T(X) from D_1 = span{g1, g2} on
the state chart.  It takes a drift bracket step on an involutive frontier
and hands a non-involutive one to a rule, the only part in which the two
procedures differ.  The basic rule takes one derived-flag step (B).  The
refined rule examines the frontier more carefully: when its Cauchy
characteristic is informative and the predecessor window satisfies the
bracket-condition lemma, the frontier is rebuilt from one selected direction
[f, v_c], branching when the quadratic membership condition has two
admissible solutions (C-i); otherwise the frontier is closed (B, C-ii, or D
with the failed precondition recorded).  Terminal data F / F-perp yield
candidate flat-output functions via first integrals.

The stacked quadratics have one path to their solutions: the last live
row's discriminant takes its root by `expr.exact_sqrt`, which is complete
on the expression field, and a root of that row is kept when every other
row vanishes there.  The candidate directions clear their denominators
with `Chart.poly`.  This module works on expressions and fields only and
imports nothing from `sympoly`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .distributions import (
    Codistribution,
    Distribution,
    cauchy_characteristic,
    derived_step,
    first_integrals,
    intersect,
    involutive_closure,
    span,
    sum_spans,
)
from .errors import CANDIDATE_ERRORS
from .expr import Chart, Expr, exact_sqrt
from .fields import VectorField, fields_matrix, lie_bracket, pair
from .system import ControlAffineSystem, FlatVerdict, output_jets, verify_flat_output

__all__ = [
    "Branch",
    "BranchTree",
    "CandidatePair",
    "LeafCandidates",
    "QuadraticForm",
    "StepRecord",
    "extract_candidates",
    "run_algorithm1",
    "run_algorithm2",
]


# --- step and branch records -----------------------------------------------------


class QuadraticForm(NamedTuple):
    """Membership residual of the candidate direction, stacked row-wise over
    the annihilator of the examined frontier: for each annihilator covector,
    q(a) = c11 a1^2 + 2 c12 a1 a2 + c22 a2^2 must vanish."""

    c11: tuple[Expr, ...]
    c12: tuple[Expr, ...]
    c22: tuple[Expr, ...]
    solutions: tuple[tuple[Expr, Expr], ...]


class StepRecord(NamedTuple):
    """One update of the sequence: the frontier examined, the case taken and
    the data that decided it.  A C-i step rebuilds the frontier
    (`replaced`), which takes the examined one's place in the branch's
    sequence; the successor is the next member there."""

    tag: str  # "A" | "B" | "C-i" | "C-ii" | "D"
    examined: Distribution
    replaced: Optional[Distribution] = None
    cauchy: Optional[Distribution] = None
    quad: Optional[QuadraticForm] = None
    vc: Optional[VectorField] = None
    violation: Optional[str] = None  # case D: the failed precondition


class Branch(NamedTuple):
    """One explored path: its final (post-replacement) sequence and records.
    `status` is "reached-tangent-space" when the last member is T(X) and
    "stalled" when a step added no rank (see `_drive`); F and F-perp are set
    on reached branches only."""

    path: tuple[int, ...]
    records: tuple[StepRecord, ...]
    sequence: tuple[Distribution, ...]
    status: str  # "reached-tangent-space" | "stalled"
    F: Optional[Distribution]
    F_perp: Optional[Codistribution]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(d.rank for d in self.sequence)

    @property
    def coranks(self) -> tuple[int, ...]:
        r = self.ranks
        return tuple(b - a for a, b in zip(r, r[1:]))

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(rec.tag for rec in self.records)


class BranchTree(NamedTuple):
    system: ControlAffineSystem
    algorithm: int
    branches: tuple[Branch, ...]

    def reached(self) -> tuple[Branch, ...]:
        return tuple(b for b in self.branches if b.status == "reached-tangent-space")


# --- shared helpers ---------------------------------------------------------------


def _drift_step(f: VectorField, d: Distribution) -> Distribution:
    return sum_spans(d, [lie_bracket(f, b) for b in d.basis()])


def _empty(chart: Chart, engine) -> Distribution:
    return span(chart, (), engine)


def _complement_pair(
    d0: Distribution, d1: Distribution
) -> tuple[VectorField, VectorField]:
    """Two generators of d1 extending a basis of d0 (d0 c d1, corank two)."""
    low, high = d0.basis(), d1.basis()
    picked = d1.engine.independent_rows(fields_matrix(low + high), d1.chart)
    v1, v2 = (high[i - len(low)] for i in picked if i >= len(low))
    return v1, v2


# --- the quadratic membership condition -------------------------------------------


def _solve_membership(
    chart: Chart,
    rows: list[tuple[Expr, Expr, Expr]],
) -> Optional[list[tuple[Expr, Expr]]]:
    """All projective solutions a = (a1, a2) of the stacked quadratics
    c11 a1^2 + 2 c12 a1 a2 + c22 a2^2 = 0, as rational functions; None when
    every quadratic vanishes identically."""
    live = [r for r in rows if not all(c.is_zero() for c in r)]
    if not live:
        return None
    # a = (1, t): the roots of the last live row c11 + 2 c12 t + c22 t^2
    # that every other row shares
    c11, c12, c22 = live[-1]
    roots: list[Expr] = []
    if not c22.is_zero():
        root = exact_sqrt(c12 * c12 - c11 * c22)
        if root is not None:
            roots = [(root - c12) / c22]
            if not root.is_zero():
                roots.append((-c12 - root) / c22)
    elif not c12.is_zero():
        roots = [-c11 / (c12 + c12)]
    solutions: list[tuple[Expr, Expr]] = []
    for t in roots:
        if all((a + (b + b + c * t) * t).is_zero() for a, b, c in live[:-1]):
            solutions.append((chart.one, t))
    # a = (0, 1) solves iff every c22 row vanishes
    if all(c22.is_zero() for _, _, c22 in live):
        solutions.append((chart.zero, chart.one))
    return solutions


def _lemma1_window(
    f: VectorField,
    d0: Distribution,
    d1: Distribution,
    d2: Distribution,
    cauchy: Distribution,
) -> Optional[str]:
    """Name of the first failed precondition of the bracket-condition lemma
    on the window d0 c d1 c d2, None when all hold.  `cauchy` is the Cauchy
    characteristic of d2.  Four preconditions are checked: corank two, d1
    involutive, d1 not inside `cauchy`, and [f, d0] inside d1.  Three hold
    by construction in `_drive` and `_refined_rule`:
      nested chain: each member contains its base, a rebuilt frontier its
        predecessor, and d0 = C(d2) ^ older lies in older c d1;
      d2 = d1 + [f, d1]: an involutive d1 is the base whose drift step made d2;
      d1 = d0 + span{v1, v2}: `_complement_pair` takes v1, v2 from d1 to
        extend a basis of d0."""
    if d1.rank - d0.rank != 2 or d2.rank - d1.rank != 2:
        return "corank-two chain d0 c d1 c d2"
    if not d1.is_involutive():
        return "d1 involutive"
    if cauchy.contains(d1):
        return "d1 not inside the Cauchy characteristic of d2"
    if not all(d1.contains_field(lie_bracket(f, b)) for b in d0.basis()):
        return "[f, d0] inside d1"
    return None


def _membership_rows(
    f: VectorField,
    d2: Distribution,
    v1: VectorField,
    v2: VectorField,
) -> list[tuple[Expr, Expr, Expr]]:
    b11 = lie_bracket(v1, lie_bracket(v1, f))
    b12 = lie_bracket(v1, lie_bracket(v2, f))
    b22 = lie_bracket(v2, lie_bracket(v2, f))
    return [
        (pair(w, b11), pair(w, b12), pair(w, b22))
        for w in d2.annihilator().covectors
    ]


def _candidate_fields(
    v1: VectorField,
    v2: VectorField,
    solutions: Sequence[tuple[Expr, Expr]],
) -> list[VectorField]:
    """v_c = a1 v1 + a2 v2, denominators cleared (v_c matters mod scaling)."""
    out: list[VectorField] = []
    for a1, a2 in solutions:
        chart = v1.chart
        # canonical denominators are sine-free, so trig-reduced
        scale = chart.poly(a1.den) * chart.poly(a2.den)
        out.append(v1.scale(a1 * scale) + v2.scale(a2 * scale))
    return out


# --- the sequence driver ----------------------------------------------------------


class _Frontier(NamedTuple):
    sequence: list[Distribution]
    records: list[StepRecord]
    path: tuple[int, ...]


def _leaf(st: _Frontier, status: str) -> Branch:
    """Close a branch.  F is the Cauchy characteristic of the member below
    T(X), which is that member itself if it is involutive, and is undefined
    off reached leaves.  By convention D_0 = 0: a chain of one member,
    span{g1, g2} = T(X), has F = 0 and F-perp = span{dx}, whose first
    integrals are the coordinates."""
    seq = tuple(st.sequence)
    F: Optional[Distribution] = None
    F_perp: Optional[Codistribution] = None
    if status == "reached-tangent-space":
        below = seq[-2] if len(seq) >= 2 else _empty(seq[0].chart, seq[0].engine)
        F = cauchy_characteristic(below)
        F_perp = F.annihilator()
    return Branch(st.path, tuple(st.records), seq, status, F, F_perp)


def _drive(
    sys: ControlAffineSystem,
    algorithm: int,
    closure: Callable[[Distribution], Distribution],
    rule: Callable[[VectorField, list[Distribution]], list[StepRecord]],
) -> BranchTree:
    """Grow D_1 = span{g1, g2} until T(X) or a stall.

    An involutive frontier takes a drift step (A).  `rule` turns a
    non-involutive one into step records, one branch each when there are
    several.  A step grows its base (the rebuilt frontier, else the
    frontier) by a drift step when the base is involutive and by `closure`
    otherwise; the branch stalls when that adds no rank or a rebuilt
    frontier is no larger than its predecessor.

    No depth cap is needed.  Both stall tests are strict, so every member a
    step appends has a sampled rank above the member before it, even when a
    sampled rank reads too low.  The ranks run from 2 to at most n, so a
    sequence has at most n - 1 members.  A branch takes one record per
    step: one fewer than its members when it reaches T(X), and one per
    member when it stalls, all of them below n.  Either way it has at most
    n - 2 records."""
    f = sys.f
    work = [_Frontier([span(sys.chart, (sys.g1, sys.g2), sys.engine)], [], ())]
    leaves: list[Branch] = []
    while work:
        st = work.pop()
        frontier = st.sequence[-1]
        if frontier.rank == sys.n:
            leaves.append(_leaf(st, "reached-tangent-space"))
            continue
        if frontier.is_involutive():
            steps = [StepRecord("A", frontier)]
        else:
            steps = rule(f, st.sequence)
        forks: list[_Frontier] = []
        for ordinal, step in enumerate(steps):
            base = frontier if step.replaced is None else step.replaced
            produced = _drift_step(f, base) if base.is_involutive() else closure(base)
            child = _Frontier(
                st.sequence[:-1] + [base],
                st.records + [step],
                st.path + (ordinal,) if len(steps) > 1 else st.path,
            )
            shrunk = step.replaced is not None and base.rank <= st.sequence[-2].rank
            if shrunk or produced.rank <= base.rank:
                leaves.append(_leaf(child, "stalled"))
                continue
            child.sequence.append(produced)
            forks.append(child)
        work.extend(reversed(forks))
    leaves.sort(key=lambda b: b.path)
    return BranchTree(sys, algorithm, tuple(leaves))


def _derived_rule(f: VectorField, sequence: list[Distribution]) -> list[StepRecord]:
    return [StepRecord("B", sequence[-1])]


def _refined_rule(f: VectorField, sequence: list[Distribution]) -> list[StepRecord]:
    """B when the Cauchy characteristic of the frontier adds nothing over
    its predecessor; otherwise the lemma window d0 c d1 c d2 with d2 the
    frontier, d1 its predecessor and d0 = C(d2) ^ (the member before d1).
    A failed window is D.  Else the stacked quadratic decides: one rebuilt
    frontier d1 + [f, v_c] per admissible v_c giving a new span (C-i), C-ii
    when none is admissible, D when it degenerates."""
    frontier = sequence[-1]
    chart, engine = frontier.chart, frontier.engine
    cauchy = cauchy_characteristic(frontier)
    predecessor = sequence[-2] if len(sequence) >= 2 else _empty(chart, engine)
    if cauchy.span_equal(predecessor):
        return [StepRecord("B", frontier, cauchy=cauchy)]
    older = sequence[-3] if len(sequence) >= 3 else _empty(chart, engine)
    if cauchy.is_empty() or older.is_empty():
        d0 = _empty(chart, engine)
    else:
        d0 = intersect(cauchy, older)
    violation = _lemma1_window(f, d0, predecessor, frontier, cauchy)
    if violation is not None:
        return [StepRecord("D", frontier, cauchy=cauchy, violation=violation)]
    v1, v2 = _complement_pair(d0, predecessor)
    rows = _membership_rows(f, frontier, v1, v2)
    solutions = _solve_membership(chart, rows)
    quad = QuadraticForm(
        tuple(r[0] for r in rows),
        tuple(r[1] for r in rows),
        tuple(r[2] for r in rows),
        tuple(solutions or ()),
    )
    if solutions is None:
        violation = "nondegenerate membership condition"
        return [StepRecord("D", frontier, cauchy=cauchy, quad=quad, violation=violation)]
    if not solutions:
        return [StepRecord("C-ii", frontier, cauchy=cauchy, quad=quad)]
    steps: list[StepRecord] = []
    for vc in _candidate_fields(v1, v2, solutions):
        rebuilt = sum_spans(predecessor, [lie_bracket(f, vc)])
        if not any(rebuilt.span_equal(s.replaced) for s in steps):
            steps.append(StepRecord("C-i", frontier, rebuilt, cauchy, quad, vc))
    return steps


def run_algorithm1(sys: ControlAffineSystem) -> BranchTree:
    """Single chain: drift brackets on involutive frontiers, one derived-flag
    step (B) otherwise."""
    return _drive(sys, 1, derived_step, _derived_rule)


def run_algorithm2(sys: ControlAffineSystem) -> BranchTree:
    """Refined chain with frontier replacement: non-involutive frontiers take
    B, C-i (branching on two candidates), C-ii or D (see `_refined_rule`),
    and every unreplaced one is closed to its involutive closure."""
    return _drive(sys, 2, involutive_closure, _refined_rule)


# --- candidate extraction ---------------------------------------------------------


class CandidatePair(NamedTuple):
    functions: tuple[Expr, Expr]
    passed: bool
    verdict: Optional[FlatVerdict]
    reason: Optional[str] = None


class LeafCandidates(NamedTuple):
    branch: Branch
    functions: tuple[Expr, ...]
    shortfall: int
    pairs: tuple[CandidatePair, ...]


def _verify_pair(
    sys: ControlAffineSystem, phi: tuple[Expr, Expr]
) -> CandidatePair:
    try:
        verdict = verify_flat_output(output_jets(sys, phi))
    except CANDIDATE_ERRORS as err:
        return CandidatePair(phi, False, None, str(err))
    return CandidatePair(phi, verdict.passed, verdict)


def extract_candidates(tree: BranchTree) -> tuple[LeafCandidates, ...]:
    """Candidate functions per reached leaf: first integrals of F-perp.  A
    complete two-function basis is emitted as a verified pair; a leaf with
    any other count, or a shortfall, gets no pair, and its functions and
    F-perp stay visible in the report."""
    out: list[LeafCandidates] = []
    for branch in tree.reached():
        integrals = first_integrals(branch.F_perp)
        functions = tuple(integrals.functions)
        pairs: tuple[CandidatePair, ...] = ()
        if len(functions) == 2 and integrals.complete():
            pairs = (_verify_pair(tree.system, (functions[0], functions[1])),)
        out.append(
            LeafCandidates(
                branch,
                functions,
                integrals.shortfall,
                pairs,
            )
        )
    return tuple(out)
