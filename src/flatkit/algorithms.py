"""Feedback-invariant distribution sequences and flat-output candidates.

Both procedures grow a chain D_1 c D_2 c ... c T(X) from D_1 = span{g1, g2}
on the state chart.  The basic procedure alternates drift brackets (involutive
frontier) with single derived-flag steps.  The refined procedure examines a
non-involutive frontier more carefully: when its Cauchy characteristic is
informative and the predecessor window satisfies the bracket-condition lemma,
the frontier is rebuilt from one selected direction [f, v_c], branching when
the quadratic membership condition has two admissible solutions.  Terminal
data F / F-perp yield candidate flat-output functions via first integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
from .errors import (
    AssumptionViolationError,
    DependentDifferentialsError,
    InvalidIndicesError,
    UnboundedRelativeDegreeError,
)
from .expr import Chart, Expr
from .fields import CovectorField, VectorField, fields_matrix, lie_bracket, pair
from .sympoly import Poly, p_const, p_div_exact, p_mul, p_sqrt, p_sub, p_var
from .system import ControlAffineSystem, FlatVerdict, verify_flat_output

__all__ = [
    "Branch",
    "BranchTree",
    "CandidatePair",
    "LeafCandidates",
    "QuadraticForm",
    "StepRecord",
    "extract_candidates",
    "lemma1_candidates",
    "run_algorithm1",
    "run_algorithm2",
]


# --- step and branch records -----------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """Membership residual of the candidate direction, stacked row-wise over
    the annihilator of the examined frontier: for each annihilator covector,
    q(a) = c11 a1^2 + 2 c12 a1 a2 + c22 a2^2 must vanish."""

    c11: tuple[Expr, ...]
    c12: tuple[Expr, ...]
    c22: tuple[Expr, ...]
    solutions: tuple[tuple[Expr, Expr], ...]


@dataclass(frozen=True)
class StepRecord:
    """One update of the sequence: the frontier examined, the rule applied,
    and the produced successor.  C-i steps additionally rebuild the frontier
    (`replaced`) before the successor is formed."""

    index: int
    tag: str  # "A" | "B" | "C-i" | "C-ii" | "D"
    examined: Distribution
    replaced: Optional[Distribution]
    produced: Distribution
    involutive: bool
    cauchy: Optional[Distribution] = None
    quad: Optional[QuadraticForm] = None
    vc: Optional[VectorField] = None


@dataclass(frozen=True)
class Branch:
    """One explored path: its final (post-replacement) sequence and records."""

    path: tuple[int, ...]
    records: tuple[StepRecord, ...]
    sequence: tuple[Distribution, ...]
    status: str  # "reached-tangent-space" | "stalled" | "depth-capped"
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


@dataclass(frozen=True)
class BranchTree:
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
) -> Optional[tuple[VectorField, VectorField]]:
    """Two generators extending d0 to d1 (None unless exactly two are needed)."""
    if d1.rank - d0.rank != 2:
        return None
    low, high = d0.basis(), d1.basis()
    rows = fields_matrix(low + high)
    picked = [
        high[i - len(low)]
        for i in d1.engine.independent_rows(rows, d1.chart)
        if i >= len(low)
    ]
    if len(picked) < 2:
        return None
    return picked[0], picked[1]


def _terminal_data(
    sys: ControlAffineSystem, sequence: tuple[Distribution, ...], status: str
) -> tuple[Optional[Distribution], Optional[Codistribution]]:
    """F from the member below T(X): itself if involutive, else its Cauchy
    characteristic.  Undefined off reached leaves and for length-one chains."""
    if status != "reached-tangent-space" or len(sequence) < 2:
        return None, None
    below = sequence[-2]
    F = below if below.is_involutive() else cauchy_characteristic(below)
    return F, F.annihilator()


# --- the quadratic membership condition -------------------------------------------


def _trig_sqrt(p: Poly, sin_to_cos: dict[int, int]) -> Optional[Poly]:
    """Exact square root of a canonical polynomial, None if none is found.

    Canonical forms rewrite sin^2 as 1 - cos^2, so (q*sin)^2 arrives as
    (1 - cos^2)*q^2; that shape is tried for one sine factor.  Roots mixing
    sine and sine-free terms, such as (a + b*sin)^2, are not found.
    """
    root = p_sqrt(p)
    if root is not None:
        return root
    for si, ci in sin_to_cos.items():
        q = p_div_exact(p, p_sub(p_const(1), p_mul(p_var(ci), p_var(ci))))
        root = None if q is None else p_sqrt(q)
        if root is not None:
            return p_mul(root, p_var(si))
    return None


def _expr_sqrt(e: Expr) -> Optional[Expr]:
    """Exact square root in the expression field, None if not a square."""
    # sqrt(num/den) = sqrt(num*den)/den.  One root of the product also covers
    # a sine factor of den: den keeps a positive lead, so its factor 1 - cos^2
    # arrives as cos^2 - 1 with the sign moved onto num
    num = _trig_sqrt(p_mul(e.num, e.den), e.chart.sin_to_cos())
    if num is None:
        return None
    root = Expr(e.chart, num, e.den)
    # trig reduction may have rewritten the radicand; trust only a re-check
    if not (root * root - e).is_zero():
        return None
    return root


def _t_trim(p: list[Expr]) -> list[Expr]:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _t_mod(a: list[Expr], b: list[Expr]) -> list[Expr]:
    a = list(a)
    while a and len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - factor * c
        _t_trim(a)
    return a


def _t_gcd(a: list[Expr], b: list[Expr]) -> list[Expr]:
    while b:
        a, b = b, _t_mod(a, b)
    return a


def _solve_membership(
    chart: Chart,
    rows: list[tuple[Expr, Expr, Expr]],
) -> list[tuple[Expr, Expr]]:
    """All projective solutions a = (a1, a2) of the stacked quadratics
    c11 a1^2 + 2 c12 a1 a2 + c22 a2^2 = 0, as rational functions."""
    live = [r for r in rows if not all(c.is_zero() for c in r)]
    if not live:
        raise AssumptionViolationError(
            "nondegenerate membership condition",
            "every stacked quadratic vanishes identically",
        )
    solutions: list[tuple[Expr, Expr]] = []
    # a = (1, t): common roots of c11 + 2 c12 t + c22 t^2 over the field
    g: list[Expr] = []
    for c11, c12, c22 in live:
        poly = _t_trim([c11, c12 + c12, c22])
        g = poly if not g else _t_gcd(g, poly)
        if len(g) == 1:
            break
    one, zero = chart.one, chart.zero
    if len(g) == 2:
        solutions.append((one, -g[0] / g[1]))
    elif len(g) == 3:
        disc = g[1] * g[1] - chart.const(4) * g[0] * g[2]
        root = _expr_sqrt(disc)
        if root is not None:
            half = chart.const(2) * g[2]
            solutions.append((one, (-g[1] + root) / half))
            if not root.is_zero():
                solutions.append((one, (-g[1] - root) / half))
    # a = (0, 1) solves iff every c22 row vanishes
    if all(c22.is_zero() for _, _, c22 in live):
        solutions.append((zero, one))
    return solutions


def _lemma1_violation(
    f: VectorField,
    d0: Distribution,
    d1: Distribution,
    d2: Distribution,
) -> Optional[str]:
    """Name of the first failed precondition, None when all hold."""
    if d1.rank - d0.rank != 2 or d2.rank - d1.rank != 2:
        return "corank-two chain d0 c d1 c d2"
    if not (d1.contains(d0) and d2.contains(d1)):
        return "nested chain d0 c d1 c d2"
    if not d1.is_involutive():
        return "d1 involutive"
    if cauchy_characteristic(d2).contains(d1):
        return "d1 not inside the Cauchy characteristic of d2"
    if not all(d1.contains_field(lie_bracket(f, b)) for b in d0.basis()):
        return "[f, d0] inside d1"
    if not _drift_step(f, d1).span_equal(d2):
        return "d2 equals d1 + [f, d1]"
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
        scale = Expr(chart, a1.den, chart.one.num) * Expr(
            chart, a2.den, chart.one.num
        )
        out.append(v1.scale(a1 * scale) + v2.scale(a2 * scale))
    return out


def lemma1_candidates(
    f: VectorField,
    d0: Distribution,
    d1: Distribution,
    d2: Distribution,
    v1: VectorField,
    v2: VectorField,
) -> list[VectorField]:
    """Candidate directions v_c = a1 v1 + a2 v2 whose double bracket with the
    drift stays inside d2 — the necessary condition for rebuilding d2 from a
    single bracket [f, v_c].  At most two non-collinear results exist."""
    violated = _lemma1_violation(f, d0, d1, d2)
    if violated is None and not sum_spans(d0, [v1, v2]).span_equal(d1):
        violated = "d1 equals d0 + span{v1, v2}"
    if violated is not None:
        raise AssumptionViolationError(violated)
    rows = _membership_rows(f, d2, v1, v2)
    solutions = _solve_membership(f.chart, rows)
    fields = _candidate_fields(v1, v2, solutions)
    assert len(fields) <= 2
    return fields


# --- sequence drivers -------------------------------------------------------------


def _close_branch(
    sys: ControlAffineSystem,
    path: tuple[int, ...],
    records: list[StepRecord],
    sequence: list[Distribution],
    status: str,
) -> Branch:
    seq = tuple(sequence)
    F, F_perp = _terminal_data(sys, seq, status)
    return Branch(path, tuple(records), seq, status, F, F_perp)


def run_algorithm1(sys: ControlAffineSystem) -> BranchTree:
    """Single chain: drift brackets on involutive frontiers, one derived-flag
    step otherwise; stops at the tangent space, a stall, or the depth cap."""
    f = sys.f
    sequence = [span(sys.chart, (sys.g1, sys.g2), sys.engine)]
    records: list[StepRecord] = []
    cap = 2 * sys.n
    while True:
        frontier = sequence[-1]
        if frontier.rank == sys.n:
            status = "reached-tangent-space"
            break
        if len(records) >= cap:
            status = "depth-capped"
            break
        involutive = frontier.is_involutive()
        if involutive:
            produced, tag = _drift_step(f, frontier), "A"
        else:
            produced, tag = derived_step(frontier), "B"
        records.append(
            StepRecord(
                index=len(sequence),
                tag=tag,
                examined=frontier,
                replaced=None,
                produced=produced,
                involutive=involutive,
            )
        )
        if produced.rank == frontier.rank:
            status = "stalled"
            break
        sequence.append(produced)
    branch = _close_branch(sys, (), records, sequence, status)
    return BranchTree(sys, 1, (branch,))


@dataclass
class _Frontier:
    sequence: list[Distribution]
    records: list[StepRecord]
    path: tuple[int, ...]
    drift_built: bool  # frontier is predecessor + [f, predecessor] by construction


def _case_c_setup(
    f: VectorField,
    sequence: list[Distribution],
    cauchy: Distribution,
    drift_built: bool,
) -> Optional[tuple[Distribution, VectorField, VectorField]]:
    """The lemma window (d0, v1, v2) for the current frontier, or None when
    its assumptions fail (case D)."""
    chart, engine = f.chart, sequence[-1].engine
    if len(sequence) < 2:
        return None
    d2, d1 = sequence[-1], sequence[-2]
    older = sequence[-3] if len(sequence) >= 3 else _empty(chart, engine)
    d0 = intersect(cauchy, older) if not (cauchy.is_empty() or older.is_empty()) else _empty(chart, engine)
    if d1.rank - d0.rank != 2 or d2.rank - d1.rank != 2:
        return None
    if not (d1.contains(d0) and d1.is_involutive()):
        return None
    if cauchy.contains(d1):
        return None
    if not all(d1.contains_field(lie_bracket(f, b)) for b in d0.basis()):
        return None
    if not drift_built and not _drift_step(f, d1).span_equal(d2):
        return None
    pair_fields = _complement_pair(d0, d1)
    if pair_fields is None:
        return None
    return d0, pair_fields[0], pair_fields[1]


def run_algorithm2(
    sys: ControlAffineSystem, fork_closure: bool = False
) -> BranchTree:
    """Refined chain with frontier replacement.

    Non-involutive frontiers fall into: closure when the Cauchy characteristic
    adds nothing over the predecessor (B); frontier rebuild from [f, v_c] per
    admissible candidate, branching on two (C-i); closure when the lemma
    window holds but no candidate exists (C-ii); closure otherwise (D).
    `fork_closure` additionally explores the unreplaced closure beside C-i
    branches (recorded with the C-ii tag)."""
    f = sys.f
    cap = 2 * sys.n
    root = _Frontier(
        [span(sys.chart, (sys.g1, sys.g2), sys.engine)], [], (), False
    )
    work = [root]
    leaves: list[Branch] = []
    while work:
        st = work.pop()
        status: Optional[str] = None
        while status is None:
            frontier = st.sequence[-1]
            if frontier.rank == sys.n:
                status = "reached-tangent-space"
                break
            if len(st.records) >= cap:
                status = "depth-capped"
                break
            if frontier.is_involutive():
                produced = _drift_step(f, frontier)
                st.records.append(
                    StepRecord(
                        index=len(st.sequence),
                        tag="A",
                        examined=frontier,
                        replaced=None,
                        produced=produced,
                        involutive=True,
                    )
                )
                if produced.rank == frontier.rank:
                    status = "stalled"
                    break
                st.sequence.append(produced)
                st.drift_built = True
                continue
            cauchy = cauchy_characteristic(frontier)
            predecessor = (
                st.sequence[-2]
                if len(st.sequence) >= 2
                else _empty(sys.chart, sys.engine)
            )
            quad: Optional[QuadraticForm] = None
            candidates: list[VectorField] = []
            if cauchy.span_equal(predecessor):
                tag = "B"
            else:
                window = _case_c_setup(f, st.sequence, cauchy, st.drift_built)
                if window is None:
                    tag = "D"
                else:
                    d0, v1, v2 = window
                    rows = _membership_rows(f, frontier, v1, v2)
                    try:
                        solutions = _solve_membership(sys.chart, rows)
                    except AssumptionViolationError:
                        solutions = []
                        tag = "D"
                    else:
                        tag = "C-i" if solutions else "C-ii"
                    quad = QuadraticForm(
                        tuple(r[0] for r in rows),
                        tuple(r[1] for r in rows),
                        tuple(r[2] for r in rows),
                        tuple(solutions),
                    )
                    candidates = _candidate_fields(v1, v2, solutions)
            if tag != "C-i":
                produced = involutive_closure(frontier)
                st.records.append(
                    StepRecord(
                        index=len(st.sequence),
                        tag=tag,
                        examined=frontier,
                        replaced=None,
                        produced=produced,
                        involutive=False,
                        cauchy=cauchy,
                        quad=quad,
                    )
                )
                st.sequence.append(produced)
                st.drift_built = False
                continue
            # case C-i: fork one branch per non-redundant candidate
            replacements: list[tuple[VectorField, Distribution]] = []
            for vc in candidates:
                rebuilt = sum_spans(predecessor, [lie_bracket(f, vc)])
                if any(rebuilt.span_equal(seen) for _, seen in replacements):
                    continue
                replacements.append((vc, rebuilt))
            forks: list[_Frontier] = []
            fork_paths = len(replacements) > 1 or (fork_closure and candidates)
            for ordinal, (vc, rebuilt) in enumerate(replacements):
                child = _Frontier(
                    list(st.sequence),
                    list(st.records),
                    st.path + (ordinal,) if fork_paths else st.path,
                    False,
                )
                rebuilt_involutive = rebuilt.is_involutive()
                if rebuilt_involutive:
                    produced = _drift_step(f, rebuilt)
                else:
                    produced = involutive_closure(rebuilt)
                child.records.append(
                    StepRecord(
                        index=len(child.sequence),
                        tag="C-i",
                        examined=frontier,
                        replaced=rebuilt,
                        produced=produced,
                        involutive=False,
                        cauchy=cauchy,
                        quad=quad,
                        vc=vc,
                    )
                )
                child.sequence[-1] = rebuilt
                if rebuilt.rank == predecessor.rank or produced.rank == rebuilt.rank:
                    leaves.append(
                        _close_branch(
                            sys, child.path, child.records, child.sequence, "stalled"
                        )
                    )
                    continue
                child.sequence.append(produced)
                child.drift_built = rebuilt_involutive
                forks.append(child)
            if fork_closure and candidates:
                extra = _Frontier(
                    list(st.sequence),
                    list(st.records),
                    st.path + (len(replacements),),
                    False,
                )
                produced = involutive_closure(frontier)
                extra.records.append(
                    StepRecord(
                        index=len(extra.sequence),
                        tag="C-ii",
                        examined=frontier,
                        replaced=None,
                        produced=produced,
                        involutive=False,
                        cauchy=cauchy,
                        quad=quad,
                    )
                )
                extra.sequence.append(produced)
                forks.append(extra)
            work.extend(reversed(forks))
            status = "forked"
        if status != "forked":
            leaves.append(
                _close_branch(sys, st.path, st.records, st.sequence, status)
            )
    leaves.sort(key=lambda b: b.path)
    return BranchTree(sys, 2, tuple(leaves))


# --- candidate extraction ---------------------------------------------------------


@dataclass(frozen=True)
class CandidatePair:
    functions: tuple[Expr, Expr]
    passed: bool
    verdict: Optional[FlatVerdict]
    reason: Optional[str] = None


@dataclass(frozen=True)
class LeafCandidates:
    branch: Branch
    functions: tuple[Expr, ...]
    shortfall: int
    basis: tuple[CovectorField, ...]
    pairs: tuple[CandidatePair, ...]


def _verify_pair(
    sys: ControlAffineSystem, phi: tuple[Expr, Expr]
) -> CandidatePair:
    try:
        verdict = verify_flat_output(sys, phi)
    except (
        UnboundedRelativeDegreeError,
        InvalidIndicesError,
        DependentDifferentialsError,
    ) as err:
        return CandidatePair(phi, False, None, str(err))
    return CandidatePair(phi, verdict.passed, verdict)


def extract_candidates(tree: BranchTree) -> tuple[LeafCandidates, ...]:
    """Candidate functions per reached leaf: first integrals of F-perp.  A
    two-function basis is emitted as a verified pair; other counts are left
    for downstream pairing.  Integral shortfall keeps the raw basis visible."""
    out: list[LeafCandidates] = []
    for branch in tree.reached():
        if branch.F_perp is None:
            continue
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
                tuple(branch.F_perp.covectors),
                pairs,
            )
        )
    return tuple(out)
