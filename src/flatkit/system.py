"""Two-input control-affine systems and their flatness-related analyses.

Everything here works on the closed chain

    candidate output -> relative degrees -> index pair (R, d)
    -> codistribution sequence Q on the input-jet chart
    -> triangular-form equivalence / flat-output verification,

plus the structural operations feeding it: static feedback and input
prolongation.  `sfe_gtf_test` is the triangular-form test.

The input-jet space is a prolongation: `prolong` and `output_jets` build
their charts and drifts with one chain builder that integrates each input
through a chain of new states.  For output indices R the jet chart is that
of the (max R, max R) prolongation, and its drift is the total-derivative
field.  Each output has one derivative ladder, extended on the jet chart:
`candidate` climbs phi_i, L_f phi_i, ... until an input appears (K_i rungs),
and `output_jets` moves those rungs to the jet chart and climbs on along the
total-derivative field to order R_i - 1; below K_i both climbs agree, since
L_g L_f^j phi_i = 0.  The rank check and the Q sequence of one output pair
share one `output_jets` context, built once per question.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .distributions import Codistribution, intersect_with_coordinates, span
from .errors import (
    ChartMismatchError,
    DependentDifferentialsError,
    InputTransformError,
    InvalidIndicesError,
    UnboundedRelativeDegreeError,
)
from .expr import Chart, Expr, check_symbol_name, transfer
from .fields import (
    CovectorField,
    VectorField,
    covectors_matrix,
    differential,
    lie_derivative,
    transfer_field,
)
from .linalg import RankEngine

PhiPair = Sequence[Expr]


@dataclass(frozen=True)
class ControlAffineSystem:
    """x' = f(x) + g1(x) u1 + g2(x) u2 with two named scalar inputs."""

    chart: Chart
    inputs: tuple[str, str]
    f: VectorField
    g1: VectorField
    g2: VectorField
    engine: RankEngine
    name: str = ""

    def __post_init__(self) -> None:
        for v in (self.f, self.g1, self.g2):
            if v.chart is not self.chart:
                raise ChartMismatchError("system fields on a different chart")
        if len(self.inputs) != 2 or self.inputs[0] == self.inputs[1]:
            raise ValueError("exactly two distinct input names are required")
        for u in self.inputs:
            check_symbol_name(u, "input")
            if self.chart.has_symbol(u):
                raise ValueError(f"input name '{u}' collides with a chart symbol")
        if span(self.chart, (self.g1, self.g2), self.engine).rank != 2:
            raise ValueError("input fields g1, g2 must have generic rank 2")

    @property
    def n(self) -> int:
        return self.chart.dim

    @property
    def states(self) -> tuple[str, ...]:
        return self.chart.coordinates


@dataclass(frozen=True)
class FlatCandidate:
    """A candidate output pair with its index data.  `ladders[i]` holds the
    rungs phi_i, L_f phi_i, ..., L_f^(K_i - 1) phi_i on the system chart,
    the drift derivatives that see no input, so K_i is its length."""

    ladders: tuple[tuple[Expr, ...], tuple[Expr, ...]]
    R: tuple[int, int]
    d: int

    @property
    def K(self) -> tuple[int, int]:
        return len(self.ladders[0]), len(self.ladders[1])


# --- input chains -------------------------------------------------------------

_DERIV_RE = re.compile(r"^(.*)_d([0-9]+)$")


def _next_name(name: str, taken: set[str]) -> str:
    """The first `_d<k>` name after `name` that is not taken; it is taken now."""
    while True:
        m = _DERIV_RE.match(name)
        name = f"{m.group(1)}_d{int(m.group(2)) + 1}" if m else f"{name}_d1"
        if name not in taken:
            taken.add(name)
            return name


def _chain(name: str, length: int, taken: set[str]) -> list[str]:
    """`name` and the `length` free names after it: the chain states, then
    the new input."""
    out = [name]
    for _ in range(length):
        out.append(_next_name(out[-1], taken))
    return out


def _input_chains(
    sys: ControlAffineSystem, p1: int, p2: int
) -> tuple[VectorField, tuple[VectorField, VectorField], tuple[str, str]]:
    """Input j integrated through a chain of p_j new states.

    Returns the drift on the extended chart (the lowest chain state
    multiplies the old input field, each chain state is shifted to the next
    and the top one gets a zero component), the input fields and the input
    names; an input with p_j = 0 keeps its field and name.
    """
    taken = {*sys.chart.coordinates, *sys.chart.parameters, *sys.inputs}
    names = [_chain(u, p, taken) for u, p in zip(sys.inputs, (p1, p2))]
    chains = [chain[:-1] for chain in names]
    ch = sys.chart.extend(chains[0] + chains[1])
    dim = ch.dim
    pos = {name: i for i, name in enumerate(ch.coordinates)}
    comps = list(transfer_field(sys.f, ch).components)
    gs = []
    for g, chain in zip((sys.g1, sys.g2), chains):
        gt = transfer_field(g, ch)
        if not chain:
            gs.append(gt)
            continue
        u0 = ch.sym(chain[0])
        for i in range(dim):
            c = gt.components[i]
            if not c.is_zero():
                comps[i] = comps[i] + u0 * c
        for lower, upper in zip(chain, chain[1:]):
            comps[pos[lower]] = ch.sym(upper)
        top = [ch.zero] * dim
        top[pos[chain[-1]]] = ch.one
        gs.append(VectorField(ch, tuple(top)))
    return VectorField(ch, tuple(comps)), (gs[0], gs[1]), (names[0][-1], names[1][-1])


# --- degrees and indices ------------------------------------------------------


def _ladder(sys: ControlAffineSystem, h: Expr, which: int) -> tuple[Expr, ...]:
    """The rungs h, L_f h, ..., L_f^(K-1) h below the first drift derivative
    that sees an input; K is the relative degree of h."""
    if h.chart is not sys.chart:
        raise ChartMismatchError("candidate output on a different chart")
    rungs = [h]
    for _ in range(sys.n):
        cur = rungs[-1]
        if any(not lie_derivative(cur, g).is_zero() for g in (sys.g1, sys.g2)):
            return tuple(rungs)
        rungs.append(lie_derivative(cur, sys.f))
    raise UnboundedRelativeDegreeError(which, sys.n)


def flat_indices(n: int, K: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """(R, d) with r1 = n - k2, r2 = n - k1, d = n - k1 - k2."""
    k1, k2 = K
    if k1 < 1 or k2 < 1:
        raise InvalidIndicesError(f"relative degrees must be positive, got {K}")
    if k1 + k2 > n:
        raise InvalidIndicesError(
            f"relative degrees {K} exceed the state dimension {n}"
        )
    return (n - k2, n - k1), n - k1 - k2


def candidate(sys: ControlAffineSystem, phi: PhiPair) -> FlatCandidate:
    """Degrees plus indices for an output pair, with the independence check."""
    phi1, phi2 = phi
    dphi = Codistribution(sys.chart, (differential(phi1), differential(phi2)), sys.engine)
    if dphi.rank < 2:
        raise DependentDifferentialsError(
            "candidate output differentials are dependent"
        )
    ladders = (_ladder(sys, phi1, 1), _ladder(sys, phi2, 2))
    R, d = flat_indices(sys.n, (len(ladders[0]), len(ladders[1])))
    return FlatCandidate(ladders, R, d)


# --- static feedback ---------------------------------------------------------


def apply_static_feedback(
    sys: ControlAffineSystem,
    alpha: Sequence[Expr],
    beta: Sequence[Sequence[Expr]],
) -> ControlAffineSystem:
    """Replace u by alpha(x) + beta(x) v for an invertible matrix beta."""
    det = beta[0][0] * beta[1][1] - beta[0][1] * beta[1][0]
    if det.is_zero():
        raise InputTransformError("feedback matrix is singular")
    f = sys.f + sys.g1.scale(alpha[0]) + sys.g2.scale(alpha[1])
    g1 = sys.g1.scale(beta[0][0]) + sys.g2.scale(beta[1][0])
    g2 = sys.g1.scale(beta[0][1]) + sys.g2.scale(beta[1][1])
    return ControlAffineSystem(
        sys.chart, sys.inputs, f, g1, g2, sys.engine, sys.name
    )


# --- the codistribution sequence ---------------------------------------------


@dataclass(frozen=True)
class OutputJets:
    """A candidate output pair on the input-jet chart: its degrees and
    indices, and the differentials of each output's total derivatives up to
    order R_i - 1.  The jet chart is the chart of the (max R, max R)
    prolongation, whose drift is the total-derivative field, so every needed
    total derivative exists.  Each output has one ladder, extended on the
    jet chart: the candidate's rungs below K_i, then total derivatives."""

    system: ControlAffineSystem
    candidate: FlatCandidate
    chart: Chart
    differentials: tuple[tuple[CovectorField, ...], tuple[CovectorField, ...]]


def output_jets(sys: ControlAffineSystem, phi: PhiPair) -> OutputJets:
    """Everything the rank check and the Q sequence need, built once."""
    cand = candidate(sys, phi)
    # only the drift: the prolonged system's own checks (input names, input
    # rank) are not preconditions of the jet space
    total = _input_chains(sys, max(cand.R), max(cand.R))[0]
    ch = total.chart
    ladders = []
    for rungs, r in zip(cand.ladders, cand.R):
        # below K the total derivative is the drift's (L_g L_f^j phi = 0)
        ladder = [transfer(h, ch) for h in rungs]
        while len(ladder) < r:
            ladder.append(lie_derivative(ladder[-1], total))
        ladders.append(tuple(differential(e) for e in ladder))
    return OutputJets(sys, cand, ch, (ladders[0], ladders[1]))


def q_sequence(jets: OutputJets) -> list[Codistribution]:
    """Q_j = span{d phi_[0,j]} ^ span{dx} for j = K-1, ..., R-1.

    No input normalization is needed: a regular static feedback
    u = alpha(x) + beta(x) v changes the jet coordinates by an invertible
    map that fixes x, so span{d phi_[0,j]}, span{dx} and with them Q_j, its
    rank and its integrability are the same in either chart.

    Each Q_j is an ordinary span of unnormalized, possibly dependent
    combinations (see `intersect_with_coordinates`): its rank is sampled,
    and becomes exact once `is_integrable` has answered.  A Q_j whose
    covectors equal those of Q_(j-1) is that same object, so its rank,
    coannihilator and brackets are built once.
    """
    sys, cand = jets.system, jets.candidate
    k1, k2 = cand.K
    lad1, lad2 = jets.differentials
    out: list[Codistribution] = []
    for i in range(cand.d + 1):
        q = Codistribution(jets.chart, lad1[: k1 + i] + lad2[: k2 + i], sys.engine)
        q = intersect_with_coordinates(q, sys.states)
        if out and q.covectors == out[-1].covectors:
            q = out[-1]
        out.append(q)
    return out


@dataclass(frozen=True)
class QReport:
    index: tuple[int, int]
    rank: int
    integrable: bool


@dataclass(frozen=True)
class SfeGtfResult:
    """Outcome of the triangular-form equivalence test with per-Q detail."""

    passed: bool
    candidate: FlatCandidate
    reports: tuple[QReport, ...]
    codistributions: tuple[Codistribution, ...]

    def __bool__(self) -> bool:
        return self.passed


def sfe_gtf_test(jets: OutputJets) -> SfeGtfResult:
    """Equivalent to the triangular form under static feedback iff every Q_j
    in the sequence is integrable."""
    cand = jets.candidate
    k1, k2 = cand.K
    qs = q_sequence(jets)
    reports = []
    passed = True
    for i, q in enumerate(qs):
        # Read q.rank only after is_integrable, so every reported rank is
        # exact.  Either the rank equals the number of columns the
        # generators touch, an upper bound, while a sampled rank is a proven
        # lower bound (a coordinate span, integrable with no dual), or the
        # exact coannihilator is built and cross-checks it.
        ok = q.is_integrable()
        passed = passed and ok
        reports.append(QReport((k1 - 1 + i, k2 - 1 + i), q.rank, ok))
    return SfeGtfResult(passed, cand, tuple(reports), tuple(qs))


# --- prolongation -------------------------------------------------------------


def prolong(sys: ControlAffineSystem, p1: int, p2: int) -> ControlAffineSystem:
    """The system with input j integrated through p_j extra states; old
    inputs become states.  Orders (0, 0) return `sys` itself."""
    if p1 < 0 or p2 < 0:
        raise ValueError("prolongation orders must be nonnegative")
    if p1 == 0 and p2 == 0:
        return sys
    f, (g1, g2), inputs = _input_chains(sys, p1, p2)
    return ControlAffineSystem(f.chart, inputs, f, g1, g2, sys.engine, sys.name)


# --- flat-output verification --------------------------------------------------


@dataclass(frozen=True)
class FlatVerdict:
    """Result of the reconstruction test for a candidate output pair."""

    passed: bool
    candidate: FlatCandidate
    spans_states: bool
    stacked_rank: int
    required_rank: int

    def __bool__(self) -> bool:
        return self.passed


def verify_flat_output(jets: OutputJets) -> FlatVerdict:
    """Pass iff span{dx} lies in span{d phi_[0,R-1]} and the stacked
    differentials have rank n + d (so the candidate really has n + d
    independent functions through order R - 1)."""
    sys, cand, ch = jets.system, jets.candidate, jets.chart
    covs = list(jets.differentials[0] + jets.differentials[1])
    state_covs = [differential(ch.sym(name)) for name in sys.states]
    # Greedy rows of [covs; state covs]: those among covs span covs, and no
    # state row is taken iff span{dx} lies in span{covs}.
    picked = sys.engine.independent_rows(covectors_matrix(covs + state_covs), ch)
    stacked_rank = sum(1 for i in picked if i < len(covs))
    spans_states = stacked_rank == len(picked)
    required = sys.n + cand.d
    return FlatVerdict(
        spans_states and stacked_rank == required,
        cand,
        spans_states,
        stacked_rank,
        required,
    )
