"""Two-input control-affine systems and their flatness-related analyses.

Everything here works on the closed chain

    candidate output -> relative degrees -> index pair (R, d)
    -> codistribution sequence Q on the input-jet chart
    -> triangular-form equivalence / flat-output verification,

plus input prolongation, the structural operation feeding it.
`sfe_gtf_test` is the triangular-form test.

The input-jet space is a prolongation: `prolong` and `output_jets` build
their charts and drifts with one chain builder that integrates each input
through a chain of new states.  For an index d the jet chart is that of the
(d, d) prolongation, which holds every input derivative the ladders meet,
and its drift is the total-derivative field.  Each output has one derivative
ladder, extended on the jet chart: `candidate` climbs phi_i, L_f phi_i, ...
until an input appears (K_i rungs), and `output_jets` moves those rungs to
the jet chart and climbs on along the total-derivative field to order
R_i - 1; below K_i both climbs agree, since L_g L_f^j phi_i = 0.  The rank
check and the Q sequence of one output pair share one `output_jets`
context, built once per question.  When the rank check finds span{dx} in
the span of the ladders, which every pass needs, that finding is exact, and
it settles the last Q level: span{dx} itself, with no intersection taken.
The first level needs none either: its rungs are functions of x, so it is
their span, integrable by exactness (d d phi = 0).

Each ladder row, like each row of d phi, is the differential of its
function up to the square of the function's denominator
(`fields.differential`).  Everything here reads those rows only through
spans, ranks, zero tests and memberships, which a nonzero factor on a row
does not change; so the row of a rational rung takes no gcd.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .distributions import Codistribution, intersect_with_coordinates, span
from .errors import (
    ChartMismatchError,
    DependentDifferentialsError,
    InvalidIndicesError,
    UnboundedRelativeDegreeError,
)
from .expr import Chart, Expr, check_symbol_name, transfer
from .fields import (
    CovectorField,
    VectorField,
    differential,
    fields_matrix,
    lie_derivative,
    transfer_field,
)
from .linalg import RankEngine, exact_rank

PhiPair = Sequence[Expr]


class ControlAffineSystem:
    """x' = f(x) + g1(x) u1 + g2(x) u2 with two named scalar inputs."""

    def __init__(
        self,
        chart: Chart,
        inputs: tuple[str, str],
        f: VectorField,
        g1: VectorField,
        g2: VectorField,
        engine: RankEngine,
        name: str = "",
    ) -> None:
        for v in (f, g1, g2):
            if v.chart is not chart:
                raise ChartMismatchError("system fields on a different chart")
        if len(inputs) != 2 or inputs[0] == inputs[1]:
            raise ValueError("exactly two distinct input names are required")
        for u in inputs:
            check_symbol_name(u, "input")
            if chart.has_symbol(u):
                raise ValueError(f"input name '{u}' collides with a chart symbol")
        if span(chart, (g1, g2), engine).rank != 2:
            raise ValueError("input fields g1, g2 must have generic rank 2")
        self.chart = chart
        self.inputs = inputs
        self.f = f
        self.g1 = g1
        self.g2 = g2
        self.engine = engine
        self.name = name

    @property
    def n(self) -> int:
        return self.chart.dim

    @property
    def states(self) -> tuple[str, ...]:
        return self.chart.coordinates


class FlatCandidate(NamedTuple):
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


# --- the jet chart ------------------------------------------------------------


class OutputJets(NamedTuple):
    """A candidate output pair on the input-jet chart: its degrees and
    indices, and the differentials of each output's total derivatives up to
    order R_i - 1, each up to the square of its rung's denominator (the
    rank check and the Q sequence read only the lines they span).

    The jet chart is the chart of the (d, d) prolongation: the states, then
    u_j, u_j_d1, ..., u_j_d(d-1) for each input, and its drift is the
    total-derivative field.  That is every input derivative the ladder
    meets: R_i - K_i = d for both outputs, and phi_i^(K_i + m) involves
    input derivatives up to order m only, so the top rung phi_i^(R_i - 1)
    stops at order d - 1.  A wider chart would only add columns that are
    zero in every ladder row.  Each output has one ladder, extended on the
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
    total = _input_chains(sys, cand.d, cand.d)[0]
    ch = total.chart
    ladders = []
    for rungs, r in zip(cand.ladders, cand.R):
        # below K the total derivative is the drift's (L_g L_f^j phi = 0)
        ladder = [transfer(h, ch) for h in rungs]
        while len(ladder) < r:
            ladder.append(lie_derivative(ladder[-1], total))
        ladders.append(tuple(differential(e) for e in ladder))
    return OutputJets(sys, cand, ch, (ladders[0], ladders[1]))


# --- flat-output verification --------------------------------------------------


class FlatVerdict(NamedTuple):
    """Result of the reconstruction test for a candidate output pair."""

    passed: bool
    candidate: FlatCandidate
    spans_states: bool
    stacked_rank: int
    required_rank: int


def verify_flat_output(jets: OutputJets) -> FlatVerdict:
    """Pass iff span{dx} lies in span{d phi_[0,R-1]} and the ladder
    differentials have rank n + d (so the candidate really has n + d
    independent functions through order R - 1).

    With L the n + d ladder rows and J their block in the jet columns (the
    columns after the states), eliminating the state columns of L by the dx
    rows gives rank [L; dx] = n + rank J.  So span{dx} lies in span{L} iff
    rank L = n + rank J.  `stacked_rank` is the sampled rank of L and rank J
    comes from one exact echelon of the small jet block.  A sampled rank is
    a proven lower bound, and rank L <= n + rank J, so equality proves both
    `spans_states` and `stacked_rank`: every pass is exact, since it needs
    both.  Only a failed check rests on sampling.  The echelon runs only
    when the check can still find span{dx}: the rank of J at one point is
    a lower bound as well (`RankEngine.lower_bound`), so a stacked rank
    below n plus it is below n + rank J.  A point that misses the rank of
    J only sends the check on to the echelon.
    """
    sys, cand, ch = jets.system, jets.candidate, jets.chart
    rows = fields_matrix(jets.differentials[0] + jets.differentials[1])
    stacked_rank = sys.engine.rank(rows, ch)
    # the rungs below K see no input: their jet rows are zero
    jet_block = [row[sys.n:] for row in rows if any(not e.is_zero() for e in row[sys.n:])]
    spans_states = stacked_rank >= sys.n + sys.engine.lower_bound(jet_block, ch) and (
        stacked_rank == sys.n + exact_rank(jet_block, ch)
    )
    required = sys.n + cand.d
    return FlatVerdict(
        spans_states and stacked_rank == required,
        cand,
        spans_states,
        stacked_rank,
        required,
    )


# --- the codistribution sequence ---------------------------------------------


def q_sequence(jets: OutputJets, verdict: FlatVerdict) -> list[Codistribution]:
    """Q_j = span{d phi_[0,j]} ^ span{dx} for j = K-1, ..., R-1.

    No input normalization is needed: a regular static feedback
    u = alpha(x) + beta(x) v changes the jet coordinates by an invertible
    map that fixes x, so span{d phi_[0,j]}, span{dx} and with them Q_j, its
    rank and its integrability are the same in either chart.

    Q_(K-1) is span{d phi_[0,K-1]} itself, with no intersection taken:
    those rungs are functions of x.  Each later Q_j is an ordinary span of
    unnormalized, possibly dependent combinations (see
    `intersect_with_coordinates`).  Every rank is sampled, and becomes exact
    once `sfe_gtf_test` has decided the level.  A Q_j whose covectors equal
    those of Q_(j-1) is that same object, so its rank, coannihilator and
    brackets are built once.

    `verdict` is the rank check of these jets; one of another output pair
    raises ValueError.  When it found span{dx} in span{d phi_[0,R-1]}, the
    last level Q_(R-1) is span{dx} itself, the coordinate span of the
    states, with no intersection taken: a True `spans_states` is proven
    (see `verify_flat_output`), and every pass has it.  Otherwise that
    level is intersected like the others.
    """
    sys, cand = jets.system, jets.candidate
    if verdict.candidate is not cand:
        raise ValueError("the rank verdict of another output pair")
    k1, k2 = cand.K
    lad1, lad2 = jets.differentials
    out: list[Codistribution] = []
    for i in range(cand.d + 1):
        if i == cand.d and verdict.spans_states:
            dx = [differential(jets.chart.sym(name)) for name in sys.states]
            q = Codistribution(jets.chart, dx, sys.engine)
        else:
            q = Codistribution(jets.chart, lad1[: k1 + i] + lad2[: k2 + i], sys.engine)
            if i:  # the rungs below K are functions of x: Q_(K-1) is their span
                q = intersect_with_coordinates(q, sys.states)
        if out and q.covectors == out[-1].covectors:
            q = out[-1]
        out.append(q)
    return out


class QReport(NamedTuple):
    index: tuple[int, int]
    rank: int
    integrable: bool


class SfeGtfResult(NamedTuple):
    """Outcome of the triangular-form equivalence test with per-Q detail,
    and the rank check it ran for the last Q level."""

    passed: bool
    candidate: FlatCandidate
    reports: tuple[QReport, ...]
    codistributions: tuple[Codistribution, ...]
    verdict: FlatVerdict


def sfe_gtf_test(jets: OutputJets) -> SfeGtfResult:
    """Equivalent to the triangular form under static feedback iff every Q_j
    in the sequence is integrable.

    The test runs the rank check `verify_flat_output` first and returns it
    as `verdict`.  When the check proved span{dx} in span{d phi_[0,R-1]},
    the last level is span{dx}, rank n and integrable, and costs no
    intersection (see `q_sequence`).  The first level costs none either,
    nor a coannihilator when its rank meets its generator count.
    """
    verdict = verify_flat_output(jets)
    cand = jets.candidate
    k1, k2 = cand.K
    qs = q_sequence(jets, verdict)
    reports = []
    passed = True
    for i, q in enumerate(qs):
        # Every reported rank is exact.  A sampled rank is a proven lower
        # bound and the generator count an upper one, so at Q_(K-1), which
        # spans exact differentials, their equality settles the rank and
        # integrability.  Otherwise q.rank is read after is_integrable:
        # either it equals the number of columns the generators touch (a
        # coordinate span, integrable with no dual), or the exact
        # coannihilator is built and cross-checks it.
        if i and q is qs[i - 1]:
            ok = reports[-1].integrable
        else:
            ok = (i == 0 and q.rank == len(q.covectors)) or q.is_integrable()
        passed = passed and ok
        reports.append(QReport((k1 - 1 + i, k2 - 1 + i), q.rank, ok))
    return SfeGtfResult(passed, cand, tuple(reports), tuple(qs), verdict)


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
