"""Distribution-sequence construction, branch bookkeeping, the candidate
direction selection, and flat-output extraction from terminal data.  The
Lemma-1 preconditions `_lemma1_window` checks are exercised on it directly;
the ones `_drive` guarantees by construction are asserted on every window
it builds for the bundled models."""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatkit import (
    ControlAffineSystem,
    build_system,
    extract_candidates,
    load_model,
    model_from_dict,
    run_algorithm1,
    run_algorithm2,
)
from flatkit import algorithms
from flatkit.algorithms import _drift_step, _lemma1_window, _solve_membership
from flatkit.distributions import Codistribution, cauchy_characteristic, span, sum_spans
from flatkit.expr import Chart, Expr, exact_sqrt
from flatkit.fields import CovectorField, differential, lie_bracket, zero_field
from flatkit.linalg import RankEngine
from flatkit.sympoly import p_const, p_div_exact, p_mul, p_sqrt, p_sub, p_var
from flatkit.system import output_jets, prolong, verify_flat_output

from conftest import (
    FULLY_ACTUATED_MODEL,
    apply_static_feedback,
    as_system,
    coordinate_field,
    field_from_dict,
)


def _covspan(sys: ControlAffineSystem, names: list[str]) -> Codistribution:
    """Codistribution spanned by the differentials of the named coordinates."""
    return Codistribution(
        sys.chart, [differential(sys.chart.sym(n)) for n in names], sys.engine
    )


@pytest.fixture
def drift_free3() -> ControlAffineSystem:
    """Zero drift on a three-state chart: every drift bracket vanishes, so the
    sequence can never grow past span{g1, g2}."""
    chart = Chart(["z1", "z2", "z3"])
    g1 = field_from_dict(chart, {"z1": "1"})
    g2 = field_from_dict(chart, {"z2": "1"})
    return ControlAffineSystem(
        chart, ("u1", "u2"), zero_field(chart), g1, g2, RankEngine(seed=2), "df3"
    )


# --- basic sequence ---------------------------------------------------------------


def test_basic_sequence_vtol(vtol):
    tree = run_algorithm1(as_system(vtol, "vtol"))
    assert tree.algorithm == 1
    (branch,) = tree.branches
    assert branch.status == "reached-tangent-space"
    assert branch.ranks == (2, 4, 6)
    assert branch.tags == ("A", "B")
    # the drift step lands on a non-involutive member whose characteristic
    # directions vanish, so the terminal data degenerates to the whole chart
    assert branch.records[1].examined.is_involutive() is False
    assert branch.F is not None and branch.F.rank == 0
    assert branch.F_perp.rank == 6


def test_basic_sequence_chained(chained5):
    sys = as_system(chained5, "chained5")
    tree = run_algorithm1(sys)
    (branch,) = tree.branches
    assert branch.ranks == (2, 3, 4, 5)
    assert branch.tags == ("B", "B", "B")
    assert branch.F.rank == 2
    assert branch.F_perp.span_equal(_covspan(sys, ["z1", "z2", "z3"]))


def test_basic_sequence_single_step(brunovsky4):
    tree = run_algorithm1(brunovsky4)
    (branch,) = tree.branches
    assert branch.ranks == (2, 4)
    assert branch.tags == ("A",)
    assert branch.F.span_equal(branch.sequence[0])
    assert branch.F_perp.span_equal(_covspan(brunovsky4, ["z1", "z3"]))


def test_basic_sequence_stalls_without_drift(drift_free3):
    tree = run_algorithm1(drift_free3)
    (branch,) = tree.branches
    assert branch.status == "stalled"
    assert branch.ranks == (2,)
    assert branch.F is None and branch.F_perp is None
    assert extract_candidates(tree) == ()


# --- refined sequence -------------------------------------------------------------


def test_refined_forks_two_branches_vtol(vtol):
    sys = as_system(vtol, "vtol")
    tree = run_algorithm2(sys)
    assert tree.algorithm == 2
    assert [b.path for b in tree.branches] == [(0,), (1,)]
    for branch in tree.branches:
        assert branch.status == "reached-tangent-space"
        assert branch.tags == ("A", "C-i", "A")
        assert branch.ranks == (2, 3, 4, 6)
        assert branch.coranks == (1, 1, 2)
        step = branch.records[1]
        assert step.replaced is not None and step.replaced.rank == 3
        assert step.cauchy.rank == 0
        # membership condition degenerates to a1 * a2 = 0
        assert all(c.is_zero() for c in step.quad.c11)
        assert all(c.is_zero() for c in step.quad.c22)
        assert any(not c.is_zero() for c in step.quad.c12)
        sols = step.quad.solutions
        assert [(a.render(), b.render()) for a, b in sols] == [("1", "0"), ("0", "1")]
    # the admissible directions are the input fields themselves, in order
    assert tree.branches[0].records[1].vc == sys.g1
    assert tree.branches[1].records[1].vc == sys.g2


def test_refined_vtol_terminal_spans(vtol):
    sys = as_system(vtol, "vtol")
    ch = sys.chart
    first, second = run_algorithm2(sys).branches
    heading = CovectorField(
        ch,
        (ch.parse("cos(theta)"), ch.parse("sin(theta)"))
        + (ch.zero,) * 4,
    )
    span_a = Codistribution(
        ch, [differential(ch.sym("theta")), heading], sys.engine
    )
    span_b = Codistribution(
        ch,
        [
            differential(ch.parse("x - eps*sin(theta)")),
            differential(ch.parse("z + eps*cos(theta)")),
        ],
        sys.engine,
    )
    assert first.F_perp.span_equal(span_a)
    assert second.F_perp.span_equal(span_b)


def test_refined_single_branch_seven_state(seven_state):
    sys = as_system(seven_state, "seven")
    tree = run_algorithm2(sys)
    (branch,) = tree.branches
    assert branch.path == ()
    assert branch.status == "reached-tangent-space"
    assert branch.tags == ("A", "C-i", "C-i", "A")
    assert branch.ranks == (2, 3, 4, 5, 7)
    assert branch.coranks == (1, 1, 1, 2)
    first_c = branch.records[1]
    assert first_c.cauchy.rank == 1
    assert first_c.cauchy.contains_field(coordinate_field(sys.chart, "z7"))
    # both replacement steps admit exactly the second direction
    for rec in branch.records[1:3]:
        assert [(a.render(), b.render()) for a, b in rec.quad.solutions] == [("0", "1")]
    assert branch.F_perp.span_equal(_covspan(sys, ["z1", "z3"]))


def test_refined_closure_on_chained(chained5):
    sys = as_system(chained5, "chained5")
    tree = run_algorithm2(sys)
    (branch,) = tree.branches
    # the first member is already non-involutive with empty characteristic,
    # so one full closure jumps straight to the tangent space
    assert branch.tags == ("B",)
    assert branch.ranks == (2, 5)
    assert branch.F.rank == 0
    basic = run_algorithm1(sys).branches[0]
    stacked = Codistribution(
        sys.chart,
        list(branch.F_perp.covectors) + list(basic.F_perp.covectors),
        sys.engine,
    )
    # the basic sequence can only refine the refined one: F1-perp c F2-perp
    assert stacked.rank == branch.F_perp.rank


def test_leaf_reuses_the_rule_characteristic_and_dual(chained5):
    # the closed frontier is the member below T(X): its characteristic, taken
    # by the refined rule, is the leaf's F, and F-perp links back to F
    (branch,) = run_algorithm2(as_system(chained5, "chained5")).branches
    assert branch.F is branch.records[-1].cauchy
    assert branch.F_perp.coannihilator() is branch.F


def test_refined_matches_basic_when_no_replacement_needed(brunovsky4):
    basic = run_algorithm1(brunovsky4).branches[0]
    refined = run_algorithm2(brunovsky4).branches[0]
    assert basic.tags == refined.tags == ("A",)
    assert basic.ranks == refined.ranks
    assert basic.F_perp.span_equal(refined.F_perp)


def test_refined_finds_chain_outputs_ecf8(ecf8):
    sys = as_system(ecf8, "ecf8")
    tree = run_algorithm2(sys)
    (branch,) = tree.branches
    assert branch.tags == ("A", "A", "C-i", "A")
    assert branch.ranks == (2, 4, 5, 6, 8)
    assert branch.F_perp.span_equal(_covspan(sys, ["z11", "z12"]))
    (leaf,) = extract_candidates(tree)
    (pair,) = leaf.pairs
    assert pair.passed
    assert [h.render() for h in pair.functions] == ["z11", "z12"]
    assert pair.verdict.candidate.K == (3, 3)


def test_refined_stalls_without_drift(drift_free3):
    tree = run_algorithm2(drift_free3)
    (branch,) = tree.branches
    assert branch.status == "stalled"
    assert branch.ranks == (2,)


def _six_state(
    f: list[str], g1: list[str], g2: list[str], seed: int
) -> ControlAffineSystem:
    chart = Chart([f"x{i}" for i in range(1, 7)])

    def field(comps: list[str]):
        return field_from_dict(chart, dict(zip(chart.coordinates, comps)))

    return ControlAffineSystem(
        chart, ("u1", "u2"), field(f), field(g1), field(g2), RankEngine(seed=seed)
    )


@pytest.mark.parametrize("seed", range(5))
def test_refined_case_d_records_failed_precondition(seed):
    sys = _six_state(
        ["x3", "3*x1*x6", "2*x5", "0", "3*x1*x6 + 2*x5", "0"],
        ["0", "0", "0", "x1 + 2*x6", "0", "0"],
        ["0", "0", "0", "0", "x6 + 3", "1"],
        seed,
    )
    (branch,) = run_algorithm2(sys).branches
    assert branch.tags == ("A", "D", "A", "A")
    assert branch.ranks == (2, 3, 4, 5)
    assert branch.status == "stalled"
    assert branch.records[1].violation == "corank-two chain d0 c d1 c d2"
    assert [r.violation for r in branch.records if r.tag != "D"] == [None] * 3


def test_refined_case_d_on_a_vanishing_membership_condition(vtol, monkeypatch):
    """Every quadratic of the membership condition vanishing identically
    leaves v_c undetermined: case D, with no solutions recorded."""
    real = algorithms._membership_rows

    def vanishing(f, d2, v1, v2):
        zero = f.chart.zero
        return [(zero, zero, zero) for _ in real(f, d2, v1, v2)]

    monkeypatch.setattr(algorithms, "_membership_rows", vanishing)
    (branch,) = run_algorithm2(as_system(vtol, "vtol")).branches
    (step,) = [r for r in branch.records if r.tag == "D"]
    assert step.violation == "nondegenerate membership condition"
    assert step.quad.solutions == () and step.quad.c11
    assert all(c.is_zero() for c in step.quad.c11 + step.quad.c12 + step.quad.c22)


@pytest.mark.parametrize("seed", range(5))
def test_refined_case_c_ii_closes_without_candidate(seed):
    sys = _six_state(
        ["2*x3*x5", "x1 + 1", "3", "2*x1 + 2*x5", "3*x2*x4 + 1", "3*x6"],
        ["0", "0", "x3 + 3*x4", "2*x4 + 1", "0", "0"],
        ["x2", "0", "0", "0", "0", "1"],
        seed,
    )
    (branch,) = run_algorithm2(sys).branches
    assert branch.tags == ("A", "C-ii")
    assert branch.ranks == (2, 4, 6)
    assert branch.status == "reached-tangent-space"
    step = branch.records[1]
    assert step.quad.solutions == () and step.violation is None


# --- extraction -------------------------------------------------------------------


def test_extract_vtol_pairs(vtol):
    sys = as_system(vtol, "vtol")
    leaves = extract_candidates(run_algorithm2(sys))
    assert [leaf.branch.path for leaf in leaves] == [(0,), (1,)]
    verdicts = {}
    for leaf in leaves:
        assert leaf.shortfall == 0
        (pair,) = leaf.pairs
        verdicts[leaf.branch.path] = pair
    assert not verdicts[(0,)].passed
    assert verdicts[(0,)].verdict.spans_states is False
    good = verdicts[(1,)]
    assert good.passed
    assert [h.render() for h in good.functions] == [
        "-eps*sin(theta) + x",
        "eps*cos(theta) + z",
    ]
    assert good.verdict.candidate.K == (2, 2)


def test_extract_seven_state_pair(seven_state):
    sys = as_system(seven_state, "seven")
    (leaf,) = extract_candidates(run_algorithm2(sys))
    (pair,) = leaf.pairs
    assert pair.passed
    assert [h.render() for h in pair.functions] == ["z1", "z3"]
    assert pair.verdict.candidate.K == (2, 2)
    assert pair.verdict.candidate.d == 3


def test_extract_functions_only_above_corank_two(chained5):
    sys = as_system(chained5, "chained5")
    (leaf,) = extract_candidates(run_algorithm1(sys))
    assert leaf.pairs == ()
    assert leaf.shortfall == 0
    assert [h.render() for h in leaf.functions] == ["z1", "z2", "z3"]
    assert len(leaf.branch.F_perp.covectors) == 3


# --- candidate direction selection ------------------------------------------------


def _window_case(failed: str):
    """A window d0 c d1 c d2 on six coordinates whose first failed
    precondition is `failed`.  With e_i = d/dx_i: d0 = <e1>, d1 = <e1, e2, e3>
    and, unless the case replaces it, d2 = d1 + <e4 + x2 e6, e5>, which is
    not involutive since [e2, e4 + x2 e6] = e6."""
    chart = Chart([f"x{i}" for i in range(1, 7)])
    e = {name: coordinate_field(chart, name) for name in chart.coordinates}
    engine = RankEngine(seed=4)
    d0 = span(chart, (e["x1"],), engine)
    d1 = span(chart, (e["x1"], e["x2"], e["x3"]), engine)
    bent = e["x4"] + e["x6"].scale(chart.sym("x2"))
    d2 = sum_spans(d1, [bent, e["x5"]])
    f = zero_field(chart)
    if failed.startswith("d1 not inside"):
        d2 = sum_spans(d1, [e["x4"], e["x5"]])  # involutive: its own characteristic
    elif failed.startswith("[f, d0]"):
        f = field_from_dict(chart, {"x4": "x1"})  # [f, e1] = -e4
    return f, d0, d1, d2


def test_lemma_candidates_rejects_bad_corank(vtol):
    sys = as_system(vtol, "vtol")
    d1 = span(sys.chart, (sys.g1, sys.g2), sys.engine)
    d0 = span(sys.chart, (), sys.engine)
    failed = _lemma1_window(sys.f, d0, d1, d1, cauchy_characteristic(d1))
    assert failed == "corank-two chain d0 c d1 c d2"


# The corank and "d1 involutive" preconditions have their own tests.
@pytest.mark.parametrize(
    "failed",
    ["d1 not inside the Cauchy characteristic of d2", "[f, d0] inside d1"],
)
def test_lemma_candidates_rejects_failed_precondition(failed):
    f, d0, d1, d2 = _window_case(failed)
    assert _lemma1_window(f, d0, d1, d2, cauchy_characteristic(d2)) == failed


def test_lemma_candidates_rejects_non_involutive_middle():
    chart = Chart(["z1", "z2", "z3", "z4"])
    engine = RankEngine(seed=6)
    g1 = field_from_dict(chart, {"z1": "1", "z2": "z3"})
    g2 = field_from_dict(chart, {"z3": "1"})
    d1 = span(chart, (g1, g2), engine)
    d2 = sum_spans(d1, [coordinate_field(chart, "z2"), coordinate_field(chart, "z4")])
    d0 = span(chart, (), engine)
    failed = _lemma1_window(zero_field(chart), d0, d1, d2, cauchy_characteristic(d2))
    assert failed == "d1 involutive"


MODELS = Path(__file__).resolve().parent.parent / "models"
TEST_MODELS = Path(__file__).resolve().parent / "models"


def test_every_branch_rises_strictly_within_n_minus_two_records():
    """`_drive` needs no depth cap: its stall tests are strict, so the
    sampled ranks of a branch's members rise strictly from 2 to at most n,
    and a branch takes at most n - 2 records.  Over models/, tests/models/
    and the fully actuated model, both algorithms, prolongations (p, p) with
    p <= 2; the longest branch reaches the bound."""
    paths = sorted(MODELS.glob("*.json")) + sorted(TEST_MODELS.glob("*.json"))
    models = [load_model(path) for path in paths] + [model_from_dict(FULLY_ACTUATED_MODEL)]
    slack = []
    for model in models:
        base = build_system(model, 0)
        for p in range(3):
            system = prolong(base, p, p)
            for run in (run_algorithm1, run_algorithm2):
                for b in run(system).branches:
                    assert b.status in ("reached-tangent-space", "stalled")
                    assert all(lo < hi for lo, hi in zip(b.ranks, b.ranks[1:]))
                    assert len(b.records) <= system.n - 2
                    slack.append(system.n - 2 - len(b.records))
    assert len(slack) >= 40 and min(slack) == 0


@pytest.mark.parametrize("run", [run_algorithm1, run_algorithm2])
def test_an_under_read_member_stalls_the_branch(brunovsky4, monkeypatch, run):
    """A sampled rank can read too low.  The engine reads the drift step's
    member span{g1, g2, [f, g1], [f, g2]} at rank 1, below its base: the
    branch stalls there rather than go on from a member of lower rank."""
    engine = brunovsky4.engine
    sampled = engine.independent_rows

    def under_read(rows, chart):  # the first call on more than two rows
        if len(rows) <= 2:
            return sampled(rows, chart)
        monkeypatch.setattr(engine, "independent_rows", sampled)
        return sampled(rows, chart)[:1]

    monkeypatch.setattr(engine, "independent_rows", under_read)
    (branch,) = run(brunovsky4).branches
    assert branch.status == "stalled"
    assert branch.ranks == (2,) and branch.tags == ("A",)


def test_refined_windows_hold_the_unchecked_preconditions(monkeypatch):
    """`_lemma1_window` leaves the nested chain and the drift step unchecked:
    on every window the refined rule hands it, over the bundled models, their
    prolongations and three seeds, d0 c d1 c d2 and an involutive d1 drift
    steps to d2.  Every branch's final sequence is nested too."""
    calls = []

    def window(f, d0, d1, d2, cauchy):
        calls.append(d2)
        assert d1.contains(d0) and d2.contains(d1)
        if d1.is_involutive():
            assert _drift_step(f, d1).span_equal(d2)
        return _lemma1_window(f, d0, d1, d2, cauchy)

    monkeypatch.setattr(algorithms, "_lemma1_window", window)
    orders = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2)]
    for name in ("vtol", "example3", "example1"):
        model = load_model(MODELS / f"{name}.json")
        for seed in range(3):
            base = build_system(model, seed)
            for p1, p2 in orders:
                for b in run_algorithm2(prolong(base, p1, p2)).branches:
                    assert all(
                        hi.contains(lo) for lo, hi in zip(b.sequence, b.sequence[1:])
                    )
    assert len(calls) == 66


def test_each_record_examines_the_sequence_member_at_its_index():
    """A branch keeps one record per sequence step: record i examined
    member i, except a C-i record, whose rebuilt frontier took member i's
    place; member i + 1 is what the step produced."""
    tags = set()
    for name in ("vtol", "example3", "example1"):
        base = build_system(load_model(MODELS / f"{name}.json"), 0)
        for p1, p2 in [(0, 0), (1, 0), (2, 1)]:
            system = prolong(base, p1, p2)
            for run in (run_algorithm1, run_algorithm2):
                for b in run(system).branches:
                    for i, rec in enumerate(b.records):
                        tags.add(rec.tag)
                        if rec.tag == "C-i":
                            assert rec.replaced is b.sequence[i]
                        else:
                            assert rec.examined is b.sequence[i]
                            assert rec.replaced is None
    assert {"A", "B", "C-i"} <= tags


def test_membership_solver_paths():
    chart = Chart(["z1", "z2"])
    one, zero = chart.one, chart.zero
    z1 = chart.sym("z1")

    # every quadratic vanishes identically: the condition degenerates
    assert _solve_membership(chart, [(zero, zero, zero)]) is None

    # 1 + t^2 has no admissible root and the second direction is blocked
    assert _solve_membership(chart, [(one, zero, one)]) == []

    # t^2 = z1^2 factors exactly; both signs survive, second direction blocked
    sols = _solve_membership(chart, [(-(z1 * z1), zero, one)])
    assert [(a.render(), b.render()) for a, b in sols] == [("1", "z1"), ("1", "-z1")]

    # a pure cross term admits t = 0 and the second direction
    sols = _solve_membership(chart, [(zero, one, zero)])
    assert [(a.render(), b.render()) for a, b in sols] == [("1", "0"), ("0", "1")]

    # rows with different roots only share the second direction
    sols = _solve_membership(chart, [(zero, one, zero), (one, one, zero)])
    assert [(a.render(), b.render()) for a, b in sols] == [("0", "1")]

    # (t - r)(t - y) and (t - r)(t + 1) share the root r = x + 2 sin(theta):
    # the last row's discriminant is the square of a root that mixes sine
    # and sine-free terms, so its roots are r and -1, and only r zeroes the
    # first row
    chart = Chart(["x", "y", "theta"])
    r = chart.parse("x + 2*sin(theta)")
    rows = [(r * s, -(r + s) / 2, chart.one) for s in (chart.sym("y"), -chart.one)]
    (sol,) = _solve_membership(chart, rows)
    assert sol[0] == chart.one and (sol[1] - r).is_zero()


def test_expr_sqrt_finds_sine_factor():
    chart = Chart(["theta", "z1", "phi"])
    s, c, z1 = chart.parse("sin(theta)"), chart.parse("cos(theta)"), chart.sym("z1")
    sp, cp = chart.parse("sin(phi)"), chart.parse("cos(phi)")
    # canonical forms hold sin^2 as 1 - cos^2, so these squares show no sine;
    # the last three roots mix sine and sine-free terms, one over two angles
    # and one with a mixed numerator over a sine-free denominator
    for root in (
        2 * s,
        z1 * s,
        s / (1 + z1 * z1),
        (z1 + c) / s,
        z1 + 3 * s,
        (1 + s) * (c + z1 * sp + cp),
        (z1 * c + s) / (2 + c + z1 * z1),
    ):
        square = root * root
        found = exact_sqrt(square)
        assert found is not None and (found * found - square).is_zero()
    assert exact_sqrt(1 - c) is None
    assert exact_sqrt(z1 * (1 - c * c)) is None


def _reference_trig_sqrt(p, sin_to_cos):
    """The earlier root finder: a plain polynomial root, else one sine
    factor, since a canonical (q*sin)^2 arrives as (1 - cos^2)*q^2."""
    root = p_sqrt(p)
    if root is not None:
        return root
    for si, ci in sin_to_cos.items():
        q = p_div_exact(p, p_sub(p_const(1), p_mul(p_var(ci), p_var(ci))))
        root = None if q is None else p_sqrt(q)
        if root is not None:
            return p_mul(root, p_var(si))
    return None


def _reference_sqrt(e: Expr):
    num = _reference_trig_sqrt(p_mul(e.num, e.den), e.chart.sin_to_cos())
    if num is None:
        return None
    root = Expr(e.chart, num, e.den)
    return root if (root * root - e).is_zero() else None


_SQRT_CHART = Chart(["x", "theta", "phi"], ["eps"])
_SQRT_ATOMS = [
    _SQRT_CHART.parse(text)
    for text in ("x", "eps", "sin(theta)", "cos(theta)", "sin(phi)", "cos(phi)", "1", "2")
]


def _random_root(rng: random.Random) -> Expr:
    """A sum of up to three products of atoms over two angles and eps; 30%
    of them over a sine-free denominator and 20% times a sine."""
    chart = _SQRT_CHART
    r = chart.zero
    for _ in range(rng.randint(1, 3)):
        term = chart.const(rng.choice([1, -1, 2, -3, 5]))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(_SQRT_ATOMS)
        r = r + term
    if rng.random() < 0.3:
        r = r / (1 + chart.sym("x") ** 2 + rng.choice(_SQRT_ATOMS[:2]) * _SQRT_ATOMS[3])
    if rng.random() < 0.2:
        r = r * _SQRT_ATOMS[2]
    return r


@settings(max_examples=150)
@given(st.integers(0, 2**32))
def test_expr_sqrt_is_complete_and_matches_the_earlier_roots(seed):
    """Every square gets a root, the same one wherever the earlier finder
    gave one, and a square plus x gets none."""
    r = _random_root(random.Random(seed))
    square = r * r
    found = exact_sqrt(square)
    assert found is not None and found * found == square
    reference = _reference_sqrt(square)
    assert reference is None or reference == found
    assert exact_sqrt(square + _SQRT_CHART.sym("x")) is None


def test_expr_sqrt_over_four_angles_is_fast():
    """The half-angle map keeps each angle's degree: a square over four
    angles takes milliseconds, where squaring the degree per angle would
    take minutes."""
    chart = Chart(["a", "b", "c", "d", "x"])
    r = chart.parse("sin(a) + x*cos(b) + 2*sin(c)*cos(d) + sin(a)*sin(d) - 1")
    square = r * r
    start = time.perf_counter()
    found = exact_sqrt(square)
    assert time.perf_counter() - start < 1.0
    assert found == r


_STACK_CHART = Chart(["x", "y", "theta"])
_STACK_POOL = [
    _STACK_CHART.parse(text)
    for text in ("x", "y", "1", "2", "-3", "sin(theta)", "cos(theta)", "x*y", "1/(1 + x^2)")
]


def test_membership_stacks_keep_their_planted_roots():
    """Stacks of 1-4 rows, each l(t - r)(t - r2), l(t - r), l(1 + t^2) or
    zero, with l, r, r2 of the form a + b*c over a pool of trig and
    rational atoms: r is found whenever no 1 + t^2 row forbids it, every
    returned solution zeroes every row, and the solver stays fast."""
    chart, rng = _STACK_CHART, random.Random(150)

    def value() -> Expr:
        v = chart.zero
        while v.is_zero():
            v = rng.choice(_STACK_POOL) + rng.choice(_STACK_POOL) * rng.choice(_STACK_POOL)
        return v

    start, planted = time.perf_counter(), 0
    for _ in range(40):
        r, rows, blocked = value(), [], False
        for _ in range(rng.randint(1, 4)):
            kind, lam = rng.randrange(4), value()
            if kind == 0:
                r2 = value()
                rows.append((lam * r * r2, -lam * (r + r2) / 2, lam))
            elif kind == 1:
                rows.append((-lam * r, lam / 2, chart.zero))
            elif kind == 2:
                rows.append((lam, chart.zero, lam))
                blocked = True
            else:
                rows.append((chart.zero,) * 3)
        solutions = _solve_membership(chart, rows)
        if all(c.is_zero() for row in rows for c in row):
            assert solutions is None
            continue
        for a1, a2 in solutions:
            for c11, c12, c22 in rows:
                assert (c11 * a1 * a1 + 2 * c12 * a1 * a2 + c22 * a2 * a2).is_zero()
        if not blocked:
            assert (chart.one, r) in solutions
            planted += 1
    assert planted >= 10
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "b12, b21",
    [
        ("1", "0"),
        ("1", "sin(theta)"),
        ("sin(theta)", "1"),
        ("2", "1 + sin(theta)"),
        ("z", "x*sin(theta)"),
        ("vx", "sin(theta)"),
        ("x*sin(theta)", "cos(theta)"),
    ],
)
def test_refined_vtol_finds_huygens_under_trig_feedback(vtol, b12, b21):
    """beta = [[1, b12], [b21, 1]], whose columns are the new input fields.
    g2 <- g2 + g1 makes the Lemma-1 discriminant 4 - 4 cos(theta)^2, the
    square of 2 sin(theta); under the other feedbacks its root mixes sine
    and sine-free terms.  Both steps stay C-i and the Huygens output is
    found and verified."""
    sys = as_system(vtol, "vtol")
    chart = sys.chart
    beta = ((chart.one, chart.parse(b12)), (chart.parse(b21), chart.one))
    fed = apply_static_feedback(sys, (chart.zero, chart.zero), beta)
    tree = run_algorithm2(fed)
    assert [b.tags for b in tree.branches] == [("A", "C-i", "A")] * 2
    huygens = ["-eps*sin(theta) + x", "eps*cos(theta) + z"]
    passed = [
        [h.render() for h in pair.functions]
        for leaf in extract_candidates(tree)
        for pair in leaf.pairs
        if pair.passed
    ]
    assert passed == [huygens]
    phi = (chart.parse(huygens[0]), chart.parse(huygens[1]))
    assert verify_flat_output(output_jets(fed, phi)).passed


# --- the characteristic direction in triangular coordinates ------------------------


def _random_triangular(trial: int, rng: random.Random):
    """A triangular-form instance (two 3-chains over a two-row coupled block)
    with the last two rows depending on their successor coordinate."""
    chart = Chart([f"z{i}" for i in range(1, 9)])
    names = chart.coordinates

    def rand_poly(pool):
        terms = ["%d" % rng.randint(1, 3)]
        for _ in range(rng.randint(1, 2)):
            a, b = rng.choice(pool), rng.choice(pool)
            terms.append("%d*%s*%s" % (rng.randint(1, 2), a, b))
        return " + ".join(terms)

    deep = trial % 2 == 0
    a6 = rand_poly(names[:6]) + " + %d*z7" % rng.randint(1, 2)
    a7 = rand_poly(names[:7]) + " + %d*z8" % rng.randint(1, 2)
    b7 = rand_poly(names[:7])
    if deep:
        a7 += " + %d*z7*z7" % rng.randint(1, 2)
    else:
        a7 += " + %d*z8*z8" % rng.randint(1, 2)
        if rng.random() < 0.4:
            b7 += " + z8"
    f = field_from_dict(
        chart,
        {"z1": "z2", "z2": "z3", "z4": "z5", "z5": "z6", "z6": a6, "z7": a7},
    )
    g1 = field_from_dict(chart, {"z3": "1", "z6": "1", "z7": b7})
    g2 = field_from_dict(chart, {"z8": "1"})
    return chart, f, g1, g2, RankEngine(seed=1000 + trial)


def test_characteristic_direction_in_triangular_coordinates():
    """In triangular coordinates, once D_1 .. D_p are involutive and D_{p+1}
    is not, the coordinate direction d/dz^{n-(p-1)} has its double drift
    bracket inside D_{p+1} -- it is always an admissible candidate."""
    rng = random.Random(99)
    found = 0
    deep_cases = 0
    nonzero_brackets = 0
    trial = 0
    while found < 10 and trial < 80:
        trial += 1
        chart, f, g1, g2, engine = _random_triangular(trial, rng)
        seq = [span(chart, (g1, g2), engine)]
        p = None
        for i in range(1, 8):
            cur = seq[-1]
            if not cur.is_involutive():
                p = i - 1
                break
            grown = sum_spans(cur, [lie_bracket(f, b) for b in cur.basis()])
            if grown.rank == cur.rank or grown.rank == 8:
                break
            seq.append(grown)
        if p is None or not 1 <= p <= 2:
            continue
        found += 1
        deep_cases += p == 2
        candidate_dir = coordinate_field(chart, f"z{8 - (p - 1)}")
        double = lie_bracket(candidate_dir, lie_bracket(candidate_dir, f))
        nonzero_brackets += not double.is_zero()
        assert seq[-1].contains_field(double)
    assert found == 10
    assert deep_cases >= 2
    assert nonzero_brackets >= 2


# --- feedback invariance ----------------------------------------------------------


def _random_feedback(sys: ControlAffineSystem, rng: random.Random, pool):
    ch = sys.chart

    def poly():
        terms = ["%d" % rng.randint(-2, 2)]
        for _ in range(rng.randint(0, 2)):
            terms.append("%d*%s" % (rng.randint(-2, 2), rng.choice(pool)))
        return ch.parse(" + ".join(terms))

    alpha = (poly(), poly())
    if rng.random() < 0.5:
        beta = ((ch.one, poly()), (ch.zero, ch.one))
    else:
        beta = ((poly(), ch.one), (ch.one, ch.zero))
    return apply_static_feedback(sys, alpha, beta)


@pytest.mark.parametrize("trial", range(3))
def test_refined_tree_is_feedback_invariant(vtol, trial):
    sys = as_system(vtol, "vtol")
    base = run_algorithm2(sys)
    rng = random.Random(300 + trial)
    fed = run_algorithm2(_random_feedback(sys, rng, ["x", "z", "vx", "vz"]))
    assert len(fed.branches) == len(base.branches)
    assert sorted(b.tags for b in fed.branches) == sorted(b.tags for b in base.branches)
    # branches may trade places; terminal spans must match one-for-one
    remaining = list(fed.branches)
    for b in base.branches:
        hits = [i for i, c in enumerate(remaining) if b.F_perp.span_equal(c.F_perp)]
        assert hits, f"no feedback branch matches {b.path}"
        remaining.pop(hits[0])


@pytest.mark.parametrize("trial", range(3))
def test_basic_sequence_is_feedback_invariant(seven_state, trial):
    sys = as_system(seven_state, "seven")
    base = run_algorithm1(sys).branches[0]
    rng = random.Random(500 + trial)
    fed = run_algorithm1(
        _random_feedback(sys, rng, list(sys.states[:5]))
    ).branches[0]
    assert fed.ranks == base.ranks
    assert fed.status == base.status
    for mine, theirs in zip(base.sequence, fed.sequence):
        assert mine.span_equal(theirs)
