"""Control-affine system analyses: relative degrees, static feedback,
the invariant codistribution sequence, prolongation, and output verification."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import flatkit.distributions
import flatkit.system
from flatkit import (
    Chart,
    Codistribution,
    ControlAffineSystem,
    RankEngine,
    apply_static_feedback,
    build_system,
    candidate,
    differential,
    field_from_dict,
    flat_indices,
    lie_derivative,
    load_model,
    output_jets,
    parse,
    prolong,
    q_sequence,
    sfe_gtf_test,
    transfer,
    verify_flat_output,
)
from flatkit.errors import (
    DependentDifferentialsError,
    InputTransformError,
    InvalidIndicesError,
    RankDisagreementError,
    UnboundedRelativeDegreeError,
)

from conftest import as_system

MODELS = Path(__file__).resolve().parent.parent / "models"


def pitch_pair(plant):
    """The non-flat candidate produced by the first branch of the analysis."""
    return (
        plant.chart.sym("theta"),
        parse(plant.chart, "x*cos(theta)/sin(theta) + z"),
    )


# --- construction ---------------------------------------------------------------


def test_system_requires_distinct_inputs(vtol):
    with pytest.raises(ValueError):
        ControlAffineSystem(
            vtol.chart, ("u1", "u1"), vtol.f, vtol.g1, vtol.g2, vtol.engine
        )


def test_system_rejects_input_colliding_with_state(vtol):
    with pytest.raises(ValueError):
        ControlAffineSystem(
            vtol.chart, ("theta", "u2"), vtol.f, vtol.g1, vtol.g2, vtol.engine
        )


def test_system_rejects_dependent_input_fields(vtol):
    with pytest.raises(ValueError):
        ControlAffineSystem(
            vtol.chart,
            ("u1", "u2"),
            vtol.f,
            vtol.g1,
            vtol.g1.scale(vtol.chart.const(2)),
            vtol.engine,
        )


def test_states_property(vtol):
    sys = as_system(vtol)
    assert sys.n == 6
    assert sys.states == ("x", "z", "theta", "vx", "vz", "omega")


# --- jet charts and the total-derivative field ----------------------------------
#
# The input-jet space with J derivative levels per input is the (J+1, J+1)
# prolongation; its drift is the total-derivative field.


def test_jet_chart_levels(vtol):
    sys = as_system(vtol)
    ch = prolong(sys, 2, 2).chart
    assert ch.coordinates == sys.states + ("u1", "u1_d1", "u2", "u2_d1")


def test_total_field_shifts_input_derivatives(vtol):
    sys = as_system(vtol)
    total = prolong(sys, 2, 2).f
    ch = total.chart
    pos = {name: i for i, name in enumerate(ch.coordinates)}
    assert total.components[pos["u1"]] == ch.sym("u1_d1")
    assert total.components[pos["u1_d1"]].is_zero()


def test_total_field_derivatives_vtol(vtol):
    sys = as_system(vtol)
    total = prolong(sys, 3, 3).f
    ch = total.chart
    assert lie_derivative(ch.sym("x"), total) == ch.sym("vx")
    assert lie_derivative(lie_derivative(ch.sym("x"), total), total) == parse(
        ch, "eps*cos(theta)*u2 - sin(theta)*u1"
    )


def test_total_field_derivatives_example1(example1):
    sys = as_system(example1)
    total = prolong(sys, 2, 2).f
    ch = total.chart
    assert lie_derivative(ch.sym("x2"), total) == parse(ch, "x3 + x4*u1")


# --- relative degree ------------------------------------------------------------


def test_relative_degree_example1(example1):
    sys = as_system(example1)
    ch = sys.chart
    assert candidate(sys, (ch.sym("x1"), ch.sym("x2"))).K == (1, 1)


def test_relative_degree_vtol_pitch_pair(vtol):
    assert candidate(as_system(vtol), pitch_pair(vtol)).K == (2, 2)


def test_relative_degree_seven_state(seven_state):
    sys = as_system(seven_state)
    ch = sys.chart
    assert candidate(sys, (ch.sym("z1"), ch.sym("z3"))).K == (2, 2)


def test_relative_degree_matches_chain_lengths(ecf8):
    # both output chains have length one and feed the short driving chain,
    # so each output needs three derivatives to reach an input
    sys = as_system(ecf8)
    ch = sys.chart
    assert candidate(sys, (ch.sym("z11"), ch.sym("z12"))).K == (3, 3)


def test_relative_degree_unbounded_for_autonomous_coordinate():
    chart = Chart(["x1", "x2", "x3"])
    f = field_from_dict(chart, {"x1": "x1"})
    g1 = field_from_dict(chart, {"x2": "1"})
    g2 = field_from_dict(chart, {"x3": "1"})
    sys = ControlAffineSystem(chart, ("u1", "u2"), f, g1, g2, RankEngine(seed=2))
    with pytest.raises(UnboundedRelativeDegreeError):
        candidate(sys, (chart.sym("x1"), chart.sym("x2")))


# --- index bookkeeping ----------------------------------------------------------


def test_flat_indices_values():
    assert flat_indices(5, (1, 1)) == ((4, 4), 3)
    assert flat_indices(6, (2, 2)) == ((4, 4), 2)
    assert flat_indices(7, (2, 2)) == ((5, 5), 3)
    assert flat_indices(4, (2, 2)) == ((2, 2), 0)


def test_flat_indices_identities():
    for n in range(2, 9):
        for k1 in range(1, n):
            for k2 in range(1, n - k1 + 1):
                (r1, r2), d = flat_indices(n, (k1, k2))
                assert r1 - k1 == r2 - k2 == d == n - k1 - k2
                assert r1 + k2 == n and r2 + k1 == n


def test_flat_indices_rejects_bad_degrees():
    with pytest.raises(InvalidIndicesError):
        flat_indices(5, (0, 2))
    with pytest.raises(InvalidIndicesError):
        flat_indices(5, (3, 3))


def test_candidate_carries_indices(example1):
    sys = as_system(example1)
    ch = sys.chart
    cand = candidate(sys, (ch.sym("x1"), ch.sym("x2")))
    assert cand.K == (1, 1) and cand.R == (4, 4) and cand.d == 3


def test_candidate_rejects_dependent_pair(example1):
    sys = as_system(example1)
    ch = sys.chart
    with pytest.raises(DependentDifferentialsError):
        candidate(sys, (ch.sym("x1"), ch.sym("x1") * ch.const(3)))


# --- one derivative ladder per output ---------------------------------------------


def test_output_jets_climbs_each_jet_rung_once(vtol, monkeypatch):
    """The rungs below K come from the candidate's drift ladder; only the
    R_i - K_i rungs above it are total derivatives on the jet chart."""
    real = flatkit.system.lie_derivative
    charts = []

    def counting(h, v):
        charts.append(v.chart)
        return real(h, v)

    monkeypatch.setattr(flatkit.system, "lie_derivative", counting)
    jets = output_jets(as_system(vtol), pitch_pair(vtol))
    cand = jets.candidate
    on_jets = sum(1 for ch in charts if ch is jets.chart)
    assert on_jets == sum(r - k for r, k in zip(cand.R, cand.K)) == 4


@pytest.mark.parametrize(
    "source, orders, output",
    [
        ("example1", (1, 0), ("x1", "x2")),
        ("example1", (2, 1), ("x1", "x2")),
        ("example3", (0, 0), ("z1", "z3")),
        ("vtol", (0, 0), ("x - eps*sin(theta)", "z + eps*cos(theta)")),
        ("vtol", (0, 0), ("theta", "x*cos(theta)/sin(theta) + z")),
        ("seven_state", (0, 0), ("z1", "z3")),
        ("ecf8", (0, 0), ("z11", "z12")),
    ],
    ids=[
        "example1-p10",
        "example1-p21",
        "example3",
        "vtol",
        "vtol-pitch",
        "seven_state",
        "ecf8",
    ],
)
def test_jet_ladder_matches_the_total_derivative_climb(request, source, orders, output):
    """The reference climbs every rung from phi_i along the total-derivative
    field; it agrees with the drift rungs below K (L_g L_f^j phi_i = 0
    there) extended on the jet chart."""
    if source == "example3":
        sys = build_system(load_model(MODELS / "example3.json"))
    else:
        sys = as_system(request.getfixturevalue(source))
    sys = prolong(sys, *orders)
    phi = tuple(parse(sys.chart, text) for text in output)
    jets = output_jets(sys, phi)
    r = max(jets.candidate.R)
    total = prolong(sys, r, r).f
    assert total.chart.coordinates == jets.chart.coordinates
    for h, r_i, got in zip(phi, jets.candidate.R, jets.differentials):
        ladder = [transfer(h, total.chart)]
        while len(ladder) < r_i:
            ladder.append(lie_derivative(ladder[-1], total))
        assert len(got) == r_i
        for e, cov in zip(ladder, got):
            ref = differential(e).components
            assert [transfer(c, jets.chart) for c in ref] == list(cov.components)


# --- static feedback --------------------------------------------------------------


def test_static_feedback_requires_invertible_matrix(seven_state):
    sys = as_system(seven_state)
    one, zero = sys.chart.one, sys.chart.zero
    with pytest.raises(InputTransformError):
        apply_static_feedback(sys, (zero, zero), ((one, one), (one, one)))


# --- the invariant codistribution sequence --------------------------------------


def test_q_sequence_example1_original(example1):
    sys = as_system(example1)
    ch = sys.chart
    res = sfe_gtf_test(output_jets(sys, (ch.sym("x1"), ch.sym("x2"))))
    assert not res.passed
    assert [r.index for r in res.reports] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert [r.rank for r in res.reports] == [2, 3, 4, 5]
    assert [r.integrable for r in res.reports] == [True, False, True, True]


def test_q_sequence_example1_prolonged_spans(example1):
    """After one integrator per input the sequence straightens out:
    every member is spanned by state differentials alone and is integrable."""
    sys = prolong(as_system(example1), 1, 1)
    ch = sys.chart
    res = sfe_gtf_test(output_jets(sys, (ch.sym("x1"), ch.sym("x2"))))
    assert res.passed
    assert [r.index for r in res.reports] == [(1, 1), (2, 2), (3, 3), (4, 4)]
    expected = [
        ["x1", "x2", "u1", "x3 + u1*x4"],
        ["x1", "x2", "x3", "x4", "u1"],
        ["x1", "x2", "x3", "x4", "x5", "u1"],
        list(sys.states),
    ]
    for q, names in zip(res.codistributions, expected):
        jc = q.chart
        want = Codistribution(
            jc, [differential(parse(jc, text)) for text in names], sys.engine
        )
        assert q.span_equal(want)


def test_sampled_q_rank_is_checked_by_its_coannihilator(example1, monkeypatch):
    """A Q_j rank is sampled; the exact coannihilator that the integrability
    test builds catches a sampled rank that came out one too low."""
    sys = prolong(as_system(example1), 1, 1)
    ch = sys.chart
    q = q_sequence(output_jets(sys, (ch.sym("x1"), ch.sym("x2"))))[-1]
    engine = q.engine
    sampled = engine.independent_rows

    def drop_last_pick(rows, chart):  # for one call
        monkeypatch.setattr(engine, "independent_rows", sampled)
        return sampled(rows, chart)[:-1]

    monkeypatch.setattr(engine, "independent_rows", drop_last_pick)
    assert q.rank == sys.n - 1
    with pytest.raises(RankDisagreementError):
        q.is_integrable()


def test_repeated_q_is_decided_once(monkeypatch):
    """On the pinned vtol pitch question Q_2 has the covectors of Q_1, so it
    is the same object, and only Q_0 and Q_1 build a coannihilator."""
    sys = build_system(load_model(MODELS / "vtol.json"))
    phi = (sys.chart.parse("theta"), sys.chart.parse("x*cos(theta)/sin(theta) + z"))
    jets = output_jets(sys, phi)
    builds = []
    nullspace = flatkit.distributions.right_nullspace
    monkeypatch.setattr(
        flatkit.distributions,
        "right_nullspace",
        lambda *args, **kw: builds.append(args) or nullspace(*args, **kw),
    )
    res = sfe_gtf_test(jets)
    q0, q1, q2 = res.codistributions
    assert q2 is q1 and q1 is not q0
    assert [r.rank for r in res.reports] == [4, 5, 5]
    assert len(builds) == 2


def _assert_triangular(sys, output, K, d, ranks):
    """The triangular form contains the established normal forms (Brunovsky
    for d = 0, chained, a general triangular block): the output has degrees
    K and index d, each Q_j has the given rank and is integrable, and the
    rank check passes."""
    jets = output_jets(sys, tuple(sys.chart.sym(name) for name in output))
    res = sfe_gtf_test(jets)
    assert res.candidate.K == K and res.candidate.d == d
    indices = [(K[0] - 1 + i, K[1] - 1 + i) for i in range(d + 1)]
    assert [r.index for r in res.reports] == indices
    assert [r.rank for r in res.reports] == ranks
    assert all(r.integrable for r in res.reports) and res.passed
    assert verify_flat_output(jets).passed


def test_sfe_brunovsky4(brunovsky4):
    _assert_triangular(brunovsky4, ("z1", "z3"), (2, 2), 0, [4])


def test_sfe_chained5(chained5):
    _assert_triangular(as_system(chained5), ("z1", "z2"), (1, 1), 3, [2, 3, 4, 5])


def test_sfe_seven_state(seven_state):
    _assert_triangular(as_system(seven_state), ("z1", "z3"), (2, 2), 3, [4, 5, 6, 7])


def test_sfe_ecf8(ecf8):
    # not written in the layout of the form; the test is geometric
    _assert_triangular(as_system(ecf8), ("z11", "z12"), (3, 3), 2, [6, 7, 8])


def test_sequence_is_feedback_invariant(seven_state, rng):
    """Regular static feedback must not change the sequence ranks, the
    triangularizability verdict, or the verification verdict."""
    sys = as_system(seven_state)
    ch = sys.chart
    phi = (ch.sym("z1"), ch.sym("z3"))
    base_ranks = [q.rank for q in q_sequence(output_jets(sys, phi))]
    names = list(ch.coordinates)

    def affine():
        out = ch.const(rng.randint(-2, 3))
        for _ in range(rng.randint(0, 2)):
            out = out + ch.const(rng.randint(1, 3)) * ch.sym(rng.choice(names))
        return out

    for _ in range(20):
        alpha = (affine(), affine())
        while True:
            beta = ((affine(), affine()), (affine(), affine()))
            det = beta[0][0] * beta[1][1] - beta[0][1] * beta[1][0]
            if not det.is_zero():
                break
        jets = output_jets(apply_static_feedback(sys, alpha, beta), phi)
        sfe = sfe_gtf_test(jets)
        assert [r.rank for r in sfe.reports] == base_ranks
        assert sfe.passed
        assert verify_flat_output(jets).passed


# --- prolongation ---------------------------------------------------------------


def test_prolong_zero_orders_is_identity(example1):
    sys = as_system(example1)
    assert prolong(sys, 0, 0) is sys


def test_prolong_rejects_negative_order(example1):
    with pytest.raises(ValueError):
        prolong(as_system(example1), -1, 0)


def test_prolong_names_and_dynamics(example1):
    sys = as_system(example1)
    ext = prolong(sys, 1, 1)
    assert ext.states == ("x1", "x2", "x3", "x4", "x5", "u1", "u2")
    assert ext.inputs == ("u1_d1", "u2_d1")
    ch = ext.chart
    pos = {name: i for i, name in enumerate(ch.coordinates)}
    # the old input now multiplies its field inside the drift
    assert ext.f.components[pos["x2"]] == parse(ch, "x3 + x4*u1")
    # the new input drives the added integrator state
    assert ext.g1.components[pos["u1"]] == ch.one


def test_prolong_mixed_orders(example1):
    ext = prolong(as_system(example1), 1, 0)
    assert ext.states == ("x1", "x2", "x3", "x4", "x5", "u1")
    assert ext.inputs == ("u1_d1", "u2")


def test_prolong_raises_relative_degree(vtol):
    sys = as_system(vtol)
    ext = prolong(sys, 2, 2)
    assert ext.n == 10
    phi = (ext.chart.sym("theta"), parse(ext.chart, "x*cos(theta)/sin(theta) + z"))
    assert candidate(ext, phi).K == (4, 4)


@pytest.mark.parametrize("p", [1, 2])
def test_prolongation_preserves_verification(seven_state, p):
    sys = as_system(seven_state)
    ch = sys.chart
    phi = (ch.sym("z1"), ch.sym("z3"))
    base = verify_flat_output(output_jets(sys, phi))
    assert base.passed
    ext = prolong(sys, p, p)
    phi = (ext.chart.sym("z1"), ext.chart.sym("z3"))
    verdict = verify_flat_output(output_jets(ext, phi))
    assert verdict.passed
    assert verdict.candidate.K == (2 + p, 2 + p)
    assert verdict.candidate.R == (5 + p, 5 + p)
    assert verdict.candidate.d == base.candidate.d == 3


# --- flat-output verification ---------------------------------------------------


def test_verify_rejects_pitch_pair(vtol):
    verdict = verify_flat_output(output_jets(as_system(vtol), pitch_pair(vtol)))
    assert not verdict.passed
    assert not verdict.spans_states
    assert verdict.candidate.R == (4, 4)


def test_verify_accepts_exactly_one_sign_variant(vtol):
    ch = vtol.chart
    sys = as_system(vtol)
    variants = [
        (parse(ch, "x - eps*sin(theta)"), parse(ch, "z + eps*cos(theta)")),
        (parse(ch, "x - eps*cos(theta)"), parse(ch, "z + eps*sin(theta)")),
    ]
    verdicts = [verify_flat_output(output_jets(sys, phi)) for phi in variants]
    assert [v.passed for v in verdicts] == [True, False]
    assert verdicts[0].candidate.K == (2, 2)


def test_verify_seven_state(seven_state):
    sys = as_system(seven_state)
    ch = sys.chart
    verdict = verify_flat_output(output_jets(sys, (ch.sym("z1"), ch.sym("z3"))))
    assert verdict.passed
    assert verdict.candidate.K == (2, 2) and verdict.candidate.d == 3
    assert verdict.stacked_rank == verdict.required_rank == 10


def test_verify_example1_original(example1):
    # the pair is flat from the start; prolongation is only needed to
    # reach the triangular form, not for flatness itself
    sys = as_system(example1)
    ch = sys.chart
    assert verify_flat_output(output_jets(sys, (ch.sym("x1"), ch.sym("x2")))).passed


def test_verify_ecf8(ecf8):
    sys = as_system(ecf8)
    ch = sys.chart
    verdict = verify_flat_output(output_jets(sys, (ch.sym("z11"), ch.sym("z12"))))
    assert verdict.passed and verdict.stacked_rank == 10
