"""Distribution and codistribution operations on the worked plants."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatkit.algorithms import extract_candidates, run_algorithm1, run_algorithm2
from flatkit.distributions import (
    Codistribution,
    Distribution,
    cauchy_characteristic,
    derived_step,
    first_integrals,
    intersect,
    intersect_with_coordinates,
    involutive_closure,
    span,
    sum_spans,
)
from flatkit import distributions, linalg
from flatkit.errors import NotIntegrableError, RankDisagreementError
from flatkit.expr import Chart
from flatkit.fields import (
    CovectorField,
    VectorField,
    differential,
    fields_matrix,
    lie_bracket,
    pair,
)
from flatkit.linalg import RankEngine, combine_rows, echelon, normalize_vector, right_nullspace
from flatkit.modelfile import build_system, load_model
from flatkit.parser import parse
from flatkit.system import prolong

from conftest import (
    coordinate_covector,
    coordinate_field,
    field_from_dict,
    neg_field,
    random_polynomial,
)


def input_ladder(plant, steps):
    """span{g1, g2}, then repeatedly add the drift brackets of a basis."""
    d = span(plant.chart, (plant.g1, plant.g2), plant.engine)
    out = [d]
    for _ in range(steps):
        d = sum_spans(d, [lie_bracket(plant.f, b) for b in d.basis()])
        out.append(d)
    return out


# --- spans, ranks, annihilators ---


def test_vtol_input_distribution(vtol):
    d1 = span(vtol.chart, (vtol.g1, vtol.g2), vtol.engine)
    assert d1.rank == 2
    assert d1.chart.dim - d1.rank == 4
    assert d1.is_involutive()
    assert d1.annihilator().rank == 4


def test_vtol_first_extension_not_involutive(vtol):
    d1, d2 = input_ladder(vtol, 1)
    assert d2.rank == 4
    assert not d2.is_involutive()
    assert d2.contains(d1)
    assert not d1.contains(d2)


def test_vtol_second_extension_fills_tangent_space(vtol):
    d3 = input_ladder(vtol, 2)[2]
    assert d3.rank == 6
    assert d3.is_involutive()
    assert d3.annihilator().is_empty()


def test_vtol_quadratic_bracket_memberships(vtol):
    # [g1,[g1,f]] vanishes, [g2,[g2,f]] = -2 eps g1, [g1,[g2,f]] leaves D2.
    d2 = input_ladder(vtol, 1)[1]
    b11 = lie_bracket(vtol.g1, lie_bracket(vtol.g1, vtol.f))
    b22 = lie_bracket(vtol.g2, lie_bracket(vtol.g2, vtol.f))
    b12 = lie_bracket(vtol.g1, lie_bracket(vtol.g2, vtol.f))
    assert b11.is_zero()
    assert (b22 + vtol.g1.scale(parse(vtol.chart, "2*eps"))).is_zero()
    assert d2.contains_field(b11)
    assert d2.contains_field(b22)
    assert not d2.contains_field(b12)


def test_generic_rank_matches_distribution_rank(vtol):
    d2 = input_ladder(vtol, 1)[1]
    assert span(vtol.chart, d2.fields, vtol.engine).rank == 4
    assert span(vtol.chart, [], vtol.engine).rank == 0


def test_empty_distribution(vtol):
    d = span(vtol.chart, (), vtol.engine)
    assert d.rank == 0
    assert d.is_empty()
    assert d.annihilator().rank == 6
    assert d.is_involutive()


def test_rank_plus_annihilator_rank_is_dimension(rng):
    chart = Chart(["a", "b", "c", "d"])
    engine = RankEngine(seed=5)
    for _ in range(12):
        k = rng.randint(1, 4)
        fields = []
        for _ in range(k):
            comps = tuple(random_polynomial(chart, rng, 1) for _ in range(4))
            fields.append(VectorField(chart, comps))
        d = span(chart, fields, engine)
        assert d.rank + d.annihilator().rank == chart.dim


# --- the dual link ---


def _random_spans(plant, rng):
    """Some of f, g1, g2, [f, g1], [f, g2] plus up to two fields
    d/da + p d/db with p random and linear, and the differentials of one to
    three random quadratics.  (Dense random fields next to the trig fields
    of vtol send the nullspace into slow multivariate gcds.)"""
    chart = plant.chart
    pool = [plant.f, plant.g1, plant.g2]
    pool += [lie_bracket(plant.f, plant.g1), lie_bracket(plant.f, plant.g2)]
    fields = rng.sample(pool, rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        a, b = (coordinate_field(chart, rng.choice(chart.coordinates)) for _ in "ab")
        fields.append(a + b.scale(random_polynomial(chart, rng, 1)))
    covs = [differential(random_polynomial(chart, rng, 2)) for _ in range(rng.randint(1, 3))]
    return span(chart, fields, plant.engine), Codistribution(chart, covs, plant.engine)


@pytest.mark.parametrize("plant", ["vtol", "seven_state"])
def test_dual_round_trip_recovers_the_span(request, rng, plant):
    plant = request.getfixturevalue(plant)
    chart, engine = plant.chart, plant.engine
    for _ in range(6):
        d, q = _random_spans(plant, rng)
        ann, coann = d.annihilator(), q.coannihilator()
        assert d.rank + ann.rank == chart.dim
        assert q.rank + coann.rank == chart.dim
        # through fresh spans, so that each way back runs its own nullspace
        assert Codistribution(chart, ann.covectors, engine).coannihilator().span_equal(d)
        assert span(chart, coann.fields, engine).annihilator().span_equal(q)
        # through the recorded link
        assert ann.coannihilator().span_equal(d)
        assert coann.annihilator().span_equal(q)


def test_dual_of_dual_is_the_source(vtol):
    chart = vtol.chart
    for d in input_ladder(vtol, 2):
        assert d.annihilator().coannihilator() is d
    q = Codistribution(chart, (coordinate_covector(chart, "x"),), vtol.engine)
    assert q.coannihilator().annihilator() is q


def test_sampled_rank_is_cross_checked_by_the_dual(vtol, monkeypatch):
    chart, engine = vtol.chart, vtol.engine
    d = span(chart, (vtol.g1, vtol.g2), engine)
    q = Codistribution(chart, [coordinate_covector(chart, n) for n in ("x", "z")], engine)
    exact = q.coannihilator()  # rank 4 from the nullspace, basis not yet read
    # an engine that misses the last row
    monkeypatch.setattr(engine, "independent_rows", lambda rows, ch: list(range(len(rows) - 1)))
    with pytest.raises(RankDisagreementError):
        d.annihilator()
    with pytest.raises(RankDisagreementError):
        Codistribution(chart, q.covectors, engine).coannihilator()
    # a dual's basis is its nullspace, never sampled
    def refuse(rows, ch):
        raise AssertionError("a dual span was sampled")

    monkeypatch.setattr(engine, "independent_rows", refuse)
    sols = right_nullspace(fields_matrix(q.covectors), chart, ncols=chart.dim)
    assert [b.components for b in exact.basis()] == [tuple(s) for s in sols]
    assert exact.rank == len(sols) == 4


# --- coordinate spans ---


def _jet_chart():
    """Four states and two input jets of order three, as in a Q sequence."""
    jets = [f"u{j}_{k}" for j in (1, 2) for k in range(4)]
    return Chart([f"x{i}" for i in range(1, 5)] + jets)


def _rows(chart, entries):
    """Component tuples from {coordinate: text} dicts."""
    return [
        tuple(parse(chart, e.get(name, "0")) for name in chart.coordinates)
        for e in entries
    ]


def _fields(chart, entries):
    return [VectorField(chart, r) for r in _rows(chart, entries)]


# span{dx1, dx3} and span{d/dx1, d/dx3}, with non-constant coefficients
_COORDINATE_SPAN = [{"x1": "x2 + u1_0", "x3": "x4^2"}, {"x3": "u2_1*x1"}]


def test_coordinate_spans_need_no_dual(monkeypatch):
    chart = _jet_chart()
    engine = RankEngine(seed=19)
    rows = _rows(chart, _COORDINATE_SPAN)
    q = Codistribution(chart, [CovectorField(chart, r) for r in rows], engine)
    d = span(chart, [VectorField(chart, r) for r in rows], engine)

    def refuse(*args, **kwargs):
        raise AssertionError("an exact dual or a bracket was built")

    monkeypatch.setattr(distributions, "right_nullspace", refuse)
    monkeypatch.setattr(distributions, "lie_bracket", refuse)
    assert q.is_integrable() and q.rank == 2
    assert d.is_involutive() and d.rank == 2
    # the first generator alone is no coordinate span, so it needs the dual
    w1 = Codistribution(chart, q.covectors[:1], engine)
    with pytest.raises(AssertionError, match="exact dual"):
        w1.is_integrable()


def test_the_dual_of_a_coordinate_span_takes_no_elimination(monkeypatch):
    """The dual of a coordinate span is the units of its untouched columns,
    the vectors the nullspace gives, with no echelon."""
    chart = _jet_chart()
    engine = RankEngine(seed=19)
    rows = _rows(chart, _COORDINATE_SPAN)
    expected = right_nullspace(rows, chart, ncols=chart.dim)
    q = Codistribution(chart, [CovectorField(chart, r) for r in rows], engine)
    d = span(chart, [VectorField(chart, r) for r in rows], engine)

    def refuse(*args, **kwargs):
        raise AssertionError("an echelon was taken")

    monkeypatch.setattr(linalg, "echelon", refuse)
    assert [w.components for w in d.annihilator().covectors] == [tuple(s) for s in expected]
    assert [v.components for v in q.coannihilator().fields] == [tuple(s) for s in expected]
    assert len(expected) == chart.dim - 2
    # a span that is not a coordinate span still eliminates
    w1 = Codistribution(chart, q.covectors[:1], engine)
    with pytest.raises(AssertionError, match="echelon"):
        w1.coannihilator()


def test_coordinate_span_under_a_lying_engine_meets_the_cross_check(monkeypatch):
    chart = _jet_chart()
    engine = RankEngine(seed=19)
    rows = _rows(chart, _COORDINATE_SPAN)
    q = Codistribution(chart, [CovectorField(chart, r) for r in rows], engine)
    # three fields touching three columns; the first two do not commute
    d = span(chart, _fields(chart, [{"x1": "1"}, {"x2": "x1"}, {"x3": "1"}]), engine)
    # an engine that misses the last row sees no coordinate span
    monkeypatch.setattr(engine, "independent_rows", lambda rows, ch: list(range(len(rows) - 1)))
    with pytest.raises(RankDisagreementError):
        q.is_integrable()
    with pytest.raises(RankDisagreementError):
        d.is_involutive()


def test_coordinate_span_verdicts_match_the_exact_dual():
    # random spans on a few columns, some of them coordinate spans, some
    # exact differentials; the references decide through the exact dual and
    # its brackets
    rng = random.Random(23)
    chart = Chart(["a", "b", "c", "d", "e"])
    engine = RankEngine(seed=29)

    def row(cols):
        if rng.random() < 0.5:
            a, b, c = (chart.sym(rng.choice(cols)) for _ in "abc")
            return differential(a * b + chart.const(rng.randint(1, 3)) * c).components
        return tuple(
            random_polynomial(chart, rng, 1) if name in cols else chart.zero
            for name in chart.coordinates
        )

    seen = set()
    for _ in range(40):
        cols = rng.sample(chart.coordinates, rng.randint(1, 4))
        rows = [row(cols) for _ in range(rng.randint(1, len(cols)))]
        q = Codistribution(chart, [CovectorField(chart, r) for r in rows], engine)
        d = span(chart, [VectorField(chart, r) for r in rows], engine)
        coann = Codistribution(chart, q.covectors, engine).coannihilator()
        b = coann.fields
        expect_q = all(
            coann.contains_field(lie_bracket(b[i], b[j]))
            for i in range(len(b))
            for j in range(i + 1, len(b))
        )
        expect_d = all(d.contains_field(br) for br in d._basis_brackets())
        assert q.is_integrable() == expect_q
        assert q.rank == chart.dim - coann.rank
        assert d.is_involutive() == expect_d
        seen.add((q._is_coordinate_span(), expect_q, expect_d))
    # coordinate spans, and other spans with either verdict
    assert {(True, True, True), (False, True, True), (False, False, False)} <= seen


# --- rank rises ---


def test_a_rank_rise_proves_no_without_a_dual(monkeypatch):
    chart = Chart(["x", "y", "z"])
    engine = RankEngine(seed=31)
    v, dy = _fields(chart, [{"x": "1", "z": "y"}, {"y": "1"}])

    def refuse(*args, **kwargs):
        raise AssertionError("an exact dual was built")

    monkeypatch.setattr(distributions, "right_nullspace", refuse)
    # [v, d/dy] = -d/dz lies outside span{v, d/dy}
    assert span(chart, [v, dy], engine).is_involutive() is False
    assert not span(chart, [dy], engine).contains(span(chart, [v], engine))
    # a dependent generator leaves the sampled rank unproven: exact path
    dependent = span(chart, [v, dy, dy.scale(chart.sym("x"))], engine)
    with pytest.raises(AssertionError, match="exact dual"):
        dependent.is_involutive()
    with pytest.raises(AssertionError, match="exact dual"):
        span(chart, [v, dy], engine).contains(span(chart, [v], engine))


def _random_fields(chart, rng):
    """One to three fields: random ones on a few columns, the kernel of a
    random dh (involutive, and no coordinate span), and at times a dependent
    combination of the first two."""
    n, zero = chart.dim, chart.zero
    if rng.random() < 0.3:
        # dh_j * d/dx_0 - dh_0 * d/dx_j pairs to zero with dh
        dh = differential(random_polynomial(chart, rng, 2)).components
        rows = [
            [dh[j]] + [-dh[0] if i == j else zero for i in range(1, n)] for j in range(1, n)
        ]
    else:
        cols = rng.sample(range(n), rng.randint(2, n))
        rows = [
            [random_polynomial(chart, rng, 1) if i in cols else zero for i in range(n)]
            for _ in range(rng.randint(1, 3))
        ]
    out = [VectorField(chart, tuple(r)) for r in rows]
    if len(out) >= 2 and rng.random() < 0.3:
        out.append(out[0].scale(chart.sym(rng.choice(chart.coordinates))) + out[1])
    return out


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_rank_rise_verdicts_match_exact_pairing(seed):
    rng = random.Random(seed)
    chart = Chart(["a", "b", "c", "d"])
    engine = RankEngine(seed=seed)
    gens, others = _random_fields(chart, rng), _random_fields(chart, rng)
    if rng.random() < 0.5:  # sometimes a part of the span itself
        others = [g.scale(chart.sym("a")) for g in gens[: rng.randint(1, len(gens))]]
    ann = [
        CovectorField(chart, tuple(w))
        for w in right_nullspace(fields_matrix(gens), chart, ncols=chart.dim)
    ]

    def inside(v):
        return all(pair(w, v).is_zero() for w in ann)

    involutive = all(inside(lie_bracket(v, w)) for v in gens for w in gens)
    assert span(chart, gens, engine).is_involutive() == involutive
    d, o = span(chart, gens, engine), span(chart, others, engine)
    assert d.contains(o) == all(inside(v) for v in others)


# --- derived flags and closures ---


def test_chained_derived_flag_ranks(chained5):
    flag = [span(chained5.chart, (chained5.g1, chained5.g2), chained5.engine)]
    for _ in range(3):
        flag.append(derived_step(flag[-1]))
    assert [d.rank for d in flag] == [2, 3, 4, 5]
    for prev, nxt in zip(flag, flag[1:]):
        assert nxt.contains(prev)
    assert flag[-1].is_involutive()


def test_chained_derived_step_adds_one_direction(chained5):
    d1 = span(chained5.chart, (chained5.g1, chained5.g2), chained5.engine)
    d2 = derived_step(d1)
    assert d2.rank == 3
    assert d2.contains_field(coordinate_field(chained5.chart, "z4"))
    assert not d2.contains_field(coordinate_field(chained5.chart, "z3"))


def test_derived_flag_of_involutive_is_trivial(chained5):
    d = span(
        chained5.chart,
        (coordinate_field(chained5.chart, "z1"), coordinate_field(chained5.chart, "z2")),
        chained5.engine,
    )
    assert derived_step(d).rank == d.rank


def test_involutive_closure_of_chained_input_pair(chained5):
    d1 = span(chained5.chart, (chained5.g1, chained5.g2), chained5.engine)
    closure = involutive_closure(d1)
    assert closure.rank == 5
    assert closure.is_involutive()
    assert closure.contains(d1)


def test_involutive_closure_fixes_involutive(vtol):
    d1 = span(vtol.chart, (vtol.g1, vtol.g2), vtol.engine)
    assert involutive_closure(d1) is d1


# --- Cauchy characteristics ---


def test_vtol_characteristic_of_first_extension_is_empty(vtol):
    d2 = input_ladder(vtol, 1)[1]
    assert cauchy_characteristic(d2).rank == 0


def test_seven_state_characteristic_is_last_input_direction(seven_state):
    d2 = input_ladder(seven_state, 1)[1]
    assert d2.rank == 4
    assert not d2.is_involutive()
    c = cauchy_characteristic(d2)
    assert cauchy_characteristic(d2) is c  # computed once per distribution
    e7 = coordinate_field(seven_state.chart, "z7")
    assert c.rank == 1
    assert c.span_equal(span(seven_state.chart, (e7,), seven_state.engine))
    # contained and absorbing: [C(D), D] stays inside D
    assert d2.contains(c)
    for v in c.fields:
        for b in d2.basis():
            assert d2.contains_field(lie_bracket(v, b))


def test_seven_state_double_bracket_memberships(seven_state):
    d2 = input_ladder(seven_state, 1)[1]
    e7 = coordinate_field(seven_state.chart, "z7")
    inner = lie_bracket(e7, seven_state.f)
    assert d2.contains_field(lie_bracket(e7, inner))  # vanishes identically
    assert not d2.contains_field(lie_bracket(seven_state.f, inner))  # = -d/dz5


def test_characteristic_of_involutive_is_itself(vtol):
    d1 = span(vtol.chart, (vtol.g1, vtol.g2), vtol.engine)
    assert cauchy_characteristic(d1) is d1


def test_characteristic_of_full_tangent_space(chained5):
    fields = tuple(
        coordinate_field(chained5.chart, c) for c in chained5.chart.coordinates
    )
    d = span(chained5.chart, fields, chained5.engine)
    assert cauchy_characteristic(d) is d


MODELS = Path(__file__).resolve().parent.parent / "models"
TEST_MODELS = Path(__file__).resolve().parent / "models"


def ref_cauchy_fields(d):
    """The fields of C(d) as `cauchy_characteristic` built them when it kept
    every bracket and its negation as whole fields and paired both."""
    chart, basis, ann = d.chart, d.basis(), d.annihilator().covectors
    r = len(basis)
    bracket = {}
    pending = iter(d._basis_brackets())
    for a in range(r):
        for b in range(a + 1, r):
            bracket[a, b] = next(pending)
            bracket[b, a] = neg_field(bracket[a, b])
    rows = [
        [chart.zero if a == b else pair(w, bracket[a, b]) for a in range(r)]
        for b in range(r)
        for w in ann
    ]
    fields = []
    for alpha in right_nullspace(rows, chart, ncols=r):
        comps = combine_rows(alpha, [b.components for b in basis], chart)
        fields.append(VectorField(chart, tuple(normalize_vector(comps, chart))))
    return fields


def refined_frontiers():
    """The non-involutive frontiers whose characteristic Algorithm 2 takes,
    on the bundled models and two of their prolongations, each once."""
    out = {}
    for name in ("vtol", "example3", "example1"):
        base = build_system(load_model(MODELS / f"{name}.json"), 0)
        for p1, p2 in [(0, 0), (1, 0), (2, 1)]:
            for branch in run_algorithm2(prolong(base, p1, p2)).branches:
                for rec in branch.records:
                    if rec.cauchy is not None:
                        out[id(rec.examined)] = rec.examined
    return list(out.values())


def test_characteristic_pairs_match_the_whole_field_negation():
    frontiers = refined_frontiers()
    assert len(frontiers) >= 10
    informative = 0
    for d in frontiers:
        assert not d.is_involutive()
        got = cauchy_characteristic(d).fields
        want = [v for v in ref_cauchy_fields(d) if not v.is_zero()]
        assert [v.components for v in got] == [v.components for v in want]
        informative += bool(got)
    assert informative  # some characteristic is not empty


def test_characteristic_pairs_each_bracket_once(monkeypatch):
    d = max(refined_frontiers(), key=lambda d: (d.rank, len(d.annihilator().covectors)))
    # a fresh span whose basis, dual and brackets are ready: only the
    # characteristic is left to compute
    fresh = Distribution(d.chart, d.fields, d.engine)
    ann = fresh.annihilator().covectors
    assert not fresh.is_involutive() and fresh.rank >= 3 and ann
    calls = []
    monkeypatch.setattr(
        distributions, "pair", lambda w, v: calls.append((w, v)) or pair(w, v)
    )

    def refuse(v):
        raise AssertionError("a bracket was negated as a whole field")

    # fields have no negation of their own; one set here must go unused
    monkeypatch.setattr(VectorField, "__neg__", refuse, raising=False)
    c = cauchy_characteristic(fresh)
    r = fresh.rank
    assert len(calls) == len(ann) * r * (r - 1) // 2
    assert [v.components for v in c.fields] == [
        v.components for v in cauchy_characteristic(d).fields
    ]


def test_one_bracket_list_per_span(monkeypatch):
    """The basis brackets are computed once, by the first involutivity
    test; the Cauchy characteristic and the derived step read them."""
    chart = Chart(["x1", "x2", "x3", "x4", "x5"])
    calls = []
    monkeypatch.setattr(
        distributions, "lie_bracket", lambda v, w: calls.append((v, w)) or lie_bracket(v, w)
    )
    d = span(
        chart,
        (
            field_from_dict(chart, {"x1": 1}),
            field_from_dict(chart, {"x2": 1, "x4": "x1"}),
            field_from_dict(chart, {"x3": 1, "x5": "x2"}),
        ),
        RankEngine(seed=3),
    )
    assert not d.is_involutive()
    r = d.rank
    assert r == 3 and len(calls) == r * (r - 1) // 2
    assert cauchy_characteristic(d).is_empty()
    assert derived_step(d).rank == 5
    assert len(calls) == r * (r - 1) // 2


# --- intersections ---


def test_intersect_coordinate_planes(chained5):
    ch = chained5.chart
    a = span(ch, (coordinate_field(ch, "z1"), coordinate_field(ch, "z2")), chained5.engine)
    b = span(ch, (coordinate_field(ch, "z2"), coordinate_field(ch, "z3")), chained5.engine)
    both = intersect(a, b)
    assert both.rank == 1
    assert both.contains_field(coordinate_field(ch, "z2"))


def test_intersect_nested(vtol):
    d1, d2 = input_ladder(vtol, 1)
    assert intersect(d2, d1).span_equal(d1)


def test_intersect_with_coordinates_keeps_state_part():
    chart = Chart(["x1", "x2", "x3", "x4", "u1"])
    engine = RankEngine(seed=2)
    u1 = chart.sym("u1")
    mixed = CovectorField(
        chart, (chart.zero, chart.zero, chart.one, u1, chart.zero)
    )
    q = Codistribution(
        chart,
        (coordinate_covector(chart, "x1"), coordinate_covector(chart, "u1"), mixed),
        engine,
    )
    states = ["x1", "x2", "x3", "x4"]
    part = intersect_with_coordinates(q, states)
    assert part.rank == 2
    assert part.contains_covector(coordinate_covector(chart, "x1"))
    assert part.contains_covector(mixed)
    assert not part.contains_covector(coordinate_covector(chart, "u1"))


def test_intersect_with_coordinates_can_be_empty():
    chart = Chart(["x1", "x2", "u1"])
    engine = RankEngine(seed=2)
    q = Codistribution(chart, (coordinate_covector(chart, "u1"),), engine)
    assert intersect_with_coordinates(q, ["x1", "x2"]).rank == 0


# --- codistributions ---


def test_reduced_basis_preserves_span(seven_state):
    ch = seven_state.chart
    engine = seven_state.engine
    dz1 = coordinate_covector(ch, "z1")
    dz3 = coordinate_covector(ch, "z3")
    w1 = CovectorField(ch, tuple(a + b for a, b in zip(dz1.components, dz3.components)))
    q = Codistribution(ch, (w1, dz1), engine)
    res = echelon(fields_matrix(q.covectors), ch)
    reduced = [CovectorField(ch, tuple(normalize_vector(row, ch))) for row in res.rows[: res.rank]]
    assert len(reduced) == 2
    assert Codistribution(ch, reduced, engine).span_equal(q)


def test_seven_state_terminal_annihilator(seven_state):
    # span{d/dz2, d/dz4..d/dz7} annihilates exactly dz1 and dz3
    ch = seven_state.chart
    fields = tuple(coordinate_field(ch, n) for n in ("z2", "z4", "z5", "z6", "z7"))
    d4 = span(ch, fields, seven_state.engine)
    assert d4.rank == 5
    perp = d4.annihilator()
    expect = Codistribution(
        ch,
        (coordinate_covector(ch, "z1"), coordinate_covector(ch, "z3")),
        seven_state.engine,
    )
    assert perp.span_equal(expect)
    result = first_integrals(perp)
    assert result.complete()
    assert result.functions == [ch.sym("z1"), ch.sym("z3")]


def test_frobenius_accepts_spans_of_differentials(rng):
    chart = Chart(["x", "y", "z"])
    engine = RankEngine(seed=13)
    for _ in range(50):
        h1 = random_polynomial(chart, rng, 2)
        h2 = random_polynomial(chart, rng, 2)
        q = Codistribution(chart, (differential(h1), differential(h2)), engine)
        assert q.is_integrable()


def test_frobenius_rejects_twisted_spans(rng):
    # dz + h dx is integrable iff dh/dy vanishes; the x^2*y term makes sure
    # the random part can never cancel that derivative
    chart = Chart(["x", "y", "z"])
    engine = RankEngine(seed=13)
    for _ in range(50):
        h = random_polynomial(chart, rng, 2) + parse(chart, "x^2*y")
        twisted = CovectorField(chart, (h, chart.zero, chart.one))
        q = Codistribution(chart, (twisted,), engine)
        assert not q.is_integrable()


def test_contact_form_fails_frobenius():
    chart = Chart(["x", "y", "z"])
    engine = RankEngine(seed=17)
    w = CovectorField(chart, (-chart.sym("y"), chart.zero, chart.one))
    q = Codistribution(chart, (w,), engine)
    assert not q.is_integrable()
    with pytest.raises(NotIntegrableError):
        first_integrals(q)


# --- first integrals ---


def test_first_integrals_of_empty():
    chart = Chart(["x", "y"])
    engine = RankEngine(seed=1)
    result = first_integrals(Codistribution(chart, (), engine))
    assert result.functions == []
    assert result.rank == 0
    assert result.complete()


def test_first_integrals_planar_branch_one(vtol):
    # span{d theta, cos(theta) dx + sin(theta) dz}
    ch = vtol.chart
    w = CovectorField(
        ch,
        (
            parse(ch, "cos(theta)"),
            parse(ch, "sin(theta)"),
            ch.zero,
            ch.zero,
            ch.zero,
            ch.zero,
        ),
    )
    q = Codistribution(ch, (coordinate_covector(ch, "theta"), w), vtol.engine)
    result = first_integrals(q)
    assert result.complete()
    theta, h = result.functions
    assert theta == ch.sym("theta")
    assert h == parse(ch, "x*cos(theta) + z*sin(theta)")
    # d(x*cot(theta) + z) lies in the same span even though the integrator
    # returns the polynomial representative
    alt = parse(ch, "x*cos(theta)/sin(theta) + z")
    assert q.contains_covector(differential(alt))
    spanned = Codistribution(ch, tuple(differential(f) for f in result.functions), vtol.engine)
    assert spanned.span_equal(q)


def test_first_integrals_planar_branch_two(vtol):
    # span{dx - eps cos(theta) d theta, dz - eps sin(theta) d theta}
    ch = vtol.chart
    w1 = CovectorField(
        ch,
        (ch.one, ch.zero, parse(ch, "-eps*cos(theta)"), ch.zero, ch.zero, ch.zero),
    )
    w2 = CovectorField(
        ch,
        (ch.zero, ch.one, parse(ch, "-eps*sin(theta)"), ch.zero, ch.zero, ch.zero),
    )
    q = Codistribution(ch, (w1, w2), vtol.engine)
    result = first_integrals(q)
    assert result.complete()
    assert result.functions == [
        parse(ch, "x - eps*sin(theta)"),
        parse(ch, "z + eps*cos(theta)"),
    ]


def test_first_integrals_reports_shortfall():
    # (1 + y^2) dx + dy needs an integrating factor outside the class
    chart = Chart(["x", "y"])
    engine = RankEngine(seed=23)
    w = CovectorField(chart, (parse(chart, "1 + y^2"), chart.one))
    q = Codistribution(chart, (w,), engine)
    assert q.is_integrable()
    result = first_integrals(q)
    assert result.functions == []
    assert result.rank == 1
    assert result.shortfall == 1
    assert not result.complete()


def test_every_integrated_row_is_polynomial_with_an_unfrozen_entry(monkeypatch):
    # The invariants `_integrate_row` rests on, read at every reached leaf of
    # the bundled and test models under both algorithms up to prolongation 2:
    # normalized rows have denominator-1 entries, each row is nonzero in a
    # column no earlier row froze, and h and dh are nonzero.
    seen = []
    real = distributions._integrate_row

    def checked(chart, w, frozen):
        assert all(e.den == chart.one.den for e in w), w
        assert any(
            not e.is_zero() and name not in frozen for e, name in zip(w, chart.coordinates)
        )
        h = real(chart, w, frozen)
        assert h.den == chart.one.den and not differential(h).is_zero()
        seen.append(h)
        return h

    monkeypatch.setattr(distributions, "_integrate_row", checked)
    paths = sorted(MODELS.glob("*.json")) + sorted(TEST_MODELS.glob("*.json"))
    for path in paths:
        base = build_system(load_model(path), seed=0)
        for p in range(3):
            for run in (run_algorithm1, run_algorithm2):
                extract_candidates(run(prolong(base, p, p)))
    assert len(seen) >= 100


def test_first_integrals_unexpected_error_propagates(monkeypatch):
    chart = Chart(["x", "y"])
    q = Codistribution(chart, (differential(parse(chart, "x + y")),), RankEngine(seed=4))
    assert first_integrals(q).complete()

    def broken(*args):
        raise RuntimeError("bug in the integrator")

    monkeypatch.setattr(distributions, "antiderivative", broken)
    with pytest.raises(RuntimeError, match="bug in the integrator"):
        first_integrals(q)
