"""Fraction-free elimination, nullspaces, and the modular rank engine."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatkit.linalg
from flatkit import Chart, RankEngine, exact_rank, rank_at_point, right_nullspace
from flatkit.cli import main
from flatkit.errors import PrimeDenominatorError, SampleExhaustedError
from flatkit.linalg import echelon, exact_independent_rows, left_nullspace, normalize_vector
from flatkit.sample import PRIME, draw_admissible, draw_residues, modular_point

from conftest import random_polynomial

MODELS = Path(__file__).resolve().parent.parent / "models"


def random_matrix_of_rank(chart, rng, rows, cols, rank):
    """Product of random integer factor matrices; generic rank = `rank`."""
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
    right = [
        [random_polynomial(chart, rng, degree=1) for _ in range(cols)]
        for _ in range(rank)
    ]
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = chart.zero
            for k in range(rank):
                acc = acc + right[k][j] * left[i][k]
            row.append(acc)
        out.append(row)
    return out


def test_exact_rank_matches_sampled_rank_on_random_matrices(rng):
    chart = Chart(["a", "b", "c"])
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(0, min(rows, cols))
        m = random_matrix_of_rank(chart, rng, rows, cols, r)
        er = exact_rank(m, chart)
        assert er <= r
        flat = [e for row in m for e in row if not e.is_zero()]
        sampled = 0
        for _ in range(4):
            point = draw_admissible(chart, rng, flat, ())
            sampled = max(sampled, rank_at_point(m, point))
        assert sampled == er


def test_echelon_reports_pivot_columns():
    chart = Chart(["a", "b"])
    m = [
        [chart.zero, chart.one],
        [chart.sym("a"), chart.sym("b")],
        [chart.sym("a"), chart.sym("b") + chart.one],
    ]
    res = echelon(m, chart)
    assert res.rank == 2
    assert sorted(res.pivot_cols) == [0, 1]


def test_right_nullspace_solves_exactly(rng):
    chart = Chart(["a", "b", "c"])
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(2, 5)
        r = rng.randint(0, min(rows, cols))
        m = random_matrix_of_rank(chart, rng, rows, cols, r)
        null = right_nullspace(m, chart, ncols=cols)
        assert len(null) == cols - exact_rank(m, chart)
        for vec in null:
            for row in m:
                acc = chart.zero
                for e, x in zip(row, vec):
                    acc = acc + e * x
                assert acc.is_zero()
        # solutions are independent
        if null:
            assert exact_rank(null, chart) == len(null)


def test_left_nullspace_annihilates_rows():
    chart = Chart(["a", "b", "c"])
    m = [
        [chart.one, chart.sym("a"), chart.zero],
        [chart.sym("b"), chart.sym("a") * chart.sym("b"), chart.zero],
    ]
    combos = left_nullspace(m, chart)
    assert len(combos) == 1
    for j in range(3):
        acc = chart.zero
        for c, row in zip(combos[0], m):
            acc = acc + c * row[j]
        assert acc.is_zero()


def test_nullspace_of_full_rank_matrix_is_empty():
    chart = Chart(["a", "b"])
    m = [[chart.one, chart.zero], [chart.zero, chart.sym("a")]]
    assert right_nullspace(m, chart) == []


def test_dead_columns_yield_unit_solutions():
    chart = Chart(["a", "b", "c"])
    m = [[chart.sym("a"), chart.zero, chart.one]]
    null = right_nullspace(m, chart)
    # the all-zero middle column must appear as a pure unit direction
    assert any(
        vec[1] == chart.one and vec[0].is_zero() and vec[2].is_zero() for vec in null
    )


def test_normalize_vector_scaling_invariance():
    chart = Chart(["a", "b"])
    a = chart.sym("a")
    b = chart.sym("b")
    vec = [a / b, chart.one + a]
    scaled = [(a / b) * (a * b + 2), (chart.one + a) * (a * b + 2)]
    left = normalize_vector(vec, chart)
    right_ = normalize_vector(scaled, chart)
    assert left == right_
    # denominator-free output
    again = normalize_vector(left, chart)
    assert again == left


def test_normalize_vector_sign_convention():
    chart = Chart(["a"])
    plus = normalize_vector([chart.sym("a")], chart)
    minus = normalize_vector([-chart.sym("a")], chart)
    assert plus == minus


def test_identity_frame_has_full_rank():
    chart = Chart([f"y{i}" for i in range(5)])
    eye = [
        [chart.one if i == j else chart.zero for j in range(5)] for i in range(5)
    ]
    engine = RankEngine(seed=1)
    assert engine.rank(eye, chart) == 5


def test_rank_engine_is_deterministic():
    chart = Chart(["a", "b", "c"])
    m = [
        [chart.sym("a"), chart.sym("b"), chart.zero],
        [chart.sym("a") * chart.sym("c"), chart.sym("b") * chart.sym("c"), chart.zero],
    ]
    r1 = RankEngine(seed=42).rank(m, chart)
    r2 = RankEngine(seed=42).rank(m, chart)
    assert r1 == r2 == 1


def test_rank_engine_respects_constraints():
    chart = Chart(["a"], parameters=["p"])
    engine = RankEngine(seed=5, constraints=(chart.sym("p"),))
    for _ in range(10):
        (value,) = engine.draw(chart, [chart.sym("p")])
        assert value != 0


def test_rank_of_zero_and_empty_matrices():
    chart = Chart(["a"])
    engine = RankEngine(seed=0)
    assert engine.rank([], chart) == 0
    assert engine.rank([[chart.zero]], chart) == 0


def test_rank_with_trig_entries(vtol):
    chart = vtol.chart
    rows = [list(vtol.g1.components), list(vtol.g2.components)]
    assert vtol.engine.rank(rows, chart) == 2
    assert exact_rank(rows, chart) == 2


def test_rank_at_point_on_rational_entries():
    chart = Chart(["a", "b"])
    m = [[chart.sym("a") / chart.sym("b"), chart.one]]
    rng = random.Random(9)
    point = draw_admissible(chart, rng, [e for row in m for e in row], ())
    assert rank_at_point(m, point) == 1


# --- the modular engine against exact references ---------------------------------

# Building blocks of random entries: rational functions in a, b and the
# circle pair of t.
ATOMS = (
    "1",
    "a",
    "b",
    "a*b - 2",
    "sin(t)",
    "cos(t)",
    "a*cos(t)",
    "b*sin(t) + 1",
    "1/(1 + a^2)",
    "sin(t)/(b + 3)",
    "cos(t)/(a - b + 5)",
)


@st.composite
def structured_matrices(draw):
    """Left factor times right factor, each entry an integer or an atom
    product.  The generic rank is at most the inner size, and function
    multipliers make rows depend on each other only through the field's
    relations, the circle relation included."""
    entry = st.one_of(
        st.integers(-2, 2).map(str),
        st.tuples(st.sampled_from(ATOMS), st.sampled_from(ATOMS)).map(
            lambda pair: f"({pair[0]})*({pair[1]})"
        ),
    )
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 3))
    inner = draw(st.integers(0, min(rows, cols)))
    left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return left, right


def build_matrix(chart, left, right):
    cols = len(right[0]) if right else 1
    out = []
    for lrow in left:
        row = []
        for j in range(cols):
            acc = chart.zero
            for k, coef in enumerate(lrow):
                acc = acc + chart.parse(right[k][j]) * chart.parse(coef)
            row.append(acc)
        out.append(row)
    return out


def sympy_rank(matrix):
    """Rank over Q(a, b, t, u) after sin(t), cos(t) -> the rational circle
    parameterization in u, a field isomorphic to the one flatkit uses."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    a, b, t, u = sympy.symbols("a b t u")
    circle = {
        sympy.sin(t): 2 * u / (1 + u**2),
        sympy.cos(t): (1 - u**2) / (1 + u**2),
    }
    names = {"a": a, "b": b, "t": t}
    rows = [
        [
            sympy.sympify(e.render().replace("^", "**"), locals=names).subs(circle)
            for e in row
        ]
        for row in matrix
    ]
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).rank()


def exact_greedy(matrix, chart):
    chosen: list[int] = []
    for i, row in enumerate(matrix):
        if exact_rank([matrix[k] for k in chosen] + [row], chart) > len(chosen):
            chosen.append(i)
    return chosen


@settings(max_examples=25, deadline=None)
@given(structured_matrices(), st.integers(0, 2**32))
def test_modular_rank_matches_exact_and_sympy(factors, seed):
    chart = Chart(["a", "b", "t"])
    matrix = build_matrix(chart, *factors)
    engine = RankEngine(seed=seed)
    exact = exact_rank(matrix, chart)
    assert engine.rank(matrix, chart) == exact
    assert sympy_rank(matrix) == exact


@settings(max_examples=20, deadline=None)
@given(structured_matrices(), st.integers(0, 2**32))
def test_modular_greedy_rows_match_exact_greedy(factors, seed):
    chart = Chart(["a", "b", "t"])
    matrix = build_matrix(chart, *factors)
    engine = RankEngine(seed=seed)
    assert engine.independent_rows(matrix, chart) == exact_greedy(matrix, chart)


@settings(max_examples=20, deadline=None)
@given(structured_matrices())
def test_exact_independent_rows_match_exact_greedy(factors):
    chart = Chart(["a", "b", "t"])
    matrix = build_matrix(chart, *factors)
    assert exact_independent_rows(matrix, chart) == exact_greedy(matrix, chart)


def test_exact_independent_rows_skip_zero_and_dependent_rows():
    chart = Chart(["a"])
    a, zero, one = chart.sym("a"), chart.zero, chart.one
    m = [[zero, zero], [a, zero], [one, zero], [zero, one], [a, a * a]]
    assert exact_independent_rows(m, chart) == [1, 3]


def test_greedy_rows_skip_rows_that_only_look_independent():
    # (a, 0) vanishes at a = 0, where (1, 0) would be taken instead; the
    # generic greedy choice keeps row 0 and skips row 1.
    chart = Chart(["a"])
    a = chart.sym("a")
    m = [[a, chart.zero], [chart.one, chart.zero], [chart.zero, chart.one]]
    for seed in range(5):
        assert RankEngine(seed=seed).independent_rows(m, chart) == [0, 2]


def test_circle_residues_satisfy_circle_relation():
    chart = Chart(["t", "w"])
    si, ci = chart.trig_pair("t")
    sj, cj = chart.trig_pair("w")
    rng = random.Random(3)
    for _ in range(50):
        values = modular_point(chart, rng)
        for s_idx, c_idx in ((si, ci), (sj, cj)):
            s, c = values[s_idx], values[c_idx]
            assert (s * s + c * c) % PRIME == 1
            assert s and c
        assert all(0 < v < PRIME for v in values)


def test_rank_sees_the_circle_relation():
    # The rows are dependent only through sin^2 + cos^2 = 1.
    chart = Chart(["t"])
    m = [
        [chart.parse("sin(t)"), chart.parse("1 - cos(t)")],
        [chart.parse("1 + cos(t)"), chart.parse("sin(t)")],
    ]
    assert exact_rank(m, chart) == 1
    for seed in range(5):
        assert RankEngine(seed=seed).rank(m, chart) == 1


def test_coefficient_with_prime_denominator_is_a_named_error():
    chart = Chart(["a", "b"])
    a = chart.sym("a")
    (value,) = draw_residues(chart, random.Random(2), [a * Fraction(3, 7)])
    (base,) = draw_residues(chart, random.Random(2), [a])
    assert value * 7 % PRIME == base * 3 % PRIME
    m = [[a * Fraction(1, PRIME), chart.sym("b")]]
    with pytest.raises(PrimeDenominatorError):
        RankEngine(seed=0).rank(m, chart)


def test_constraints_vanishing_mod_p_force_a_redraw():
    chart = Chart(["a"])
    a = chart.sym("a")
    ahead = random.Random(8)
    first = modular_point(chart, ahead)[0]
    second = modular_point(chart, ahead)[0]
    # a - first vanishes mod p at the first point only, so that point is
    # redrawn; the same holds for a pole of an evaluated entry.
    assert draw_residues(chart, random.Random(8), [a], [a - first]) == [second]
    assert draw_residues(chart, random.Random(8), [a, 1 / (a - first)])[0] == second
    # PRIME * a vanishes mod p everywhere: no admissible point exists.
    with pytest.raises(SampleExhaustedError):
        draw_residues(chart, random.Random(8), [a], [a * PRIME], tries=5)


def test_no_zero_entry_reaches_the_evaluator(monkeypatch, capsys):
    """The rank engine evaluates only nonzero entries; a zero has no pole
    and no residue, so leaving it out draws the same points."""
    evaluated = []
    draw = flatkit.linalg.draw_residues

    def recording(chart, rng, exprs, *args, **kw):
        evaluated.extend(exprs)
        return draw(chart, rng, exprs, *args, **kw)

    monkeypatch.setattr(flatkit.linalg, "draw_residues", recording)
    assert main(["analyze", str(MODELS / "vtol.json")]) == 0
    capsys.readouterr()
    assert evaluated and not any(e.is_zero() for e in evaluated)

