"""Fraction-free elimination, nullspaces, and the modular rank engine."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatkit.linalg
import flatkit.sample
from flatkit.cli import main
from flatkit.distributions import Distribution
from flatkit.errors import PrimeDenominatorError, SampleExhaustedError
from flatkit.expr import Chart
from flatkit.linalg import (
    POINTS,
    RankEngine,
    _prefix_ranks,
    echelon,
    exact_independent_rows,
    exact_rank,
    left_nullspace,
    normalize_vector,
    rank_at_point,
    right_nullspace,
)
from flatkit.sample import (
    PRIME,
    admissible_point,
    draw_admissible,
    modular_point,
    residues_at,
)

from conftest import field_from_dict, random_polynomial

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


def _echelon_reference(matrix, chart):
    """`echelon` as it was before it kept entry degrees per row: every
    step takes the degree of every remaining entry outside the pivot
    columns and rewrites every entry of a nonzero-head row."""
    rows = [flatkit.linalg._clear_row_denominators(list(r), chart) for r in matrix]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols, prev_pivot, used_cols, k = [], None, set(), 0
    while k < m:
        best = None
        for i in range(k, m):
            for j in range(ncols):
                if j in used_cols or rows[i][j].is_zero():
                    continue
                cand = (rows[i][j].total_degree(), i, j)
                if best is None or cand < best:
                    best = cand
        if best is None:
            break
        _, pi, pj = best
        rows[k], rows[pi] = rows[pi], rows[k]
        pivot = rows[k][pj]
        for i in range(k + 1, m):
            head = rows[i][pj]
            if head.is_zero():
                continue
            new_row = []
            for j in range(ncols):
                if j == pj:
                    new_row.append(chart.zero)
                    continue
                val = pivot * rows[i][j] - head * rows[k][j]
                if prev_pivot is not None and not val.is_zero():
                    val = val / prev_pivot
                new_row.append(val)
            rows[i] = new_row
        prev_pivot = pivot
        pivot_cols.append(pj)
        used_cols.add(pj)
        k += 1
    return len(pivot_cols), rows, pivot_cols


def test_echelon_matches_the_reference_on_sparse_matrices():
    rng = random.Random(41)
    chart = Chart(["a", "b", "theta"])
    a, b = chart.sym("a"), chart.sym("b")
    sin, cos = chart.parse("sin(theta)"), chart.parse("cos(theta)")

    def entry():
        kind = rng.random()
        if kind < 0.45:
            return chart.zero
        e = random_polynomial(chart, rng, degree=rng.randint(0, 2))
        if kind < 0.65:
            return e * rng.choice((sin, cos, sin * cos))
        if kind < 0.8:
            return e / (rng.choice((a, b, cos)) + rng.randint(1, 2))
        return e

    ranks = set()
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            m[-1] = [x + y * a for x, y in zip(m[0], m[1])]  # a dependent row
        got = echelon(m, chart)
        assert (got.rank, got.rows, got.pivot_cols) == _echelon_reference(m, chart)
        ranks.add(got.rank)
    assert ranks >= {0, 1, 2, 3, 4}


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
    assert right_nullspace(m, chart, ncols=2) == []


def test_dead_columns_yield_unit_solutions():
    chart = Chart(["a", "b", "c"])
    m = [[chart.sym("a"), chart.zero, chart.one]]
    null = right_nullspace(m, chart, ncols=3)
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


def _residues_at_a_drawn_point(chart, seed, exprs, constraints=()):
    point = admissible_point(chart, random.Random(seed), constraints, exprs)
    return residues_at(exprs, point)


def test_rank_engine_respects_constraints():
    chart = Chart(["a"], parameters=["p"])
    p = chart.sym("p")
    engine = RankEngine(seed=5, constraints=(p,))
    constraints = engine._sampling(chart).constraints
    for _ in range(10):
        point = admissible_point(chart, engine.rng, constraints, [p])
        (value,) = residues_at([p], point)
        assert value != 0
    assert engine.rank([[p, chart.zero], [p, chart.zero]], chart) == 1
    for point in engine._sampling(chart).points:
        assert residues_at([p], point)[0] != 0


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


@settings(max_examples=25)
@given(structured_matrices(), st.integers(0, 2**32))
def test_modular_rank_matches_exact_and_sympy(factors, seed):
    chart = Chart(["a", "b", "t"])
    matrix = build_matrix(chart, *factors)
    engine = RankEngine(seed=seed)
    exact = exact_rank(matrix, chart)
    assert engine.rank(matrix, chart) == exact
    assert sympy_rank(matrix) == exact


@settings(max_examples=20)
@given(structured_matrices(), st.integers(0, 2**32))
def test_modular_greedy_rows_match_exact_greedy(factors, seed):
    chart = Chart(["a", "b", "t"])
    matrix = build_matrix(chart, *factors)
    engine = RankEngine(seed=seed)
    assert engine.independent_rows(matrix, chart) == exact_greedy(matrix, chart)


@settings(max_examples=20)
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
    (value,) = _residues_at_a_drawn_point(chart, 2, [a * Fraction(3, 7)])
    (base,) = _residues_at_a_drawn_point(chart, 2, [a])
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
    assert _residues_at_a_drawn_point(chart, 8, [a], [a - first]) == [second]
    assert _residues_at_a_drawn_point(chart, 8, [a, 1 / (a - first)])[0] == second
    # PRIME * a vanishes mod p everywhere: no admissible point exists.
    with pytest.raises(SampleExhaustedError, match="within 60 tries"):
        admissible_point(chart, random.Random(8), [a * PRIME], [a])


def test_no_zero_entry_reaches_the_evaluator(monkeypatch, capsys):
    """The rank engine evaluates only nonzero entries; a zero has no pole
    and no residue, so leaving it out draws the same points."""
    evaluated = []
    at = flatkit.linalg.residues_at

    def recording(exprs, point):
        evaluated.extend(exprs)
        return at(exprs, point)

    monkeypatch.setattr(flatkit.linalg, "residues_at", recording)
    assert main(["analyze", str(MODELS / "vtol.json")]) == 0
    capsys.readouterr()
    assert evaluated and not any(e.is_zero() for e in evaluated)



def test_rank_calls_on_one_chart_evaluate_an_entry_once_per_point(monkeypatch):
    chart = Chart(["a", "b"])
    a, b = chart.sym("a"), chart.sym("b")
    e = a * b + 1
    evaluated = []
    evaluate = flatkit.sample._expr_residue

    def recording(expr, values):
        evaluated.append(expr)
        return evaluate(expr, values)

    monkeypatch.setattr(flatkit.sample, "_expr_residue", recording)
    engine = RankEngine(seed=3)
    # rank 1 of 2 rows: no early exit, so each call uses every point
    assert engine.rank([[e, e], [e, e]], chart) == 1
    assert engine.rank([[e, a], [e, a]], chart) == 1
    assert sum(x is e for x in evaluated) == POINTS
    assert sum(x is a for x in evaluated) == POINTS


def test_expr_residue_walks_a_denominator_only_when_it_is_not_one(monkeypatch):
    chart = Chart(["a", "b"])
    a, b = chart.sym("a"), chart.sym("b")
    walked = []
    walk = flatkit.sample.p_residue

    def recording(poly, values, prime):
        walked.append(poly)
        return walk(poly, values, prime)

    monkeypatch.setattr(flatkit.sample, "p_residue", recording)
    residue = flatkit.sample._expr_residue
    poly, quotient = a * b + 2, a / (a - b)
    assert residue(poly, [3, 5]) == 17
    assert walked == [poly.num]  # a unit denominator is not walked
    walked.clear()
    assert residue(quotient, [3, 5]) == 3 * pow(-2, -1, PRIME) % PRIME
    assert walked == [quotient.num, quotient.den]
    assert residue(quotient, [4, 4]) is None  # a pole: the denominator vanishes


def test_a_pole_at_a_shared_point_falls_back_to_a_fresh_point(monkeypatch):
    """The fresh point takes the shared point's place: later calls on the
    chart read it."""
    chart = Chart(["x", "y"])
    x, y = chart.sym("x"), chart.sym("y")
    c = 12345
    real = flatkit.sample.modular_point
    drawn = []

    def first_on_the_pole(ch, rng):
        values = real(ch, rng)
        if not drawn:
            values[0] = c
        drawn.append(values)
        return values

    monkeypatch.setattr(flatkit.sample, "modular_point", first_on_the_pole)
    engine = RankEngine(seed=4)
    pole = 1 / (x - c)
    # y alone draws the shared point, on the pole
    assert engine.rank([[y]], chart) == 1
    (shared,) = engine._sampling(chart).points
    assert shared.values[0] == c and residues_at([pole], shared) is None
    # read as zero at x = c, the pole would give rank 1
    assert engine.rank([[pole, chart.zero], [chart.zero, y]], chart) == 2
    (replacement,) = engine._sampling(chart).points
    assert replacement is not shared and replacement.values == drawn[1]
    assert residues_at([pole], replacement) is not None
    # a later call on the chart reads the replacement and draws nothing
    assert engine.rank([[x * y + 1]], chart) == 1
    assert len(drawn) == 2
    assert engine._sampling(chart).points == [replacement]


def test_normalize_vector_removes_only_a_common_factor_and_the_sign():
    """Entries are not made primitive: doing so would change the rendered
    annihilators, so this pins the current contract."""
    chart = Chart(["x", "y"])
    x, y = chart.sym("x"), chart.sym("y")
    for vec in ([2 * x, chart.const(4)], [x / 2, y / 3]):
        assert normalize_vector(vec, chart) == vec
    assert normalize_vector([2 * x * y, 4 * x], chart) == [2 * y, chart.const(4)]
    assert normalize_vector([1 / x, 1 / y], chart) == [y, x]
    assert normalize_vector([-x, 2 * y], chart) == [x, -2 * y]
    assert normalize_vector([chart.zero, -2 * x], chart) == [chart.zero, chart.one]


def test_a_chart_that_gains_a_generator_gets_new_points():
    chart = Chart(["a", "b"])
    a, b = chart.sym("a"), chart.sym("b")
    engine = RankEngine(seed=6)
    assert engine.rank([[a, b]], chart) == 1
    before = list(engine._sampling(chart).points)
    # sin(a) and cos(a) register two generators that the drawn points lack
    s = chart.parse("sin(a)")
    assert engine.rank([[s, chart.zero], [b, chart.zero]], chart) == 1
    assert engine.rank([[s, chart.one], [b, chart.zero]], chart) == 2
    assert engine._sampling(chart).points[0] is not before[0]


# --- one-point lower bounds and the inverse-free elimination ---


def _prefix_ranks_normalized(rows):
    """The elimination `_prefix_ranks` replaced: each pivot row is scaled to
    1 in its pivot column by a modular inverse, and kept as a copy."""
    pivots = []
    out = []
    for row in rows:
        for col, prow in pivots:
            f = row.get(col)
            if f:
                for c, b in prow.items():
                    v = (row.get(c, 0) - f * b) % PRIME
                    if v:
                        row[c] = v
                    else:
                        row.pop(c, None)
        if row:
            col, v = next(iter(row.items()))
            inv = pow(v, -1, PRIME)
            pivots.append((col, {c: a * inv % PRIME for c, a in row.items()}))
        out.append(len(pivots))
    return out


def _residue_rows(rng, m, ncols):
    """Sparse rows mod PRIME: zero rows, unit rows, rows with entries
    PRIME - 1, repeated and scaled rows, combinations of earlier rows (which
    reduce to zero) and random rows."""
    rows = []
    for _ in range(m):
        kind = rng.randrange(6) if rows else rng.choice((0, 1, 5))
        if kind == 0:
            row = {}
        elif kind == 1:
            row = {rng.randrange(ncols): 1}
        elif kind == 2:
            row = dict(rng.choice(rows))
        elif kind == 3:
            s = rng.choice((PRIME - 1, rng.randrange(1, PRIME)))
            row = {c: a * s % PRIME for c, a in rng.choice(rows).items()}
        elif kind == 4:
            acc = {}
            for _ in range(2):
                s = rng.randrange(1, PRIME)
                for c, a in rng.choice(rows).items():
                    acc[c] = (acc.get(c, 0) + s * a) % PRIME
            row = {c: a for c, a in acc.items() if a}
        else:
            row = {
                c: rng.choice((1, PRIME - 1, rng.randrange(1, PRIME)))
                for c in rng.sample(range(ncols), rng.randint(1, ncols))
            }
        rows.append(row)
    return rows


def test_prefix_ranks_match_the_normalized_elimination():
    rng = random.Random(33)
    for _ in range(300):
        m, ncols = rng.randint(1, 8), rng.randint(1, 6)
        rows = _residue_rows(rng, m, ncols)
        assert _prefix_ranks([dict(r) for r in rows]) == _prefix_ranks_normalized(rows)


def test_prefix_ranks_take_no_modular_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("a modular inverse was taken")

    monkeypatch.setattr(flatkit.linalg, "pow", refuse, raising=False)
    rows = [{0: 2, 1: 3}, {0: 4, 1: PRIME - 1}, {1: 5, 2: 7}, {0: 6, 1: 9}]
    assert _prefix_ranks(rows) == [1, 2, 3, 3]


def test_lower_bound_is_the_one_point_rank(rng):
    chart = Chart(["a", "b", "c"])
    engine = RankEngine(seed=5)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix_of_rank(chart, rng, rows, cols, rng.randint(0, min(rows, cols)))
        # one point misses a nonzero minor of degree D with probability D/p
        assert engine.lower_bound(m, chart) == exact_rank(m, chart)
    assert engine.lower_bound([[chart.zero, chart.zero]], chart) == 0
    assert len(engine._sampling(chart).points) == 1


def test_rank_rises_draw_no_second_point():
    """A rank-rise test that proves nothing reads the first shared point
    only; the exact dual answers instead."""
    chart = Chart(["x", "y", "z"])
    engine = RankEngine(seed=2)
    # span{d/dx + d/dy + d/dz, x d/dx} is involutive: its bracket is d/dx
    d = Distribution(
        chart,
        [field_from_dict(chart, {"x": 1, "y": 1, "z": 1}), field_from_dict(chart, {"x": "x"})],
        engine,
    )
    assert d.is_involutive()
    inside = Distribution(chart, [field_from_dict(chart, {"y": 1, "z": 1})], engine)
    outside = Distribution(chart, [field_from_dict(chart, {"y": 1})], engine)
    assert d.contains(inside) and not d.contains(outside)
    e = Distribution(
        chart, [field_from_dict(chart, {"x": 1}), field_from_dict(chart, {"y": 1, "z": "x"})], engine
    )
    assert not e.is_involutive()
    assert len(engine._sampling(chart).points) == 1


def _answers_of_spans(seed):
    """is_involutive and contains on seeded spans of polynomial fields."""
    rng = random.Random(seed)
    chart = Chart(["x", "y", "z", "w"])
    engine = RankEngine(seed=seed)
    out = []
    for _ in range(12):
        coords = rng.sample(chart.coordinates, 3)
        fields = [
            field_from_dict(chart, {c: random_polynomial(chart, rng, 1) for c in coords})
            for _ in range(rng.randint(1, 3))
        ]
        d = Distribution(chart, fields, engine)
        other = Distribution(chart, [fields[0], field_from_dict(chart, {coords[0]: 1})], engine)
        out.append((d.is_involutive(), d.contains(other), d.contains(d)))
    return out


def test_span_answers_hold_when_no_rank_rise_is_proven(monkeypatch):
    """With a lower bound that never proves a rise, involutivity and
    membership go through the exact duals and stay the same (the verify
    reports are checked so in test_cli)."""
    spans = _answers_of_spans(4)
    monkeypatch.setattr(RankEngine, "lower_bound", lambda *args: 0)
    assert _answers_of_spans(4) == spans
