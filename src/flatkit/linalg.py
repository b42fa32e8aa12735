"""Exact linear algebra over the rational-function field, plus generic ranks.

Nullspaces, echelon forms, `exact_rank` and `exact_independent_rows` are
exact; `exact_independent_rows` serves first integrals only, whose function
list is rendered.  `echelon` eliminates fraction-free (Bareiss 1968) and
`right_nullspace` back-substitutes fraction-free too: each solution stays a
polynomial multiple lam * x of the rational solution x, with lam sine-free,
and comes out in the free-column normal form (`_free_solution`), the one
`normalize_vector` gives x, with no canonicalizing division.  lam must be
sine-free: only then is lam * x a multiple of x in the plain polynomial
ring, a UFD, where a vector's common factor is unique up to a constant;
the circle ring is not a UFD.  `normalize_vector` stays for vectors that
are not nullspace solutions: the combinations of the Cauchy
characteristic and the echelon rows that first integrals integrate.

`RankEngine` finds generic ranks, and the greedy independent rows behind
them, by evaluating a matrix at random points of the prime field F_p,
p = 2^61 - 1 (see `sample`).
A modular rank can only fall below the generic rank, never exceed it, and by
the Schwartz-Zippel lemma one point misses with probability at most D/p for
a nonzero minor of degree D.  So a read that only needs a lower bound
("does the rank exceed k?", answered yes or "not proven") uses one point,
`RankEngine.lower_bound`; a rank the report prints takes up to POINTS
points, `RankEngine.independent_rows`.  The engine draws every point in
one place and shares the points of a chart among its calls, evaluating
each expression once per point; sharing keeps the union bound over a
question's rank decisions, because the matrices on the path where every
decision is right do not depend on the points (see `RankEngine`).  An exact check sits where
a verdict reads a rank: the exact duals of `distributions` check the
sequence ranks (the annihilator or coannihilator of a span cross-checks its
sampled rank when it is built), and the rank check of
`system.verify_flat_output` meets an exact upper bound.  `rank_at_point` is
the exact rational counterpart, kept as a reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .expr import Chart, Expr, clear_sines, eval_at, transfer
from .sample import PRIME, ModularPoint, SamplePoint, admissible_point, residues_at
from . import sympoly

Matrix = list[list[Expr]]

# Sample points per generic-rank call at most; RankEngine stops after one
# when the first min(m, n) rows are already independent.
POINTS = 2

# the denominator of a polynomial; a canonical denominator is monic, so a
# constant one is this
_ONE = sympoly.p_const(1)


def _clear_row_denominators(row: Sequence[Expr], chart: Chart) -> list[Expr]:
    """Scale a row to polynomial entries (denominator 1) by the primitive lcm
    of its denominators; a row of polynomials comes back as it is.  Each
    entry a/b becomes a * (lcm/b), an exact quotient in the plain ring, and
    an lcm of sine-free denominators is sine-free, so the product is
    trig-reduced and no entry is canonicalized."""
    dens = [e.den for e in row if e.den != _ONE]
    if not dens:
        return list(row)
    den = _ONE
    for d in dens:
        den = sympoly.p_lcm(den, d)
    out = []
    for e in row:
        q = sympoly.p_div_exact(den, e.den)
        assert q is not None
        out.append(chart.poly(sympoly.p_mul(e.num, q)) if e.num else e)
    return out


class EchelonResult(NamedTuple):
    rank: int
    rows: Matrix            # eliminated rows, pivot rows first in pivot order
    pivot_cols: list[int]   # pivot column of rows[k]


def _least_degree(row: list[Expr]) -> Optional[tuple[int, int]]:
    """(total degree, column) of the row's least-degree nonzero entry, the
    lowest column among equals; None for a zero row."""
    degrees = [(e.total_degree(), j) for j, e in enumerate(row) if e.num]
    return min(degrees) if degrees else None


def echelon(matrix: Matrix, chart: Chart) -> EchelonResult:
    """Fraction-free forward elimination with degree-minimizing pivoting
    (Bareiss 1968).

    Pivots are chosen among the remaining entries by least total degree,
    tie-broken by lowest row then lowest column index, which keeps the
    intermediate polynomials small in the sparse, low-degree matrices
    produced by bracket computations.  Below the pivots every earlier pivot
    column is zero, so each remaining row offers its own least-degree entry
    as a candidate.  The degrees of a row's entries are taken once, when
    the row is built or an elimination step rewrites it; a zero-head row
    keeps its candidate.  An entry that is zero in both the row and the
    pivot row stays zero with no arithmetic.
    """
    rows: Matrix = [_clear_row_denominators(r, chart) for r in matrix]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    least = [_least_degree(r) for r in rows]
    zero = chart.zero
    pivot_cols: list[int] = []
    prev_pivot: Optional[Expr] = None
    for k in range(m):
        best: Optional[tuple[int, int, int]] = None  # (degree, row, col)
        for i in range(k, m):
            cand = least[i]
            if cand is not None and (best is None or cand[0] < best[0]):
                best = (cand[0], i, cand[1])
        if best is None:
            break
        _, pi, pj = best
        rows[k], rows[pi] = rows[pi], rows[k]
        least[k], least[pi] = least[pi], least[k]
        prow = rows[k]
        pivot = prow[pj]
        for i in range(k + 1, m):
            row = rows[i]
            head = row[pj]
            if not head.num:
                # Field arithmetic: skipping the Bareiss rescale of zero-head
                # rows only changes row scaling, never rank or nullspace.
                continue
            new_row = []
            for j in range(ncols):
                a, b = row[j], prow[j]
                if j == pj or not (a.num or b.num):
                    new_row.append(zero)
                    continue
                val = pivot * a - head * b
                if prev_pivot is not None and val.num:
                    val = val / prev_pivot
                new_row.append(val)
            rows[i] = new_row
            least[i] = _least_degree(new_row)
        prev_pivot = pivot
        pivot_cols.append(pj)
    return EchelonResult(rank=len(pivot_cols), rows=rows, pivot_cols=pivot_cols)


def exact_rank(matrix: Matrix, chart: Chart) -> int:
    return echelon(matrix, chart).rank


def exact_independent_rows(matrix: Matrix, chart: Chart) -> list[int]:
    """Indices of the rows that raise the exact rank of the rows taken
    before them: the exact counterpart of `RankEngine.independent_rows`.
    One echelon per row decides it, the first row and a zero row included."""
    taken: Matrix = []
    picked: list[int] = []
    for i, row in enumerate(matrix):
        if echelon(taken + [row], chart).rank > len(taken):
            taken.append(row)
            picked.append(i)
    return picked


def combine_rows(coeffs: Sequence[Expr], rows: Matrix, chart: Chart) -> list[Expr]:
    """sum_i coeffs[i] * rows[i] for rows of length chart.dim."""
    out = [chart.zero] * chart.dim
    for c, row in zip(coeffs, rows):
        if not c.is_zero():
            for j, e in enumerate(row):
                if not e.is_zero():
                    out[j] = out[j] + c * e
    return out


def normalize_vector(vec: Sequence[Expr], chart: Chart) -> list[Expr]:
    """Scale a vector by a rational function, with a positive sign.

    Non-constant denominators are cleared by the primitive lcm of the
    denominators, and the numerators are divided by their gcd, which is
    primitive: only a non-constant common factor goes, and constant
    contents stay, so [2*x, 4] and [x/2, y/3] come back unchanged.  A lone
    nonzero entry is divided by its whole numerator.  The vector is then
    negated when its first nonzero entry has a negative leading coefficient.
    The entries are not made primitive; rendered annihilators show this.
    """
    cleared = _clear_row_denominators(vec, chart)
    g: Optional[sympoly.Poly] = None
    for e in cleared:
        if not e.is_zero():
            g = e.num if g is None else sympoly.p_gcd(g, e.num)
    # a zero vector leaves g None and comes back as zeros
    out = []
    for e in cleared:
        if e.is_zero():
            out.append(chart.zero)
        else:
            q = sympoly.p_div_exact(e.num, g)
            assert q is not None
            # a factor of a trig-reduced polynomial is trig-reduced
            out.append(chart.poly(q))
    for e in out:
        if not e.is_zero():
            _, lead = sympoly.p_lead(e.num)
            if lead < 0:
                out = [-x for x in out]
            break
    return out


def right_nullspace(matrix: Matrix, chart: Chart, ncols: int) -> list[list[Expr]]:
    """Exact basis of {x : M x = 0}: one vector per free column, in the
    free-column normal form (see `_free_solution`).

    Columns that are zero in every row produce unit solutions directly; the
    elimination then runs on the remaining block only.  On the wide, mostly
    empty matrices coming from jet-space annihilators this removes nearly all
    of the work.  With no live column the block is empty, of rank 0, and
    adds no solution.
    """
    live_set = {j for row in matrix for j, e in enumerate(row) if e.num}
    live = sorted(live_set)
    dead = [j for j in range(ncols) if j not in live_set]
    out = [unit_vector(chart, ncols, j) for j in dead]
    res = echelon([[row[j] for j in live] for row in matrix], chart)
    # scaling a row by a rational function keeps the solutions
    rows = [[e.num for e in _clear_row_denominators(row, chart)] for row in res.rows[: res.rank]]
    piv = set(res.pivot_cols)
    for f in range(len(live)):
        if f in piv:
            continue
        full = [chart.zero] * ncols
        for col, y in zip(live, _free_solution(rows, res.pivot_cols, f, chart)):
            if y:
                full[col] = chart.poly(y)
        out.append(full)
    return out


def _free_solution(
    rows: list[list[sympoly.Poly]], pivot_cols: list[int], f: int, chart: Chart
) -> list[sympoly.Poly]:
    """The solution x with x_f = 1 of the echelon rows (polynomials, pivot
    k in column pivot_cols[k]), in the free-column normal form: the
    polynomial multiple of x whose entries have no common factor and whose
    entry f is a primitive integer polynomial with a positive leading
    coefficient, negated when its first nonzero entry has a negative
    leading coefficient.  It is what `normalize_vector` makes of x.

    Back-substitution is fraction-free: it keeps y = lam * x with lam a
    sine-free polynomial, starting from lam = 1.  The pivot p of a row
    solves p * y_p = -acc, acc the row's sum over the entries already
    known.  When p divides acc exactly, y_p is the negated quotient.
    Otherwise -acc/p is brought to lowest terms with a sine-free
    denominator m, as `_canonicalize` would: both are multiplied by c, the
    product of p's sine conjugates (`expr.clear_sines`), and their gcd is
    divided out.  y is scaled by m, which keeps each entry trig-reduced,
    and y_p is the numerator left.

    Sine-free is what makes this exact.  A canonical entry a/b of x has a
    sine-free b, so y_j * b = lam * a holds in the plain polynomial ring,
    both sides being trig-reduced, and that ring is a UFD.  Each m is
    b_p / gcd(lam, b_p), so lam ends as the lcm of the b_j, up to a
    constant.  Then y has no common factor: a prime factor of the lcm
    divides b_j to its highest power for some j, and it does not divide
    (lcm / b_j) * a_j.  So only a constant separates y from the normal
    form, and entry f, which is lam, fixes it.  A lam with a sine would
    break this: with lam = sin(theta), [sin(theta), 1 + cos(theta)] would
    come back as [1 - cos(theta), sin(theta)].  When lam stayed 1, y is x,
    whose entry f is 1, and only the sign rule applies.
    """
    y: list[sympoly.Poly] = [{} for _ in rows[0]]
    y[f] = sympoly.p_const(1)
    scaled = False
    for k in range(len(pivot_cols) - 1, -1, -1):
        row, pj = rows[k], pivot_cols[k]
        acc: sympoly.Poly = {}
        for j, e in enumerate(row):
            if e and y[j] and j != pj:
                acc = sympoly.p_add(acc, sympoly.p_mul(e, y[j]))
        acc = chart.reduce(acc)
        if not acc:
            continue
        p = row[pj]
        q = sympoly.p_div_exact(acc, p)
        if q is not None:
            y[pj] = sympoly.p_neg(q)
            continue
        y_p, m = clear_sines(chart, sympoly.p_neg(acc), p)
        g = sympoly.p_gcd(y_p, m)
        if not sympoly.p_is_const(g):
            y_p, m = sympoly.p_div_exact(y_p, g), sympoly.p_div_exact(m, g)
        y = [sympoly.p_mul(t, m) for t in y]
        y[pj] = y_p
        scaled = True
    if scaled:
        lam = y[f]
        c = Fraction(sympoly.p_lead(sympoly.p_primitive(lam))[1]) / sympoly.p_lead(lam)[1]
        y = [sympoly.p_scale(t, c) for t in y]
    first = next(t for t in y if t)  # y_f is nonzero
    if sympoly.p_lead(first)[1] < 0:
        y = [sympoly.p_neg(t) for t in y]
    return y


def left_nullspace(matrix: Matrix, chart: Chart) -> list[list[Expr]]:
    """Exact basis of {c : c M = 0}: the right nullspace of the transpose,
    which `zip(*M)` takes.  An M with no columns transposes to no rows, so
    every unit vector of length len(M) solves it, and an empty M has none."""
    return right_nullspace(list(zip(*matrix)), chart, ncols=len(matrix))


def unit_vector(chart: Chart, n: int, j: int) -> list[Expr]:
    """The j-th unit vector of length n."""
    v = [chart.zero] * n
    v[j] = chart.one
    return v


def rank_at_point(matrix: Matrix, point: SamplePoint) -> int:
    """Rank of the matrix evaluated at one admissible point (exact rationals)."""
    rows = [[eval_at(e, point) for e in row] for row in matrix]
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        sel = None
        for i in range(rank, m):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            col += 1
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, m):
            if rows[i][col] != 0:
                factor = rows[i][col] / pivot
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _prefix_ranks(rows: list[dict[int, int]]) -> list[int]:
    """Ranks mod PRIME of rows[:1], rows[:2], ... by one forward elimination
    on sparse rows, {column: nonzero residue}, with no modular inverse.

    Each pivot is kept as (column, pivot residue, the rest of its row); the
    rest is zero in every earlier pivot column.  A row is reduced by the
    pivots in turn: its entry f in the pivot column is popped, the row is
    scaled by the pivot residue p (skipped when p is 1) and f times the rest
    is subtracted, which is p*row - f*pivot row.  Scaling by a unit changes
    no rank, so no pivot row is normalized.  The rows are consumed: a row
    that becomes a pivot is its rest."""
    pivots: list[tuple[int, int, dict[int, int]]] = []
    out: list[int] = []
    for row in rows:
        for col, p, rest in pivots:
            f = row.pop(col, 0)
            if f:
                if p != 1:
                    row = {c: a * p % PRIME for c, a in row.items()}
                for c, b in rest.items():
                    v = (row.get(c, 0) - f * b) % PRIME
                    if v:
                        row[c] = v
                    else:
                        row.pop(c, None)
        if row:
            col, p = row.popitem()
            pivots.append((col, p, row))
        out.append(len(pivots))
    return out


def _nonzero_cells(matrix: Matrix) -> tuple[list[tuple[int, int]], list[Expr]]:
    """The (row, column) cells of the nonzero entries, and those entries.
    Only they are evaluated and eliminated: a zero entry has no pole and no
    residue, so leaving it out draws the same points."""
    cells = [(i, j) for i, row in enumerate(matrix) for j, e in enumerate(row) if e.num]
    return cells, [matrix[i][j] for i, j in cells]


class _ChartSampling:
    """What one engine keeps per chart: the chart itself (so that its id,
    the key, is never reused while the engine lives), the constraints moved
    onto it, and its shared points (`RankEngine._residues`)."""

    __slots__ = ("chart", "constraints", "points")

    def __init__(self, chart: Chart, constraints: Sequence[Expr]) -> None:
        self.chart = chart
        self.constraints = tuple(transfer(c, chart) for c in constraints)
        self.points: list[ModularPoint] = []


class RankEngine:
    """Generic ranks of symbolic matrices from seeded points in F_p.

    `independent_rows` evaluates every nonzero entry at up to POINTS
    admissible points and takes, prefix by prefix, the largest rank seen:
    modular ranks never exceed generic ones, so the maximum is the generic
    rank unless every point hit a vanishing minor of that prefix (for a
    minor of degree D, probability at most (D/p)^POINTS).  It stops after
    one point when the first min(m, n) rows are already independent.

    `lower_bound` reads the first shared point only.  Its callers, the
    rank-rise test of `distributions` and the jet-block pre-check of
    `system.verify_flat_output`, read only "the rank exceeds k", and one
    point with rank above k proves that, with no probability involved.  A
    rise the point misses (probability at most D/p) goes to the exact
    dual or echelon, just as any "not proven" does, so no answer rests on
    it.

    Every point is drawn in one place, `_residues`, from the engine's seeded
    RNG.  The k-th point of a chart is drawn when a call first needs it and
    every later call on that chart reads it; each expression is evaluated
    once per point (`sample.residues_at`).  It is drawn again in its place
    when the chart has gained a generator since or when an entry of the
    call has a pole there, and later calls read the new point.  Sharing
    keeps the error bound: on the execution path where every earlier rank
    decision was right, the matrices the question asks about are fixed by
    its input and do not depend on the points.  So the union bound over
    those decisions, the sum of each matrix's (D/p)^POINTS, is the same as
    with fresh points per call; the union bound needs no independence
    between the decisions.  A replaced point keeps it: it is drawn fresh
    from the engine's RNG, conditioned only on the constraints and on no
    pole among that call's entries, which on that path are fixed too.

    The engine runs no exact elimination itself; an exact check sits where
    a verdict reads the rank.  What the answers rest on:

    - exact facts, since a sampled rank is a proven lower bound: the
      integrability and rank of each Q_j and the involutivity and
      membership answers of `distributions` (an exact dual, or a sampled
      rank that meets an upper bound or rises), and every pass of the
      rank check, whose sampled ladder rank meets the exact upper bound
      n + rank J (`system.verify_flat_output`);
    - sampling alone: a failed rank check, which an unlucky point could
      report for a flat pair, the input-field rank 2 that
      `system.ControlAffineSystem` requires, and any sampled rank that no
      exact dual or upper bound has checked yet.
    """

    def __init__(self, seed: int = 0, constraints: Sequence[Expr] = ()) -> None:
        self.rng = random.Random(seed)
        self.constraints = tuple(constraints)
        self._charts: dict[int, _ChartSampling] = {}

    def _sampling(self, chart: Chart) -> _ChartSampling:
        got = self._charts.get(id(chart))
        if got is None:
            got = self._charts[id(chart)] = _ChartSampling(chart, self.constraints)
        return got

    def _residues(self, state: _ChartSampling, k: int, entries: list[Expr]) -> list[int]:
        """The residues of `entries` at the chart's k-th shared point, drawn
        when missing and drawn again in its place when the chart has gained
        a generator since, which has no value there, or when an entry has a
        pole there."""
        points = state.points
        if k < len(points) and len(points[k].values) == len(state.chart.gens()):
            residues = residues_at(entries, points[k])
            if residues is not None:
                return residues
        point = admissible_point(state.chart, self.rng, state.constraints, entries)
        if k < len(points):
            points[k] = point
        else:
            points.append(point)
        return residues_at(entries, point)

    def _rows_at(
        self, chart: Chart, k: int, m: int, cells: list[tuple[int, int]], entries: list[Expr]
    ) -> list[dict[int, int]]:
        """The m sparse rows of residues of `entries`, at `cells`, at the
        chart's k-th shared point."""
        rows: list[dict[int, int]] = [{} for _ in range(m)]
        for (i, j), v in zip(cells, self._residues(self._sampling(chart), k, entries)):
            if v:
                rows[i][j] = v
        return rows

    def independent_rows(self, matrix: Matrix, chart: Chart) -> list[int]:
        """Indices of the greedy independent rows: row i is taken iff it
        raises the generic rank of the rows before it.  Their number is the
        generic rank of the matrix."""
        m = len(matrix)
        cells, entries = _nonzero_cells(matrix)
        if not cells:
            return []
        full = min(m, len(matrix[0]))
        best = [0] * m
        for k in range(POINTS):
            ranks = _prefix_ranks(self._rows_at(chart, k, m, cells, entries))
            best = [max(a, b) for a, b in zip(best, ranks)]
            if best[full - 1] == full:
                break  # the first min(m, n) rows are independent: no point can do better
        return [i for i in range(m) if best[i] > (best[i - 1] if i else 0)]

    def lower_bound(self, matrix: Matrix, chart: Chart) -> int:
        """The rank of the matrix at the chart's first shared point.  It is a
        proven lower bound on the generic rank, so it answers "does the rank
        exceed k?" when it says yes; a no is only "not proven"."""
        cells, entries = _nonzero_cells(matrix)
        if not cells:
            return 0
        return _prefix_ranks(self._rows_at(chart, 0, len(matrix), cells, entries))[-1]

    def rank(self, matrix: Matrix, chart: Chart) -> int:
        return len(self.independent_rows(matrix, chart))
