"""Exact linear algebra over the rational-function field, plus generic ranks.

Nullspaces, echelon forms, `exact_rank` and `exact_independent_rows` are
exact; `exact_independent_rows` serves first integrals only, whose function
list is rendered.  `RankEngine` finds generic ranks, and the greedy
independent rows behind them, by evaluating a matrix at random points of
the prime field F_p, p = 2^61 - 1 (see `sample`).
A modular rank can only fall below the generic rank, never exceed it, and by
the Schwartz-Zippel lemma one point misses with probability at most D/p for
a nonzero minor of degree D.  Rank decisions feed integrability verdicts, so
they are never left to chance alone.  The exact duals of `distributions`
check the sequence ranks: the annihilator or coannihilator of a span
cross-checks its sampled rank when it is built.  Each engine also checks its
first sampled rank against an exact elimination, but that first call is the
2-row input-field rank `ControlAffineSystem.__post_init__` takes when the
model is built (2 x 6 for vtol, 2 x 7 for example3), never an analysis
matrix; ROADMAP item 7 moves this guard to the matrix behind a verdict.
`rank_at_point` is the exact rational counterpart, kept as a reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import RankDisagreementError
from .expr import Chart, Expr, eval_at, transfer
from .sample import PRIME, SamplePoint, draw_residues
from . import sympoly

Matrix = list[list[Expr]]

# Sample points per generic-rank call at most; RankEngine stops after one
# when the first min(m, n) rows are already independent.
POINTS = 2


def _clear_row_denominators(row: Sequence[Expr], chart: Chart) -> list[Expr]:
    """Scale a row to polynomial entries (denominator 1) by the primitive lcm
    of its denominators; a row of polynomials comes back as it is."""
    den = sympoly.p_const(1)
    for e in row:
        if not sympoly.p_is_const(e.den):
            den = sympoly.p_lcm(den, e.den)
    if sympoly.p_is_const(den):
        return list(row)
    factor = Expr(chart, den, sympoly.p_const(1))
    return [e * factor for e in row]


@dataclass
class EchelonResult:
    rank: int
    rows: Matrix            # eliminated rows, pivot rows first in pivot order
    pivot_cols: list[int]   # pivot column of rows[k]
    ncols: int


def echelon(matrix: Matrix, chart: Chart) -> EchelonResult:
    """Fraction-free forward elimination with degree-minimizing pivoting.

    Pivots are chosen among the remaining entries by least total degree,
    tie-broken by lowest row then lowest column index, which keeps the
    intermediate polynomials small in the sparse, low-degree matrices
    produced by bracket computations.
    """
    rows: Matrix = [_clear_row_denominators(list(r), chart) for r in matrix]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    pivot_cols: list[int] = []
    prev_pivot: Optional[Expr] = None
    k = 0
    used_cols: set[int] = set()
    while k < m:
        best: Optional[tuple[int, int, int]] = None  # (degree, row, col)
        for i in range(k, m):
            for j in range(ncols):
                if j in used_cols:
                    continue
                e = rows[i][j]
                if e.is_zero():
                    continue
                deg = e.total_degree()
                cand = (deg, i, j)
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
                # Field arithmetic: skipping the Bareiss rescale of zero-head
                # rows only changes row scaling, never rank or nullspace.
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
    return EchelonResult(rank=len(pivot_cols), rows=rows, pivot_cols=pivot_cols, ncols=ncols)


def exact_rank(matrix: Matrix, chart: Chart) -> int:
    if not matrix:
        return 0
    return echelon(matrix, chart).rank


def exact_independent_rows(matrix: Matrix, chart: Chart) -> list[int]:
    """Indices of the rows that raise the exact rank of the rows taken
    before them: the exact counterpart of `RankEngine.independent_rows`."""
    taken: Matrix = []
    picked: list[int] = []
    for i, row in enumerate(matrix):
        if all(e.is_zero() for e in row):
            continue
        if not taken or echelon(taken + [row], chart).rank > len(taken):
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
    """Scale a vector to primitive polynomial entries with a positive lead."""
    one = sympoly.p_const(1)
    cleared = _clear_row_denominators(vec, chart)
    g: Optional[sympoly.Poly] = None
    for e in cleared:
        if not e.is_zero():
            g = e.num if g is None else sympoly.p_gcd(g, e.num)
    if g is None:
        return list(vec)
    out = []
    for e in cleared:
        if e.is_zero():
            out.append(chart.zero)
        else:
            q = sympoly.p_div_exact(e.num, g)
            assert q is not None
            out.append(Expr(chart, q, one))
    for e in out:
        if not e.is_zero():
            _, lead = sympoly.p_lead(e.num)
            if lead < 0:
                out = [-x for x in out]
            break
    return out


def right_nullspace(matrix: Matrix, chart: Chart, ncols: Optional[int] = None) -> list[list[Expr]]:
    """Exact basis of {x : M x = 0}, entries normalized to primitive polynomials.

    Columns that are zero in every row produce unit solutions directly; the
    elimination then runs on the remaining block only.  On the wide, mostly
    empty matrices coming from jet-space annihilators this removes nearly all
    of the work.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(matrix[0])
    if not matrix:
        return [_unit(chart, ncols, j) for j in range(ncols)]
    live = [
        j for j in range(ncols) if any(not row[j].is_zero() for row in matrix)
    ]
    live_set = set(live)
    dead = [j for j in range(ncols) if j not in live_set]
    out = [_unit(chart, ncols, j) for j in dead]
    if not live:
        return out
    sub = [[row[j] for j in live] for row in matrix]
    res = echelon(sub, chart)
    piv = set(res.pivot_cols)
    free = [j for j in range(len(live)) if j not in piv]
    for f in free:
        x: list[Expr] = [chart.zero] * len(live)
        x[f] = chart.one
        for k in range(res.rank - 1, -1, -1):
            pj = res.pivot_cols[k]
            acc = chart.zero
            row = res.rows[k]
            for j in range(len(live)):
                if j != pj and not row[j].is_zero() and not x[j].is_zero():
                    acc = acc + row[j] * x[j]
            x[pj] = -acc / row[pj]
        full = [chart.zero] * ncols
        for j, col in enumerate(live):
            full[col] = x[j]
        out.append(normalize_vector(full, chart))
    return out


def left_nullspace(matrix: Matrix, chart: Chart) -> list[list[Expr]]:
    """Exact basis of {c : c M = 0}."""
    if not matrix:
        return []
    transpose = [[matrix[i][j] for i in range(len(matrix))] for j in range(len(matrix[0]))]
    return right_nullspace(transpose, chart, ncols=len(matrix))


def _unit(chart: Chart, n: int, j: int) -> list[Expr]:
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
    on sparse rows, {column: nonzero residue}; the rows are reduced in place.
    Each pivot row is scaled to 1 in its pivot column and is zero in every
    earlier pivot column, so reducing by the pivots in turn clears them all."""
    pivots: list[tuple[int, dict[int, int]]] = []
    out: list[int] = []
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


class RankEngine:
    """Generic ranks of symbolic matrices from seeded points in F_p.

    Each call evaluates every nonzero entry once at each of POINTS fresh
    admissible points and takes, prefix by prefix, the largest rank seen:
    modular ranks never exceed generic ones, so the maximum is the generic
    rank unless every point hit a vanishing minor of that prefix (for a
    minor of degree D, probability at most (D/p)^POINTS).  Every engine
    cross-checks its first call against an exact elimination; a mismatch
    means the sampling scheme itself is broken for this problem and the
    analysis must not continue on silent guesses.  That first call is the
    2-row input-field rank of `ControlAffineSystem.__post_init__`, so the
    check covers no sequence or rank-check matrix; the exact duals of
    `distributions` check those (ROADMAP item 7 moves this guard).
    """

    def __init__(self, seed: int = 0, constraints: Sequence[Expr] = ()) -> None:
        self.rng = random.Random(seed)
        self.constraints = tuple(constraints)
        self._crosschecked = False
        self._constraint_cache: dict[int, tuple[Expr, ...]] = {}

    def constraints_on(self, chart: Chart) -> tuple[Expr, ...]:
        key = id(chart)
        got = self._constraint_cache.get(key)
        if got is None:
            got = tuple(transfer(c, chart) for c in self.constraints)
            self._constraint_cache[key] = got
        return got

    def draw(self, chart: Chart, exprs: Sequence[Expr]) -> list[int]:
        """Residues of `exprs` at one admissible point of the chart."""
        return draw_residues(chart, self.rng, exprs, self.constraints_on(chart))

    def independent_rows(self, matrix: Matrix, chart: Chart) -> list[int]:
        """Indices of the greedy independent rows: row i is taken iff it
        raises the generic rank of the rows before it.  Their number is the
        generic rank of the matrix."""
        m = len(matrix)
        # only nonzero entries are evaluated and eliminated: a zero entry
        # has no pole and no residue, so the points drawn stay the same
        cells = [
            (i, j) for i, row in enumerate(matrix) for j, e in enumerate(row) if not e.is_zero()
        ]
        if not cells:
            return []
        full = min(m, len(matrix[0]))
        entries = [matrix[i][j] for i, j in cells]
        best = [0] * m
        for _ in range(POINTS):
            rows: list[dict[int, int]] = [{} for _ in range(m)]
            for (i, j), v in zip(cells, self.draw(chart, entries)):
                if v:
                    rows[i][j] = v
            ranks = _prefix_ranks(rows)
            best = [max(a, b) for a, b in zip(best, ranks)]
            if best[full - 1] == full:
                break  # the first min(m, n) rows are independent: no point can do better
        picked = [i for i in range(m) if best[i] > (best[i - 1] if i else 0)]
        if not self._crosschecked:
            self._crosschecked = True
            exact = exact_rank(matrix, chart)
            if exact != len(picked):
                raise RankDisagreementError(
                    f"sampled rank {len(picked)} != exact rank {exact}"
                )
        return picked

    def rank(self, matrix: Matrix, chart: Chart) -> int:
        return len(self.independent_rows(matrix, chart))
