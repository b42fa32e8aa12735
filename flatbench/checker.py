"""Independent answer checks for flatkit's verdicts, computed with sympy.

Nothing here imports flatkit.  For a model file and an output pair phi the
checker computes, from the model's own equations:

* the relative degrees K = (k1, k2): the smallest t with L_g L_f^(t-1) phi_i
  not identically zero;
* the indices R = (n - k2, n - k1) and d = n - k1 - k2;
* the flatness rank test on the input-jet chart: the derivative ladders
  phi_i, ..., phi_i^(R_i - 1) along f + g1 u1 + g2 u2 (+ the jet shifts) must
  have differentials of rank n + d, with every dx_j in their span.

Polynomials live in a sympy `ring` over QQ whose generators are the states,
the parameters, one (S, C) pair standing for (sin, cos) of each angle state,
and the input jets.  A rational function is kept as numerator / D^m for the
denominator D of the output itself, so no gcd is ever taken.  Identities and
ranks are decided exactly at seeded rational points: a nonzero polynomial
vanishes only on a thin set, so the maximum rank over a few random points is
the generic rank.  sin and cos take the values 2t / (1 + t^2) and
(1 - t^2) / (1 + t^2) for a rational t, a point on the unit circle, so
S^2 + C^2 = 1 holds at every point used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.rings import ring

# Numerators and denominators of sampled rationals are drawn up to this.
BOUND = 997
# Points per rank test; the generic rank is the maximum over them.
RANK_POINTS = 3
# Points per identity (zero) test.
ZERO_POINTS = 3


class UnsupportedModel(ValueError):
    """The model leaves the fragment this checker handles."""


@dataclass(frozen=True)
class Answer:
    """What the checker derives for one (model, output pair)."""

    K: tuple[int, int]
    R: tuple[int, int]
    d: int
    stacked_rank: int
    spans_states: bool

    @property
    def flat(self) -> bool:
        return self.spans_states and self.stacked_rank == sum(self.R)


def _sympy_expr(text: str, names: dict[str, sympy.Symbol]) -> sympy.Expr:
    local = dict(names)
    local.update(sin=sympy.sin, cos=sympy.cos)
    return sympy.sympify(text.replace("^", "**"), locals=local)


class Checker:
    """One model's equations on the jet ring, ready for questions."""

    def __init__(self, model: dict, seed: int = 0):
        self.rng = random.Random(seed)
        self.states = list(model["states"])
        self.params = list(model.get("parameters", []))
        names = {s: sympy.Symbol(s) for s in self.states + self.params}
        texts = {key: model[key] for key in ("drift", "g1", "g2")}
        exprs = {k: [_sympy_expr(t, names) for t in v] for k, v in texts.items()}
        self.angles = sorted(
            {
                str(fn.args[0])
                for comps in exprs.values()
                for e in comps
                for fn in e.atoms(sympy.sin, sympy.cos)
            }
        )
        for a in self.angles:
            if a not in self.states:
                raise UnsupportedModel(f"trig argument {a} is not a state")
        self.n = len(self.states)
        # jets of each input up to order n are enough for any ladder: R_i <= n
        self.jets = [[f"J{i}_{l}" for l in range(self.n + 1)] for i in (1, 2)]
        gen_names = (
            self.states
            + self.params
            + [f"{p}_{a}" for a in self.angles for p in ("S", "C")]
            + self.jets[0]
            + self.jets[1]
        )
        self.ring, *gens = ring(",".join(gen_names), sympy.QQ)
        self.gen = dict(zip(gen_names, gens))
        self.index = {name: i for i, name in enumerate(gen_names)}
        self.names = names
        self.trig = {}
        for a in self.angles:
            self.trig[sympy.sin(names[a])] = sympy.Symbol(f"S_{a}")
            self.trig[sympy.cos(names[a])] = sympy.Symbol(f"C_{a}")
        self.f = [self._poly(e) for e in exprs["drift"]]
        self.g1 = [self._poly(e) for e in exprs["g1"]]
        self.g2 = [self._poly(e) for e in exprs["g2"]]
        self.constraints = [
            self._poly(_sympy_expr(t, names)) for t in model.get("constraints", [])
        ]

    # -- conversion -------------------------------------------------------------

    def _to_ring(self, e: sympy.Expr) -> tuple:
        e = e.xreplace(self.trig)
        for fn in e.atoms(sympy.Function):
            raise UnsupportedModel(f"function {fn} outside sin/cos of a state")
        num, den = sympy.fraction(sympy.together(e))
        return self.ring.from_expr(num), self.ring.from_expr(den)

    def _poly(self, e: sympy.Expr):
        num, den = self._to_ring(e)
        if den.is_ground:
            return num * (1 / den.LC)
        raise UnsupportedModel(f"model component {e} is not polynomial")

    # -- derivations ------------------------------------------------------------

    def _partial(self, p, state: str):
        """d/d(state) of a ring element, with the chain rule through S, C."""
        out = p.diff(self.index[state])
        if state in self.angles:
            s, c = self.index[f"S_{state}"], self.index[f"C_{state}"]
            out += self.gen[f"C_{state}"] * p.diff(s) - self.gen[f"S_{state}"] * p.diff(c)
        return out

    def _lie(self, p, field):
        out = self.ring.zero
        for s, c in zip(self.states, field):
            if c:
                out += c * self._partial(p, s)
        return out

    def _total(self, p):
        """Total time derivative on the jet chart (inputs u_i = J{i}_0)."""
        out = self._lie(p, self.f)
        u1, u2 = self.gen[self.jets[0][0]], self.gen[self.jets[1][0]]
        out += u1 * self._lie(p, self.g1) + u2 * self._lie(p, self.g2)
        for chain in self.jets:
            for lo, hi in zip(chain, chain[1:]):
                out += self.gen[hi] * p.diff(self.index[lo])
        return out

    # -- sampling -------------------------------------------------------------

    def _rational(self) -> Fraction:
        return Fraction(self.rng.randint(-BOUND, BOUND), self.rng.randint(1, BOUND))

    def _point(self, dens) -> list[Fraction]:
        """Seeded rational point where every constraint and denominator is
        nonzero and every (S, C) lies on the unit circle."""
        for _ in range(100):
            vec = [self._rational() for _ in self.ring.symbols]
            for a in self.angles:
                t = self._rational()
                vec[self.index[f"S_{a}"]] = 2 * t / (1 + t * t)
                vec[self.index[f"C_{a}"]] = (1 - t * t) / (1 + t * t)
            if all(_eval(c, vec) for c in list(self.constraints) + list(dens)):
                return vec
        raise UnsupportedModel("no admissible sample point")

    def _is_zero(self, num, dens) -> bool:
        if not num:
            return True
        return all(_eval(num, self._point(dens)) == 0 for _ in range(ZERO_POINTS))

    # -- the questions ----------------------------------------------------------

    def output(self, texts) -> list[tuple]:
        return [self._to_ring(_sympy_expr(t, self.names)) for t in texts]

    def relative_degree(self, num, den) -> int:
        """Smallest t with L_g L_f^(t-1) h != 0, for h = num / den.  Lie
        derivatives of num/den^m are numerators over den^(m+1)."""
        cur, m = num, 0
        for t in range(1, self.n + 1):
            for g in (self.g1, self.g2):
                top = self._lie(cur, g) * den - m * cur * self._lie(den, g)
                if not self._is_zero(top, [den]):
                    return t
            cur, m = self._lie(cur, self.f) * den - m * cur * self._lie(den, self.f), m + 1
        raise UnsupportedModel("relative degree exceeds the state dimension")

    def answer(self, texts) -> Answer:
        (n1, d1), (n2, d2) = self.output(texts)
        K = (self.relative_degree(n1, d1), self.relative_degree(n2, d2))
        if K[0] + K[1] > self.n:
            raise UnsupportedModel(f"relative degrees {K} exceed n = {self.n}")
        R = (self.n - K[1], self.n - K[0])
        d = self.n - K[0] - K[1]
        ladders = []
        for (num, den), r in zip(((n1, d1), (n2, d2)), R):
            cur, m = num, 0
            for _ in range(r):
                ladders.append((cur, m, den))
                cur, m = self._total(cur) * den - m * cur * self._total(den), m + 1
        coords = self.states + [j for chain in self.jets for j in chain]
        # gradient entries as numerators over den^(m+1)
        grads = []
        for num, m, den in ladders:
            row = []
            for c in coords:
                row.append(self._partial(num, c) * den - m * num * self._partial(den, c))
            grads.append((row, m + 1, den))
        dens = sorted({den for _, _, den in ladders}, key=str)
        best, joint_best = 0, 0
        for _ in range(RANK_POINTS):
            vec = self._point(dens)
            mat = []
            for row, power, den in grads:
                scale = _eval(den, vec) ** power
                mat.append([_eval(e, vec) / scale for e in row])
            best = max(best, _rank(mat))
            units = [[int(i == j) for j in range(len(coords))] for i in range(self.n)]
            joint_best = max(joint_best, _rank(mat + units))
        return Answer(K, R, d, best, joint_best == best)


def _eval(p, vec: list[Fraction]) -> Fraction:
    """Exact value of a ring element at a rational point."""
    total = Fraction(0)
    for monom, coeff in p.items():
        term = Fraction(int(coeff.numerator), int(coeff.denominator))
        for v, e in zip(vec, monom):
            if e:
                term *= v**e
        total += term
    return total


def _rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / p[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank
