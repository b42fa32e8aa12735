"""Seeded corpus of model files for the flatkit benchmark, built with sympy.

Nothing here imports flatkit: the program under test only ever receives the
JSON model files written by this module.  The prolonged example1 bases come
from flatkit's own `prolong` command, run by `run.py`.

Two transforms make the variants of a base model, each carrying the declared
flat output along:

* regular static feedback u = alpha(x) + beta(x) v, with polynomial alpha and
  a lower-triangular beta whose determinant is a nonzero constant;
* a triangular polynomial change of state coordinates, each new coordinate
  being the old one plus a polynomial in coordinates earlier in a fixed
  order, so the inverse is polynomial as well.  Angles (arguments of sin and
  cos) are never changed: trig of compound arguments lies outside flatkit's
  expression field.

The structure of every transform (which monomials appear where, and the size
of each coefficient) is fixed per base model in BASES; the seed draws the
signs of the coefficients.  This keeps the cost of a corpus nearly
independent of the seed, so the timings of two runs with different seeds are
comparable.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import sympy

# The i-th coefficient of a template has magnitude MAGNITUDES[i % 3] and a
# seeded sign.
MAGNITUDES = (2, 1, 3)


def _symbols(model: dict) -> dict[str, sympy.Symbol]:
    names = list(model["states"]) + list(model.get("parameters", []))
    return {n: sympy.Symbol(n) for n in names}


def to_sympy(text: str, syms: dict[str, sympy.Symbol]) -> sympy.Expr:
    """Parse one component written in flatkit's expression grammar."""
    local = dict(syms)
    local.update(sin=sympy.sin, cos=sympy.cos)
    return sympy.sympify(text.replace("^", "**"), locals=local)


def render(e: sympy.Expr) -> str:
    """flatkit's grammar: `^` for powers, everything else as sympy prints."""
    return sympy.sstr(sympy.expand(e), order="lex").replace("**", "^")


def _fill(template: str, coeffs: list[int], syms) -> sympy.Expr:
    """A template with its coefficients c0, c1, ... substituted."""
    local = {f"c{i}": sympy.Integer(c) for i, c in enumerate(coeffs)}
    return to_sympy(template, {**syms, **local})


def _draw(rng: random.Random, count: int) -> list[int]:
    return [rng.choice((-1, 1)) * MAGNITUDES[i % 3] for i in range(count)]


def feedback_variant(model: dict, template: dict, rng: random.Random, name: str) -> dict:
    """u = alpha + beta v: f += g alpha, (g1, g2) <- (g1, g2) beta."""
    syms = _symbols(model)
    coeffs = _draw(rng, template["ncoeffs"])
    alpha = [_fill(t, coeffs, syms) for t in template["alpha"]]
    beta = [[_fill(t, coeffs, syms) for t in row] for row in template["beta"]]
    det = sympy.expand(beta[0][0] * beta[1][1] - beta[0][1] * beta[1][0])
    if not det.is_number or det == 0:
        raise ValueError(f"feedback template for {name}: det beta = {det}")
    f = [to_sympy(c, syms) for c in model["drift"]]
    g1 = [to_sympy(c, syms) for c in model["g1"]]
    g2 = [to_sympy(c, syms) for c in model["g2"]]
    nf = [fi + a * alpha[0] + b * alpha[1] for fi, a, b in zip(f, g1, g2)]
    ng1 = [a * beta[0][0] + b * beta[1][0] for a, b in zip(g1, g2)]
    ng2 = [a * beta[0][1] + b * beta[1][1] for a, b in zip(g1, g2)]
    out = dict(model)
    out.update(
        name=name,
        drift=[render(e) for e in nf],
        g1=[render(e) for e in ng1],
        g2=[render(e) for e in ng2],
    )
    return out


def state_variant(
    model: dict, template: dict, rng: random.Random, name: str, pairs: list[list[str]]
) -> tuple[dict, list[list[str]]]:
    """New coordinates y_i = x_i + p_i(x) for the states named in the template,
    applied in the template's order; p_i may only use states not yet changed,
    so the map is triangular and its inverse polynomial.  Returns the model
    and the given output pairs written in the new coordinates."""
    syms = _symbols(model)
    coeffs = _draw(rng, template["ncoeffs"])
    states = list(model["states"])
    angles = _angles(model, syms)
    shifts = [(s, _fill(t, coeffs, syms)) for s, t in template["shift"]]
    for i, (s, p) in enumerate(shifts):
        if s in angles:
            raise ValueError(f"state template for {name}: angle {s} changed")
        later = {t for t, _ in shifts[i:]}
        if {str(v) for v in p.free_symbols} & later:
            raise ValueError(f"state template for {name}: not triangular at {s}")
    # forward map new = old + p(old); its inverse, old = new - p(old), is
    # resolved by substituting the already-inverted coordinates in order
    inverse: dict[sympy.Symbol, sympy.Expr] = {}
    for s, p in shifts:
        inverse[syms[s]] = syms[s] - p.xreplace(inverse)
    forward = {syms[s]: syms[s] + p for s, p in shifts}

    def pull(e: sympy.Expr) -> sympy.Expr:
        return sympy.expand(e.xreplace(inverse))

    def push(field: list[sympy.Expr]) -> list[sympy.Expr]:
        # components of the field in the new coordinates: L_field(new_i)
        out = []
        for s in states:
            yi = forward.get(syms[s], syms[s])
            comp = sum(sympy.diff(yi, syms[t]) * c for t, c in zip(states, field))
            out.append(pull(comp))
        return out

    out = dict(model)
    fields = {}
    for key in ("drift", "g1", "g2"):
        comps = [to_sympy(c, syms) for c in model[key]]
        fields[key] = [render(e) for e in push(comps)]
    out.update(name=name, **fields)
    carried = [[render(pull(to_sympy(h, syms))) for h in pair] for pair in pairs]
    if model.get("flat_output"):
        out["flat_output"] = carried[0]
    return out, carried


def _angles(model: dict, syms) -> set[str]:
    found: set[str] = set()
    for key in ("drift", "g1", "g2"):
        for c in model[key]:
            for fn in to_sympy(c, syms).atoms(sympy.sin, sympy.cos):
                found |= {str(s) for s in fn.args[0].free_symbols}
    return found


def _fb(alpha1: str, alpha2: str, beta21: str) -> dict:
    """u1 = c0 m1 + c2 v1, u2 = c1 m2 + c3 m3 v1 + c4 v2: det beta = c2 c4."""
    return {
        "ncoeffs": 5,
        "alpha": [f"c0*{alpha1}", f"c1*{alpha2}"],
        "beta": [["c2", "0"], [f"c3*{beta21}", "c4"]],
    }


def _st(*shifts: str) -> dict:
    """State shifts `name: monomial`, the i-th scaled by coefficient ci."""
    pairs = [s.split(":") for s in shifts]
    return {
        "ncoeffs": len(pairs),
        "shift": [[n.strip(), f"c{i}*{m.strip()}"] for i, (n, m) in enumerate(pairs)],
    }


# Base models: where each comes from, a wrong output pair (valid indices, not
# flat) and the variant templates.  Feedback mixes g2 into g1 only (beta is
# lower triangular) and state changes leave the flat-output coordinates of
# vtol alone: the excluded directions hit the two faults kept below as FIXED
# instances, and a seeded instance must not fail on some seeds only.
BASES = {
    "vtol": {
        "source": "vtol.json",
        "wrong": ["theta", "x"],
        "feedback": [
            _fb("vx", "x*z", "z"),
            _fb("omega^2", "vz", "x*theta"),
            _fb("theta", "x^2", "vx"),
        ],
        "state": [
            _st("vx: x^2", "vz: x*z", "omega: theta"),
            _st("vx: z*theta", "omega: x"),
            _st("x: z", "vz: z^2"),
        ],
    },
    "example3": {
        "source": "example3.json",
        "wrong": ["z1", "z6"],
        "feedback": [
            _fb("z2*z4", "z7", "z1"),
            _fb("z3", "z1*z5", "z2"),
            _fb("z6^2", "z4", "z1*z3"),
        ],
        "state": [
            _st("z2: z1^2", "z5: z3*z4", "z7: z6"),
            _st("z4: z1*z3", "z6: z2"),
            _st("z3: z1^2", "z7: z5"),
        ],
    },
}
for _orders in ((1, 0), (2, 0), (2, 1)):
    _last = "u1_d1" if _orders[0] == 2 else "u1"
    BASES["example1-p%d%d" % _orders] = {
        "source": "example1.json",
        "prolong": list(_orders),
        "wrong": ["x1", "x3"],
        "feedback": [
            _fb("x3", "x1*x5", "x2"),
            _fb("x4^2", "x2", "x1"),
            _fb("u1", "x3*x4", "x5"),
        ],
        "state": [
            _st("x3: x1^2", "x5: x2*x4", f"{_last}: x1"),
            _st("x4: x1*x2", "x5: x3"),
            _st("x2: x1^2", "x3: x4"),
        ],
    }

# The two faults of flatkit found while sizing the benchmark, as fixed inputs
# (they do not depend on the seed and fail on every run):
# F1  g2 <- g2 + g1 on vtol: the Lemma-1 square root 4 - 4 cos^2 = (2 sin)^2
#     is missed, the step is tagged C-ii and analyze finds no output;
# F2  z <- z + x^2 on vtol: first integrals miss z - x^2 + eps cos(theta).
FIXED = {
    "vtol-F1": (
        "feedback",
        {"ncoeffs": 0, "alpha": ["0", "0"], "beta": [["1", "1"], ["0", "1"]]},
    ),
    "vtol-F2": ("state", {"ncoeffs": 0, "shift": [["z", "x^2"]]}),
}


def build(bases: dict[str, dict], seed: int) -> list[dict]:
    """Corpus entries for one seed, in a fixed order.

    `bases` maps each BASES key to its model dict (prolongations already
    applied).  Each entry names its model, the declared flat output carried
    through the transform (`flat`) and the wrong pair likewise (`wrong`);
    `template` is the variant's index among its base's templates of its
    kind."""
    rng = random.Random(seed)
    out = []
    for key, spec in BASES.items():
        model = bases[key]
        pairs = [model["flat_output"], spec["wrong"]]
        out.append(_entry(key, key, "base", model, pairs))
        for i, tmpl in enumerate(spec["feedback"]):
            name = f"{key}-fb{i}"
            var = feedback_variant(model, tmpl, rng, name)
            out.append(_entry(name, key, "feedback", var, pairs, i))
        for i, tmpl in enumerate(spec["state"]):
            name = f"{key}-st{i}"
            var, carried = state_variant(model, tmpl, rng, name, pairs)
            out.append(_entry(name, key, "state", var, carried, i))
    for name, (kind, tmpl) in FIXED.items():
        model = bases["vtol"]
        pairs = [model["flat_output"], BASES["vtol"]["wrong"]]
        fixed_rng = random.Random(0)
        if kind == "feedback":
            var, carried = feedback_variant(model, tmpl, fixed_rng, name), pairs
        else:
            var, carried = state_variant(model, tmpl, fixed_rng, name, pairs)
        out.append(_entry(name, "vtol", "fixed", var, carried))
    return out


def _entry(name: str, base: str, kind: str, model: dict, pairs, template: int = 0) -> dict:
    model = dict(model, name=name)
    return {
        "name": name,
        "base": base,
        "kind": kind,
        "template": template,
        "model": model,
        "flat": list(pairs[0]),
        "wrong": list(pairs[1]),
    }


def write(entries: list[dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for e in entries:
        text = json.dumps(e["model"], indent=2, sort_keys=True) + "\n"
        (directory / f"{e['name']}.json").write_text(text)
