"""JSON model files describing two-input control-affine systems.

A model file is a flat JSON object: `name`, ordered `states`, exactly two
`inputs`, optional `parameters`, and per-state component lists `drift`, `g1`,
`g2` written in the expression grammar.  `flat_output` optionally names a
candidate output pair and `constraints` lists expressions that must stay
nonzero at sample points (e.g. a nonvanishing arm length).

`ModelFile` is a NamedTuple of those fields, in that order, so equality and
hash are the tuple's.  A loaded model also carries the parse made at load
time for the first `build_system` to take (`_LoadedModel`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import ModelFileError, ParseError, UnknownSymbolError
from .expr import Chart, Expr
from .fields import VectorField
from .linalg import RankEngine
from .parser import parse
from .system import ControlAffineSystem, prolong

_REQUIRED = ("name", "states", "inputs", "drift", "g1", "g2")
_OPTIONAL = ("parameters", "flat_output", "constraints")


class ModelFile(NamedTuple):
    """The fields of a model file; `to_dict` gives its JSON object."""

    name: str
    states: tuple[str, ...]
    inputs: tuple[str, str]
    parameters: tuple[str, ...]
    drift: tuple[str, ...]
    g1: tuple[str, ...]
    g2: tuple[str, ...]
    flat_output: Optional[tuple[str, str]]
    constraints: tuple[str, ...]

    _parsed = ()  # a ModelFile built in code has no parse to hand over

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "states": list(self.states),
            "inputs": list(self.inputs),
            "drift": list(self.drift),
            "g1": list(self.g1),
            "g2": list(self.g2),
        }
        if self.parameters:
            data["parameters"] = list(self.parameters)
        if self.flat_output is not None:
            data["flat_output"] = list(self.flat_output)
        if self.constraints:
            data["constraints"] = list(self.constraints)
        return data


class _LoadedModel(ModelFile):
    """A model file with the parse made at load time in `_parsed`, left for
    the first build_system to take; later builds parse again, so no two
    systems share a chart.  The parse takes no part in equality or hash."""


def _string_list(data: dict, key: str, source: str) -> list[str]:
    value = data[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ModelFileError(f"{source}: '{key}' must be a list of strings")
    return value


def model_from_dict(data: object, source: str = "<dict>") -> ModelFile:
    if not isinstance(data, dict):
        raise ModelFileError(f"{source}: top level must be a JSON object")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ModelFileError(f"{source}: missing keys {missing}")
    unknown = [k for k in data if k not in _REQUIRED + _OPTIONAL]
    if unknown:
        raise ModelFileError(f"{source}: unknown keys {unknown}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ModelFileError(f"{source}: 'name' must be a non-empty string")
    states = _string_list(data, "states", source)
    if not states or len(set(states)) != len(states):
        raise ModelFileError(f"{source}: 'states' must be non-empty and unique")
    inputs = _string_list(data, "inputs", source)
    if len(inputs) != 2 or inputs[0] == inputs[1]:
        raise ModelFileError(f"{source}: exactly two distinct inputs required")
    parameters = _string_list(data, "parameters", source) if "parameters" in data else []
    components = {}
    for key in ("drift", "g1", "g2"):
        comp = _string_list(data, key, source)
        if len(comp) != len(states):
            raise ModelFileError(
                f"{source}: '{key}' has {len(comp)} components for {len(states)} states"
            )
        components[key] = comp
    flat_output = None
    if data.get("flat_output") is not None:
        flat_output = _string_list(data, "flat_output", source)
        if len(flat_output) != 2:
            raise ModelFileError(f"{source}: 'flat_output' must list two expressions")
        flat_output = (flat_output[0], flat_output[1])
    constraints = (
        _string_list(data, "constraints", source) if "constraints" in data else []
    )
    model = _LoadedModel(
        name,
        tuple(states),
        (inputs[0], inputs[1]),
        tuple(parameters),
        tuple(components["drift"]),
        tuple(components["g1"]),
        tuple(components["g2"]),
        flat_output,
        tuple(constraints),
    )
    model._parsed = [_parse_all(model, source)]  # fail at load time, not first use
    return model


def load_model(path: str | Path) -> ModelFile:
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as err:
        raise ModelFileError(f"{p}: {err}") from err
    try:
        data = json.loads(raw)
    # bytes that are not UTF-8, nesting past the recursion limit and an
    # integer past the integer-string limit fail here, beside bad syntax
    except (ValueError, RecursionError) as err:
        raise ModelFileError(f"{p}: invalid JSON ({err})") from err
    return model_from_dict(data, source=str(p))


def save_model(model: ModelFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2) + "\n")


def _chart(model: ModelFile) -> Chart:
    return Chart(list(model.states), parameters=list(model.parameters))


def _parse(chart: Chart, text: str, where: str) -> Expr:
    """parse(chart, text), an unreadable text a ModelFileError at `where`."""
    try:
        return parse(chart, text)
    except (ParseError, UnknownSymbolError) as err:
        raise ModelFileError(f"{where}: {err}") from err


def _parse_field(
    chart: Chart, names: tuple[str, ...], comps: tuple[str, ...], label: str, source: str
) -> VectorField:
    return VectorField(chart, tuple(
        _parse(chart, text, f"{source}: {label} component for '{name}'")
        for name, text in zip(names, comps)
    ))


def _parse_all(model: ModelFile, source: str) -> tuple[Chart, VectorField, VectorField, VectorField, tuple[Expr, ...]]:
    try:
        chart = _chart(model)
    except ValueError as err:
        raise ModelFileError(f"{source}: {err}") from err
    f = _parse_field(chart, model.states, model.drift, "drift", source)
    g1 = _parse_field(chart, model.states, model.g1, "g1", source)
    g2 = _parse_field(chart, model.states, model.g2, "g2", source)
    cons = []
    for text in model.constraints:
        con = _parse(chart, text, f"{source}: constraint '{text}'")
        # no sample point keeps a zero constraint nonzero
        if con.is_zero():
            raise ModelFileError(f"{source}: constraint '{text}' is identically zero")
        cons.append(con)
    for text in model.flat_output or ():
        _parse(chart, text, f"{source}: flat_output '{text}'")
    return chart, f, g1, g2, tuple(cons)


def build_system(model: ModelFile, seed: int = 0) -> ControlAffineSystem:
    parsed = model._parsed.pop() if model._parsed else _parse_all(model, model.name)
    chart, f, g1, g2, cons = parsed
    engine = RankEngine(seed=seed, constraints=cons)
    try:
        return ControlAffineSystem(
            chart, model.inputs, f, g1, g2, engine, model.name
        )
    except ValueError as err:
        raise ModelFileError(f"{model.name}: {err}") from err


def prolonged_model(model: ModelFile, p1: int, p2: int) -> ModelFile:
    """Model file for the input-prolonged system; the original states keep
    their names, so a declared flat output carries over verbatim."""
    ext = prolong(build_system(model), p1, p2)
    return ModelFile(
        f"{model.name}-prolonged-{p1}-{p2}",
        ext.states,
        ext.inputs,
        model.parameters,
        tuple(c.render() for c in ext.f.components),
        tuple(c.render() for c in ext.g1.components),
        tuple(c.render() for c in ext.g2.components),
        model.flat_output,
        model.constraints,
    )
