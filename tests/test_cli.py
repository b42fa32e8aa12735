"""Model-file loading, the command-line commands, exit codes, and report
determinism on the bundled example models."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import flatkit.modelfile
import flatkit.system
from flatkit import build_system, load_model, model_from_dict, prolonged_model, save_model
from flatkit.cli import main
from flatkit.errors import ModelFileError
from flatkit.sympoly import MAX_EXP, SLOTS

MODELS = Path(__file__).resolve().parent.parent / "models"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv: str) -> tuple[int, dict, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else {}, err


def write_model(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


STALL_MODEL = {
    "name": "stall",
    "states": ["z1", "z2", "z3"],
    "inputs": ["u1", "u2"],
    "drift": ["0", "0", "0"],
    "g1": ["1", "0", "0"],
    "g2": ["0", "1", "0"],
}

DECOUPLED_MODEL = {
    "name": "decoupled",
    "states": ["x1", "x2", "x3"],
    "inputs": ["u1", "u2"],
    "drift": ["x1", "0", "0"],
    "g1": ["0", "1", "0"],
    "g2": ["0", "0", "1"],
}


# --- model files ------------------------------------------------------------------


def test_bundled_models_load_and_build():
    for name in ("vtol", "example1", "example3"):
        model = load_model(MODELS / f"{name}.json")
        sys_ = build_system(model, seed=1)
        assert sys_.n == len(model.states)
        assert model.flat_output is not None
        for text in model.flat_output:
            sys_.chart.parse(text)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("drift"), "missing keys"),
        (lambda d: d.update(drift=["0", "0"]), "components"),
        (lambda d: d.update(inputs=["u1"]), "two distinct inputs"),
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.update(g1=["1", "0", "bad("]), "g1 component"),
        (lambda d: d.update(states=["z1", "z1", "z2"]), "unique"),
        (lambda d: d.update(flat_output=["z1"]), "two expressions"),
    ],
)
def test_model_validation_errors(tmp_path, mutate, message):
    data = {k: list(v) if isinstance(v, list) else v for k, v in STALL_MODEL.items()}
    mutate(data)
    path = write_model(tmp_path, "bad", data)
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


def test_dependent_inputs_rejected(tmp_path):
    data = dict(STALL_MODEL, g2=["2", "0", "0"])
    path = write_model(tmp_path, "dependent", data)
    with pytest.raises(ModelFileError, match="rank"):
        build_system(load_model(path))


def test_model_is_parsed_once_and_each_build_gets_its_own_chart(monkeypatch):
    parses = []
    original = flatkit.modelfile._parse_all
    monkeypatch.setattr(
        flatkit.modelfile, "_parse_all", lambda *a: parses.append(a) or original(*a)
    )
    model = load_model(MODELS / "vtol.json")
    first = build_system(model, seed=1)
    assert len(parses) == 1  # the first build reuses the parse made at load
    second = build_system(model, seed=1)
    assert len(parses) == 2
    assert first.chart is not second.chart
    assert first.chart._deriv_cache is not second.chart._deriv_cache
    for ours, theirs in zip(first.g2.components, second.g2.components):
        assert ours.chart is first.chart and theirs.chart is second.chart
    assert [c.render() for c in first.g2.components] == [
        c.render() for c in second.g2.components
    ]
    # a generator registered on one chart does not appear on the other
    first.chart.parse("sin(x)")
    assert len(first.chart.gens()) == len(second.chart.gens()) + 2


def test_prolonged_model_zero_orders_is_semantically_identical():
    model = load_model(MODELS / "example1.json")
    zero = prolonged_model(model, 0, 0)
    assert zero.states == model.states
    assert zero.inputs == model.inputs
    base = build_system(model, seed=3)
    rebuilt = build_system(zero, seed=3)
    for ours, theirs in ((rebuilt.f, base.f), (rebuilt.g1, base.g1), (rebuilt.g2, base.g2)):
        assert [c.render() for c in ours.components] == [
            c.render() for c in theirs.components
        ]


# --- analyze ----------------------------------------------------------------------


def test_analyze_refined_vtol(capsys):
    code, report, _ = run_cli(capsys, "analyze", str(MODELS / "vtol.json"))
    assert code == 0
    (entry,) = report["schedule"]
    assert len(entry["branches"]) == 2
    assert all(b["status"] == "reached-tangent-space" for b in entry["branches"])
    assert report["result"]["passed"] is True
    assert report["result"]["output"] == ["-eps*sin(theta) + x", "eps*cos(theta) + z"]
    assert report["result"]["prolongation"] == 0


def test_analyze_basic_vtol_is_negative(capsys):
    code, report, _ = run_cli(
        capsys, "analyze", str(MODELS / "vtol.json"), "--algorithm", "1"
    )
    assert code == 3
    (branch,) = report["schedule"][0]["branches"]
    assert branch["status"] == "reached-tangent-space"
    # the characteristic distribution collapses: the annihilator is the
    # whole cotangent space and no pair can be formed
    assert len(branch["annihilator"]) == 6
    (leaf,) = report["schedule"][0]["candidates"]
    assert leaf["pairs"] == []
    assert report["result"]["passed"] is False


def _vtol_in_new_angle(
    tmp_path: Path, old_theta: str, theta_rate: str
) -> tuple[str, list[str]]:
    """vtol pushed forward by a change of its angle coordinate: the old angle
    is `old_theta` in the new coordinates, whose angle moves at `theta_rate`.
    Returns the model path and the carried flat output."""
    data = json.loads((MODELS / "vtol.json").read_text())
    for key in ("g1", "g2", "flat_output"):
        data[key] = [text.replace("theta", f"({old_theta})") for text in data[key]]
    data["drift"][2] = theta_rate
    model = model_from_dict(data)
    path = tmp_path / "vtol-new-angle.json"
    save_model(model, path)
    return str(path), list(model.flat_output)


def test_analyze_vtol_with_negated_angle(tmp_path, capsys):
    # sin(-theta) and cos(-theta) expand onto the pair of theta
    path, _ = _vtol_in_new_angle(tmp_path, "-theta", "-omega")
    code, report, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert report["result"]["output"] == ["eps*sin(theta) + x", "eps*cos(theta) + z"]


def test_verify_vtol_with_shifted_angle(tmp_path, capsys):
    path, output = _vtol_in_new_angle(tmp_path, "theta + x", "omega - vx")
    code, report, _ = run_cli(capsys, "verify", path, "--output", *output)
    assert code == 0
    assert report["indices"] == {"K": [2, 2], "R": [4, 4], "d": 2}


def test_analyze_example3(capsys):
    code, report, _ = run_cli(capsys, "analyze", str(MODELS / "example3.json"))
    assert code == 0
    assert report["result"]["output"] == ["z1", "z3"]
    assert report["result"]["branch"] == []


def test_analyze_prolongation_schedule_exhausts(capsys):
    code, report, _ = run_cli(
        capsys, "analyze", str(MODELS / "example1.json"), "--max-prolong", "2"
    )
    assert code == 3
    assert [e["prolongation"] for e in report["schedule"]] == [0, 1, 2]
    for entry in report["schedule"]:
        (leaf,) = entry["candidates"]
        assert leaf["shortfall"] == 2
        assert len(leaf["basis"]) == 2


def test_analyze_stall_is_internal_diagnostic(tmp_path, capsys):
    path = write_model(tmp_path, "stall", dict(STALL_MODEL))
    code, report, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert report["schedule"][0]["branches"][0]["status"] == "stalled"
    assert "stalled" in err


def test_analyze_writes_json_copy(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(
        capsys, "analyze", str(MODELS / "example3.json"), "--json", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text()) == report


def test_analyze_report_determinism(tmp_path, capsys):
    args = ("analyze", str(MODELS / "vtol.json"), "--seed", "5")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main([*args, "--json", str(first)]) == 0
    assert main([*args, "--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["seed"] == 5


@pytest.mark.parametrize(
    "model, extra",
    [("example1", ("--max-prolong", "2")), ("example3", ()), ("vtol", ())],
    ids=["example1", "example3", "vtol"],
)
def test_analyze_report_is_seed_invariant(capsys, model, extra):
    reports = []
    for seed in range(8):
        code, report, _ = run_cli(
            capsys, "analyze", str(MODELS / f"{model}.json"), "--seed", str(seed), *extra
        )
        assert report.pop("seed") == seed
        reports.append((code, report))
    assert all(r == reports[0] for r in reports[1:])


# --- verify -----------------------------------------------------------------------


def test_verify_example1_flat_but_not_triangular(capsys):
    code, report, _ = run_cli(
        capsys, "verify", str(MODELS / "example1.json"), "--output", "x1", "x2"
    )
    assert code == 0
    assert report["indices"] == {"K": [1, 1], "R": [4, 4], "d": 3}
    assert report["rank_check"]["passed"] is True
    assert report["sfe"]["passed"] is False
    ranks = [q["rank"] for q in report["sfe"]["q_sequence"]]
    assert ranks == [2, 3, 4, 5]
    assert [q["integrable"] for q in report["sfe"]["q_sequence"]] == [
        True,
        False,
        True,
        True,
    ]


# example1 with names that input chains would otherwise give their new states
# or inputs: the jet space for R = (4, 4) adds u1 .. u1_d3 and then the input
# u1_d4, and prolonging u1 adds the input u1_d1.
RENAMED_EXAMPLE1 = {
    "state-u1_d4": ("x5", "u1_d4"),
    "state-u1_d1": ("x5", "u1_d1"),
    "inputs-w-w_d1": ('"inputs": ["u1", "u2"]', '"inputs": ["w", "w_d1"]'),
}


def _renamed_example1(tmp_path: Path, key: str) -> str:
    text = (MODELS / "example1.json").read_text().replace(*RENAMED_EXAMPLE1[key])
    return write_model(tmp_path, f"example1-{key}", json.loads(text))


@pytest.mark.parametrize("key", list(RENAMED_EXAMPLE1))
def test_verify_state_named_like_an_input_derivative(tmp_path, capsys, key):
    """Names the input chains would take must not matter."""
    path = _renamed_example1(tmp_path, key)
    code, report, _ = run_cli(capsys, "verify", path, "--output", "x1", "x2")
    _, expected, _ = run_cli(
        capsys, "verify", str(MODELS / "example1.json"), "--output", "x1", "x2"
    )
    assert code == 0
    for key in ("indices", "rank_check", "sfe"):
        assert report[key] == expected[key]


def test_verify_example3_passes_everything(capsys):
    code, report, _ = run_cli(
        capsys, "verify", str(MODELS / "example3.json"), "--output", "z1", "z3"
    )
    assert code == 0
    assert report["rank_check"]["passed"] is True
    assert report["sfe"]["passed"] is True


def test_verify_rejected_candidate(capsys):
    code, report, _ = run_cli(
        capsys,
        "verify",
        str(MODELS / "vtol.json"),
        "--output",
        "theta",
        "x*cos(theta)/sin(theta) + z",
    )
    assert code == 3
    assert report["rank_check"]["passed"] is False
    assert report["rank_check"]["spans_states"] is False
    assert report["indices"]["K"] == [2, 2]


def test_verify_computes_candidate_once(monkeypatch, capsys):
    """The rank check and the Q sequence share one output context."""
    real = flatkit.system.candidate
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "flatkit" and getattr(module, "candidate", None) is real:
            monkeypatch.setattr(module, "candidate", counting)
    code, report, _ = run_cli(
        capsys, "verify", str(MODELS / "example1.json"), "--output", "x1", "x2"
    )
    assert code == 0 and report["sfe"] is not None
    assert len(calls) == 1


def test_verify_unbounded_degree_is_negative_verdict(tmp_path, capsys):
    path = write_model(tmp_path, "decoupled", DECOUPLED_MODEL)
    code, report, _ = run_cli(capsys, "verify", path, "--output", "x1", "x2")
    assert code == 3
    assert report["error"] is not None
    assert report["rank_check"] is None


# --- prolong ----------------------------------------------------------------------


def test_prolong_roundtrip_example1(tmp_path, capsys):
    out = tmp_path / "example1_p11.json"
    code, report, _ = run_cli(
        capsys,
        "prolong",
        str(MODELS / "example1.json"),
        "--orders",
        "1",
        "1",
        "--out",
        str(out),
    )
    assert code == 0
    assert report["states"] == 7
    code, report, _ = run_cli(capsys, "verify", str(out), "--output", "x1", "x2")
    assert code == 0
    assert report["indices"] == {"K": [2, 2], "R": [5, 5], "d": 3}
    assert report["sfe"]["passed"] is True


@pytest.mark.parametrize("key", ["state-u1_d1", "inputs-w-w_d1"])
def test_prolong_takes_free_names(tmp_path, capsys, key):
    out = tmp_path / "prolonged.json"
    path = _renamed_example1(tmp_path, key)
    code, _, _ = run_cli(capsys, "prolong", path, "--orders", "1", "1", "--out", str(out))
    assert code == 0
    written = load_model(out)
    names = written.states + written.inputs
    assert len(names) == len(set(names)) == 9


def test_prolong_vtol_two_levels(tmp_path, capsys):
    out = tmp_path / "vtol_p22.json"
    code, report, _ = run_cli(
        capsys,
        "prolong",
        str(MODELS / "vtol.json"),
        "--orders",
        "2",
        "2",
        "--out",
        str(out),
    )
    assert code == 0
    assert report["states"] == 10
    code, report, _ = run_cli(
        capsys,
        "verify",
        str(out),
        "--output",
        "x - eps*sin(theta)",
        "z + eps*cos(theta)",
    )
    assert code == 0
    assert report["indices"] == {"K": [4, 4], "R": [6, 6], "d": 2}


# --- pinned report bytes ----------------------------------------------------------

# Each file tests/data/<id>.json is the stdout of its command, byte for byte,
# as written by a revision whose reports are known good.  A model named
# "m@p1p2" is the bundled model m prolonged by (p1, p2); "decoupled" is
# DECOUPLED_MODEL.
PINNED_REPORTS = [
    ("analyze-example1-alg1", "analyze example1 --algorithm 1 --max-prolong 2", 3),
    ("analyze-example1-alg2", "analyze example1 --algorithm 2 --max-prolong 2", 3),
    ("analyze-example3-alg1", "analyze example3 --algorithm 1", 3),
    ("analyze-example3-alg2", "analyze example3 --algorithm 2", 0),
    ("analyze-vtol-alg1", "analyze vtol --algorithm 1", 3),
    ("analyze-vtol-alg2", "analyze vtol --algorithm 2", 0),
    ("verify-example1", "verify example1 --output x1 x2", 0),
    ("verify-example3", "verify example3 --output z1 z3", 0),
    (
        "verify-vtol-pitch",
        "verify vtol --output theta 'x*cos(theta)/sin(theta) + z'",
        3,
    ),
    ("verify-decoupled", "verify decoupled --output x1 x2", 3),
    ("verify-example1-p11", "verify example1@11 --output x1 x2", 0),
    (
        "verify-vtol-p22",
        "verify vtol@22 --output 'x - eps*sin(theta)' 'z + eps*cos(theta)'",
        0,
    ),
]


def _pinned_model(tmp_path: Path, name: str) -> str:
    if name == "decoupled":
        return write_model(tmp_path, name, DECOUPLED_MODEL)
    base, _, orders = name.partition("@")
    if not orders:
        return str(MODELS / f"{base}.json")
    out = tmp_path / f"{base}_p{orders}.json"
    model = load_model(MODELS / f"{base}.json")
    save_model(prolonged_model(model, int(orders[0]), int(orders[1])), str(out))
    return str(out)


@pytest.mark.parametrize(
    "name, command, code", PINNED_REPORTS, ids=[case[0] for case in PINNED_REPORTS]
)
def test_report_bytes_are_pinned(tmp_path, capsys, name, command, code):
    expected = (DATA / f"{name}.json").read_text()
    verb, model, *rest = shlex.split(command)
    assert main([verb, _pinned_model(tmp_path, model), *rest]) == code
    assert capsys.readouterr().out == expected


VERIFY_REPORTS = [case for case in PINNED_REPORTS if case[1].startswith("verify")]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "name, command, code", VERIFY_REPORTS, ids=[case[0] for case in VERIFY_REPORTS]
)
def test_verify_report_is_seed_invariant(tmp_path, capsys, name, command, code, seed):
    """Q ranks are sampled: every pinned verify report holds at other seeds."""
    expected = json.loads((DATA / f"{name}.json").read_text())
    verb, model, *rest = shlex.split(command)
    path = _pinned_model(tmp_path, model)
    got, report, _ = run_cli(capsys, verb, path, *rest, "--seed", str(seed))
    assert got == code
    assert report.pop("seed") == seed
    expected.pop("seed")
    assert report == expected


# --- error handling ---------------------------------------------------------------


def test_missing_model_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-file.json")
    assert code == 1
    assert "error" in err


def test_invalid_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(path), "--output", "a", "b")
    assert code == 1
    assert "invalid JSON" in err


def test_unknown_output_symbol_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", str(MODELS / "example3.json"), "--output", "z1", "w9"
    )
    assert code == 1
    assert "output expression" in err


@pytest.mark.parametrize("text", ["x/0", "1/(x-x)"])
def test_zero_denominator_in_output_is_input_error(capsys, text):
    code, report, err = run_cli(
        capsys, "verify", str(MODELS / "vtol.json"), "--output", "x", text
    )
    assert code == 1
    assert report == {}
    assert "output expression: division by zero (at position 1)" in err


def test_unsupported_function_in_output_is_input_error(capsys):
    code, report, err = run_cli(
        capsys, "verify", str(MODELS / "vtol.json"), "--output", "exp(x)", "z"
    )
    assert code == 1
    assert report == {}
    assert "output expression: exp(x) is not supported" in err


def test_unsupported_function_in_model_is_input_error(tmp_path, capsys):
    data = json.loads((MODELS / "vtol.json").read_text())
    data["g1"][3] = "sqrt(x)"
    path = write_model(tmp_path, "sqrt", data)
    code, report, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert report == {}
    assert "g1 component for 'vx': sqrt(x) is not supported" in err


def test_zero_denominator_in_model_is_input_error(tmp_path, capsys):
    data = json.loads((MODELS / "vtol.json").read_text())
    data["drift"][0] = "vx/(x-x)"
    path = write_model(tmp_path, "pole", data)
    code, report, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert report == {}
    assert "drift component for 'x': division by zero (at position 2)" in err


def test_exponent_past_the_limit_in_output_is_input_error(capsys):
    code, report, err = run_cli(
        capsys, "verify", str(MODELS / "vtol.json"), "--output", "x^100000", "z"
    )
    assert code == 1
    assert report == {}
    assert f"output expression: an exponent passes the limit of {MAX_EXP} (at position 2)" in err


def test_exponent_past_the_limit_in_model_is_input_error(tmp_path, capsys):
    data = json.loads((MODELS / "vtol.json").read_text())
    data["drift"][0] = "vx*x^100*x^100"
    path = write_model(tmp_path, "power", data)
    code, report, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert report == {}
    assert "drift component for 'x': an exponent passes the limit" in err


def test_chart_past_the_slots_is_input_error(tmp_path, capsys):
    states = [f"x{i}" for i in range(SLOTS + 1)]
    data = {
        "name": "wide",
        "states": states,
        "inputs": ["u1", "u2"],
        "drift": ["0"] * len(states),
        "g1": ["1"] + ["0"] * SLOTS,
        "g2": ["0", "1"] + ["0"] * (SLOTS - 1),
    }
    code, report, err = run_cli(capsys, "analyze", write_model(tmp_path, "wide", data))
    assert code == 1
    assert report == {}
    assert f"error: a chart of {SLOTS + 1} generators passes the limit of {SLOTS}" in err


@pytest.mark.parametrize("command", ["verify", "analyze", "prolong"])
@pytest.mark.parametrize("name", ["u-1", "sin", "1u"])
def test_invalid_input_name_is_input_error(tmp_path, capsys, name, command):
    data = json.loads((MODELS / "example1.json").read_text())
    data["inputs"] = [name, "u2"]
    path = write_model(tmp_path, "bad-input", data)
    extra = {
        "verify": ["--output", "x1", "x2"],
        "analyze": ["--max-prolong", "1"],
        "prolong": ["--orders", "1", "1", "--out", str(tmp_path / "out.json")],
    }[command]
    code, report, err = run_cli(capsys, command, path, *extra)
    assert code == 1
    assert report == {}
    assert f"input name '{name}'" in err


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("text", ["0", "eps - eps", "x - x"])
def test_zero_constraint_is_input_error(tmp_path, capsys, text, command):
    # no sample point keeps it nonzero: without the load-time check every
    # rank call exhausts its redraws
    data = json.loads((MODELS / "vtol.json").read_text())
    data["constraints"] = [text]
    path = write_model(tmp_path, "zero-constraint", data)
    extra = ["--output", "theta", "x"] if command == "verify" else []
    code, report, err = run_cli(capsys, command, path, *extra)
    assert code == 1
    assert report == {}
    assert f"constraint '{text}' is identically zero" in err


def test_negative_orders_are_input_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "prolong",
        str(MODELS / "example1.json"),
        "--orders",
        "-1",
        "0",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "non-negative" in err


def test_negative_max_prolong_is_input_error(capsys):
    # a negative N would search no prolongation and still report a verdict
    code, report, err = run_cli(
        capsys, "analyze", str(MODELS / "vtol.json"), "--max-prolong", "-1"
    )
    assert code == 1
    assert report == {}
    assert "non-negative" in err


def test_usage_errors_exit_with_input_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(MODELS / "vtol.json"), "--algorithm", "7"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "flatkit.cli", "analyze", str(MODELS / "example3.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["output"] == ["z1", "z3"]
