"""Checks of the benchmark itself.

    python3 -m pytest flatbench/test_flatbench.py

The generator must be byte-reproducible for a seed, and the answer checker
must reject planted wrong answers while accepting flatkit's real ones.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402

VTOL = json.loads((run.ROOT / "models" / "vtol.json").read_text())
HUYGENS = list(VTOL["flat_output"])


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    return run.base_models(tmp_path_factory.mktemp("bases"), set(corpus.BASES))


def written(entries, directory: Path) -> dict[str, bytes]:
    corpus.write(entries, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_byte_reproducible(bases, tmp_path):
    first = written(corpus.build(bases, 7), tmp_path / "a")
    again = written(corpus.build(bases, 7), tmp_path / "b")
    other = written(corpus.build(bases, 8), tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other
    # the fixed fault instances do not depend on the seed
    assert first["vtol-F1.json"] == other["vtol-F1.json"]
    assert first["vtol-F2.json"] == other["vtol-F2.json"]


def test_variants_carry_the_declared_output(bases):
    entries = {e["name"]: e for e in corpus.build(bases, 3)}
    shifted = entries["vtol-st2"]  # x <- x + c z changes the Huygens output
    assert shifted["flat"] != HUYGENS
    assert shifted["model"]["flat_output"] == shifted["flat"]
    assert entries["vtol-fb0"]["flat"] == HUYGENS


def verify_question(entry: str, pair, role: str) -> dict:
    return {"entry": entry, "argv": ["verify", f"{entry}.json"], "pair": pair, "role": role}


def flatkit_verify(tmp_path: Path, pair) -> tuple[int, dict]:
    path = tmp_path / "vtol.json"
    path.write_text(json.dumps(VTOL))
    proc = subprocess.run(
        [sys.executable, "-m", "flatkit.cli", "verify", str(path), "--output", *pair],
        env=dict(os.environ, PYTHONPATH=str(run.ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout)


def problems_of(code: int, report: dict, pair) -> list[str]:
    verdicts = run.Verdicts({"vtol": {"model": VTOL, "base": "vtol", "kind": "base"}}, seed=1)
    verdicts.check(verify_question("vtol", pair, "flat"), code, json.dumps(report))
    return verdicts.problems


@pytest.mark.parametrize("pair", [HUYGENS, ["theta", "x"]])
def test_checker_accepts_flatkit_verdicts(tmp_path, pair):
    code, report = flatkit_verify(tmp_path, pair)
    assert problems_of(code, report, pair) == []


def test_checker_rejects_planted_wrong_verdict(tmp_path):
    code, report = flatkit_verify(tmp_path, HUYGENS)
    assert code == 0
    planted = copy.deepcopy(report)
    planted["rank_check"]["passed"] = False
    assert problems_of(3, planted, HUYGENS)
    code, report = flatkit_verify(tmp_path, ["theta", "x"])
    assert code == 3
    planted = copy.deepcopy(report)
    planted["rank_check"]["passed"] = True
    assert problems_of(0, planted, ["theta", "x"])


def test_checker_rejects_planted_wrong_indices(tmp_path):
    code, report = flatkit_verify(tmp_path, HUYGENS)
    planted = copy.deepcopy(report)
    planted["indices"]["K"] = [3, 2]
    assert any("indices" in p for p in problems_of(code, planted, HUYGENS))


def test_checker_rejects_planted_analyze_output():
    verdicts = run.Verdicts({"vtol": {"model": VTOL, "base": "vtol", "kind": "base"}}, seed=1)
    q = {"entry": "vtol", "argv": ["analyze", "vtol.json"], "algorithm": 2}
    report = {
        "schedule": [{"prolongation": 0, "branches": [], "candidates": []}],
        "result": {"passed": True, "output": ["theta", "x"], "prolongation": 0},
    }
    verdicts.check(q, 0, json.dumps(report))
    assert verdicts.problems and verdicts.failed == 0
    report["result"]["output"] = HUYGENS
    verdicts = run.Verdicts({"vtol": {"model": VTOL, "base": "vtol", "kind": "base"}}, seed=1)
    verdicts.check(q, 0, json.dumps(report))
    assert verdicts.problems == []


def test_analyze_miss_on_flat_input_is_a_failure():
    verdicts = run.Verdicts({"vtol": {"model": VTOL, "base": "vtol", "kind": "base"}}, seed=1)
    report = {"schedule": [{"prolongation": 0, "branches": [], "candidates": []}], "result": {"passed": False}}
    verdicts.check({"entry": "vtol", "argv": ["analyze", "vtol.json"], "algorithm": 2}, 3, json.dumps(report))
    assert verdicts.failed == 1 and verdicts.problems == []
    # Algorithm 1's negatives are the paper's comparison, not failures
    verdicts.check({"entry": "vtol", "argv": ["analyze", "vtol.json"], "algorithm": 1}, 3, json.dumps(report))
    assert verdicts.failed == 1
