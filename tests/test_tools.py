"""The source-line counter and the answer comparison in tools/."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"


def _count(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_code_lines_counts_a_directory_as_its_sorted_python_files():
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "flatkit").glob("*.py"))
    assert _count("src/flatkit") == _count(*files)
    assert [row.split()[1] for row in _count("src/flatkit")[:-1]] == files


def _same_answers():
    spec = importlib.util.spec_from_file_location("same_answers", ROOT / "tools" / "same_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_answers_lists_every_differing_question():
    tool = _same_answers()
    questions = [{"argv": ["analyze", f"m{i}.json"]} for i in range(6)]
    old = [{"code": 0, "stdout": f"report {i}\n", "stderr": ""} for i in range(6)]
    new = [dict(a) for a in old]
    new[1]["code"] = 3
    new[2]["stderr"] = "error: unreadable\n"
    new[4].update(stdout="other\n", stderr="warning\n")
    new[5]["code"] = "0"  # an exit code of another type differs too
    diffs = tool.differences(questions, old, new)
    assert [d.split(":")[0] for d in diffs] == [
        "analyze m1.json",
        "analyze m2.json",
        "analyze m4.json",
        "analyze m5.json",
    ]
    # the first differing field of each question, with both values
    assert [d.split(": ", 1)[1].split("\n")[0] for d in diffs] == [
        "code differs",
        "stderr differs",
        "stdout differs",
        "code differs",
    ]
    assert diffs[2] == "analyze m4.json: stdout differs\n--- parent\nreport 4\n\n--- change\nother\n"
    assert tool.differences(questions, old, [dict(a) for a in old]) == []
