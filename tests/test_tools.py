"""The source-line counter in tools/."""

from __future__ import annotations

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
