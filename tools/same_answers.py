"""Check that two flatkit source trees give the same answers to the benchmark
and about the repository's own models.

    python tools/same_answers.py PARENT_TREE CHANGE_TREE [--seeds 1 3 7]

For each seed and workload, the questions are built once, with flatbench's
`run.make_questions` from the tree this script lives in (model files go to
a temporary directory).  Then come the models of that tree, `models/*.json`
and `tests/models/*.json`: `analyze` under algorithms 1 and 2 at
`--max-prolong 2`, and `verify` of each model's `flat_output`, at flatkit
seeds 0-3 (84 questions for the seven models).  The benchmark corpus has no
model with rational-function entries, and the test models do.  Each tree
answers every question through `flatkit.cli.main`, in one process per tree
and question set, as a flatbench worker does.  The first question whose
exit code, stdout or stderr differs is printed, and the script exits 1 on
any difference, 0 otherwise.

Building the corpus needs sympy, so this is a tool, not a tier-1 test.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLATBENCH = ROOT / "flatbench"
MODEL_SEEDS = range(4)

# Run in a child process: argv[1] is the tree's src directory, argv[2] a JSON
# list of questions (argv lists) and argv[3] the file for the answers.
_ASK = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from flatkit.cli import main
answers = []
for argv in json.load(open(sys.argv[2])):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "raised"
            traceback.print_exc()
    answers.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
with open(sys.argv[3], "w") as fh:
    json.dump(answers, fh)
"""


def answers(tree: Path, plan: Path, out: Path) -> list[dict]:
    subprocess.run(
        [sys.executable, "-c", _ASK, str(tree / "src"), str(plan), str(out)],
        check=True,
        timeout=600,
    )
    return json.loads(out.read_text())


def model_questions() -> list[dict]:
    """The questions about the models of this tree (see the docstring)."""
    questions = []
    for path in sorted(ROOT.glob("models/*.json")) + sorted(ROOT.glob("tests/models/*.json")):
        flat = json.loads(path.read_text())["flat_output"]
        for seed in MODEL_SEEDS:
            for algorithm in ("1", "2"):
                argv = ["analyze", str(path), "--algorithm", algorithm, "--max-prolong", "2"]
                questions.append({"argv": argv + ["--seed", str(seed)]})
            questions.append({"argv": ["verify", str(path), "--output", *flat, "--seed", str(seed)]})
    return questions


def compare(label: str, questions: list[dict], args: argparse.Namespace, work: Path) -> bool:
    """Ask both trees `questions` and print one line; True when every
    answer is the same."""
    plan = work / "questions.json"
    plan.write_text(json.dumps([q["argv"] for q in questions]))
    old = answers(args.parent, plan, work / "parent.json")
    new = answers(args.change, plan, work / "change.json")
    diff = first_difference(questions, old, new)
    codes = sorted({str(a["code"]) for a in new})
    status = "same" if diff is None else "DIFFERENT"
    print(f"{label}: {len(questions)} questions, exit codes {codes}: {status}")
    if diff is not None:
        print(diff)
    return diff is None


def first_difference(questions: list[dict], old: list[dict], new: list[dict]) -> str | None:
    for q, a, b in zip(questions, old, new):
        for key in ("code", "stdout", "stderr"):
            if a[key] != b[key]:
                return f"{shlex.join(q['argv'])}: {key} differs\n--- parent\n{a[key]}\n--- change\n{b[key]}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3, 7])
    args = parser.parse_args()
    sys.path.insert(0, str(FLATBENCH))
    import run  # flatbench's runner: imported for make_questions only

    same = True
    for seed in args.seeds:
        for workload in run.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                questions, _ = run.make_questions(workload, seed, work)
                same &= compare(f"seed {seed} {workload}", questions, args, work)
    with tempfile.TemporaryDirectory() as tmp:
        same &= compare("repository models", model_questions(), args, Path(tmp))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
