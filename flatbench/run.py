"""flatkit benchmark: closed-loop CLI questions with independent answer checks.

    python3 flatbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flatkit source tree (it needs `src/flatkit` and the
bundled `models/`).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  README.md describes
the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import speed  # noqa: E402
from checker import Checker, UnsupportedModel  # noqa: E402

WORKLOADS = ("analyze", "verify-deep", "verify-sweep")
# Set-up is also measured in this many extra processes, half of them before
# the measured one and half after it, so the samples span the whole run.
SETUP_REPEATS = 4
# Whole rounds a run measures at --seconds 20 (about 20 s of rounds on an
# unloaded 2-vCPU machine); other --seconds scale the count, at least one.
# The count does not depend on the machine's speed, so every run of a
# workload attempts the same questions.
ROUNDS_AT_20S = {"analyze": 3, "verify-deep": 1, "verify-sweep": 2}
# verify-sweep asks about the first VERIFY_VARIANTS feedback and state
# variants of each base and the fixed inputs: two rounds fit a run.
VERIFY_VARIANTS = 2
# verdict_s_tail is the time with this many questions beyond it; a workload
# with fewer than 4 * TAIL_BEYOND questions has no such tail and reports its
# slowest question instead.
TAIL_BEYOND = 10

HUYGENS = ["x - eps*sin(theta)", "z + eps*cos(theta)"]
# verify-deep: (model key, output pair).  vtol-p22 is vtol prolonged by (2, 2).
DEEP = (
    ("vtol-p22", HUYGENS),
    ("vtol", ["theta", "x*cos(theta)/sin(theta) + z"]),
)


class BenchError(RuntimeError):
    pass


def flatkit_cli(*argv: str) -> None:
    """Run the flatkit command line of this source tree in its own process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "flatkit.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"flatkit {' '.join(argv)}: exit {proc.returncode}: {proc.stderr}")


def base_models(work: Path, keys: set[str]) -> dict[str, dict]:
    """The bundled models and, through `flatkit prolong`, their prolongations."""
    out = {}
    for key in sorted(keys):
        if key == "vtol-p22":
            source, orders = "vtol.json", [2, 2]
        else:
            spec = corpus.BASES[key]
            source, orders = spec["source"], spec.get("prolong")
        path = ROOT / "models" / source
        if orders:
            target = work / f"base-{key}.json"
            flatkit_cli("prolong", str(path), "--orders", *map(str, orders), "--out", str(target))
            path = target
        out[key] = json.loads(path.read_text())
    return out


def make_questions(workload: str, seed: int, work: Path) -> tuple[list[dict], dict[str, dict]]:
    """Questions (argv plus what the checker needs) and the models they use."""
    rng = random.Random(f"questions:{workload}:{seed}")
    models_dir = work / "models"
    if workload == "verify-deep":
        bases = base_models(work, {"vtol", "vtol-p22"})
        entries = [
            {"name": key, "base": key, "kind": "base", "model": dict(bases[key], name=key)}
            for key in ("vtol", "vtol-p22")
        ]
    else:
        bases = base_models(work, set(corpus.BASES))
        entries = corpus.build(bases, seed)
    corpus.write(entries, models_dir)
    by_name = {e["name"]: e for e in entries}
    path = {e["name"]: str(models_dir / f"{e['name']}.json") for e in entries}
    questions: list[dict] = []

    def add(entry: str, argv: list[str], **info) -> None:
        # the fixed fault inputs keep one flatkit seed: they must not depend
        # on the workload seed at all
        fixed = by_name[entry]["kind"] == "fixed"
        argv = argv + ["--seed", "0" if fixed else str(rng.randrange(10**6))]
        questions.append({"entry": entry, "argv": argv, **info})

    if workload == "analyze":
        for e in entries:
            add(e["name"], ["analyze", path[e["name"]]], algorithm=2)
        for e in entries:
            if e["kind"] == "base":
                add(e["name"], ["analyze", path[e["name"]], "--algorithm", "1"], algorithm=1)
    elif workload == "verify-sweep":
        for e in entries:
            if e["kind"] == "base" or e["template"] >= VERIFY_VARIANTS:
                continue
            for role in ("flat", "wrong"):
                add(e["name"], ["verify", path[e["name"]], "--output", *e[role]], pair=e[role], role=role)
    else:
        for key, pair in DEEP:
            add(key, ["verify", path[key], "--output", *pair], pair=pair, role="deep")
    return questions, by_name


# --- running the workload process ---------------------------------------------------


def spawn(plan: dict, work: Path, tag: str) -> tuple[dict, float, float]:
    """Run worker.py on a plan: its result and the set-up time in raw and in
    nominal seconds, the slowdown being the mean of a calibration sample
    taken here just before the start and one the worker takes right after
    set-up."""
    plan_path = work / f"plan-{tag}.json"
    result_path = work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(dict(plan, result=str(result_path))))
    before = speed.calibrate()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    raw = result["setup_done"] - start
    slowdown = (before + result["setup_calibration"]) / 2 / speed.NOMINAL_S
    return result, raw, raw / slowdown


# --- checking the answers ------------------------------------------------------------


class Verdicts:
    """Checks every first-round answer; counts failures and wrong answers."""

    def __init__(self, by_name: dict[str, dict], seed: int):
        self.by_name = by_name
        self.seed = seed
        self.checkers: dict[str, Checker] = {}
        self.answers: dict[tuple, object] = {}
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.invariants: dict[tuple, set] = {}

    def answer(self, entry: str, pair) -> object:
        key = (entry, tuple(pair))
        if key not in self.answers:
            if entry not in self.checkers:
                self.checkers[entry] = Checker(self.by_name[entry]["model"], self.seed)
            self.answers[key] = self.checkers[entry].answer(list(pair))
        return self.answers[key]

    def problem(self, q: dict, what: str) -> None:
        self.problems.append(f"{q['argv'][0]} {q['entry']}: {what}")

    def fail(self, q: dict, what: str) -> None:
        self.failed += 1
        self.failures.append(f"{q['argv'][0]} {q['entry']}: {what}")

    def check(self, q: dict, code: int, stdout: str) -> None:
        if code not in (0, 3):
            self.fail(q, f"exit {code}")
            return
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            self.problem(q, "stdout is not one JSON report")
            return
        try:
            if q["argv"][0] == "analyze":
                self._check_analyze(q, code, report)
            else:
                self._check_verify(q, code, report)
        except UnsupportedModel as err:
            self.problem(q, f"checker cannot decide: {err}")

    def _same_as_checker(self, q: dict, pair, entry: dict, ans) -> None:
        if entry.get("K") is not None and (
            tuple(entry["K"]) != ans.K or tuple(entry["R"]) != ans.R or entry["d"] != ans.d
        ):
            self.problem(q, f"{pair}: indices {entry['K']} {entry['R']} {entry['d']}, checker {ans}")
        if entry["passed"] != ans.flat:
            self.problem(q, f"{pair}: flatkit passed={entry['passed']}, checker {ans}")
        if "stacked_rank" in entry and (
            entry["stacked_rank"] != ans.stacked_rank or entry["spans_states"] != ans.spans_states
        ):
            self.problem(q, f"{pair}: rank data {entry}, checker {ans}")

    def _check_analyze(self, q: dict, code: int, report: dict) -> None:
        declared = self.by_name[q["entry"]]["model"]["flat_output"]
        if not self.answer(q["entry"], declared).flat:
            self.problem(q, "declared output of the corpus model is not flat")
        for step in report["schedule"]:
            if step["prolongation"] != 0:
                self.problem(q, "unexpected prolongation")
            for cand in step["candidates"]:
                for pair in cand["pairs"]:
                    ans = self.answer(q["entry"], pair["functions"])
                    self._same_as_checker(q, pair["functions"], pair, ans)
        result = report["result"]
        if code == 0:
            if not (result["passed"] and self.answer(q["entry"], result["output"]).flat):
                self.problem(q, f"reported output {result.get('output')} is not flat")
        elif q["algorithm"] == 2:
            # an x-flat input on which Algorithm 2 verifies no pair
            tags = [b["tags"] for s in report["schedule"] for b in s["branches"]]
            self.fail(q, f"no verified output, step tags {tags}")
        if q["algorithm"] == 2 and self.by_name[q["entry"]]["kind"] != "fixed":
            key = ("analyze", self.by_name[q["entry"]]["base"])
            self.invariants.setdefault(key, set()).add(code)

    def _check_verify(self, q: dict, code: int, report: dict) -> None:
        ans = self.answer(q["entry"], q["pair"])
        if report["error"] is not None:
            self.problem(q, f"{q['pair']}: flatkit error {report['error']}, checker {ans}")
            return
        entry = dict(report["indices"], **report["rank_check"])
        self._same_as_checker(q, q["pair"], entry, ans)
        if entry["required_rank"] != sum(ans.R):
            self.problem(q, f"required rank {entry['required_rank']}, checker n + d = {sum(ans.R)}")
        if (code == 0) != ans.flat:
            self.problem(q, f"exit {code}, checker flat={ans.flat}")
        key = ("verify", self.by_name[q["entry"]]["base"], q["role"])
        self.invariants.setdefault(key, set()).add(
            (code, tuple(entry["K"]), tuple(entry["R"]), entry["d"])
        )

    def check_invariance(self) -> None:
        for key, seen in sorted(self.invariants.items()):
            if len(seen) > 1:
                self.problems.append(f"{key}: verdicts differ across variants and seeds: {sorted(seen)}")


# --- metrics --------------------------------------------------------------------------


def question_times(times: list[list[float]]) -> list[float]:
    """Each question's median time over the run's rounds."""
    return [statistics.median(col) for col in zip(*times)]


def end_to_end(result: dict, setups: list[list[float]]) -> dict:
    per_q = sorted(question_times(result["times"]))
    metrics = {
        "wall_s": (sum(per_q), "s"),
        "verdict_s_p50": (statistics.median(per_q), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
    }
    tail = per_q[-TAIL_BEYOND - 1] if len(per_q) >= 4 * TAIL_BEYOND else per_q[-1]
    metrics["verdict_s_tail"] = (tail, "s")
    return metrics


def per_layer(result: dict) -> dict:
    metrics = {name: tuple(v) for name, v in result["layers"].items()}
    untraced = sum(question_times(result["times"]))
    metrics["trace.overhead_s"] = (sum(result["traced_times"]) - untraced, "s")
    return metrics


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "flatkit" / "cli.py").is_file():
        raise BenchError(f"no flatkit source tree at {ROOT / 'src'}")
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results_dir = HERE / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        questions, by_name = make_questions(args.workload, args.seed, work)
        plan = {
            "src": str(ROOT / "src"),
            "models": sorted({q["argv"][1] for q in questions}),
            "questions": [q["argv"] for q in questions],
            "rounds": max(1, int(ROUNDS_AT_20S[args.workload] * args.seconds / 20 + 0.5)),
            "trace": bool(args.trace),
        }
        setups = []  # (raw s, nominal s)
        for i in range(SETUP_REPEATS):
            if i == SETUP_REPEATS // 2:
                result, *setup = spawn(plan, work, "run")
                setups.append(setup)
            setups.append(spawn(dict(plan, setup_only=True), work, f"setup{i}")[1:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = Verdicts(by_name, args.seed)
    for q, a in zip(questions, result["answers"]):
        verdicts.check(q, a["code"], a["stdout"])
    verdicts.check_invariance()
    if not result["stable"]:
        verdicts.problems.append("a later round's report bytes differ from the first round's")
    if args.trace and not result["traced_same"]:
        verdicts.problems.append("traced round's report bytes differ from the untraced round's")
    rounds = len(result["walls"])
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    results_dir.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "questions": [
            {"argv": q["argv"][1:], "nominal_s": t}
            for q, t in zip(questions, question_times(result["times"]))
        ],
        "walls_raw": result["walls"],
        "times_raw": result["raw_times"],
        "times": result["times"],
        "setups_raw_nominal": setups,
        "failures": verdicts.failures,
        "problems": verdicts.problems,
        "metrics": metrics,
    }
    if args.trace:
        detail["traced_wall"] = result["traced_wall"]
        detail["functions"] = result["functions"]
    name = f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}.json"
    (results_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    for line in verdicts.problems:
        print(f"WRONG: {line}", file=sys.stderr)
    for line in verdicts.failures:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "correct": not verdicts.problems,
        "attempted": rounds * len(questions),
        "failed": rounds * verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        out = run(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
