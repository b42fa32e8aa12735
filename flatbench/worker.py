"""One workload process: set up flatkit, then ask it questions in a closed loop.

Run as `python3 worker.py PLAN.json`.  The plan names the source tree, the
model files, the questions (each an argv for `flatkit.cli.main`), how many
rounds to measure and whether to make a traced round.  Results go to the plan's
`result` file as JSON.

Set-up is everything from process start until `import flatkit` is done and
every model file of the workload has been read once with `load_model`; the
parent takes the process start time, this process reports the end of set-up
on the same monotonic clock, and a calibration sample taken right after it
(`speed.py`).  With `"setup_only": true` the process stops there.

Measurement runs whole rounds, each asking every question once, in order;
each question is timed in raw and nominal seconds by `speed.Probe`.  Each
question's stdout is kept from the first round; later rounds must reproduce
it byte for byte.  A traced round, when asked for, follows the untraced ones
and must reproduce the same bytes again.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import speed


def ask(probe: speed.Probe, main, argv: list[str]) -> tuple[int, float, float, str, str]:
    """(exit code, raw s, nominal s, stdout, stderr) of one question."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, raw, nominal = probe.call(main, argv)
    return code, raw, nominal, out.getvalue(), err.getvalue()


def run_round(probe: speed.Probe, main, questions: list[list[str]]) -> tuple[float, list[tuple]]:
    start = time.perf_counter()
    answers = [ask(probe, main, q) for q in questions]
    return time.perf_counter() - start, answers


def same_reports(answers: list[tuple], first: list[tuple]) -> bool:
    return all((a[0], a[3]) == (b[0], b[3]) for a, b in zip(answers, first))


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import flatkit  # noqa: F401  (set-up includes the import)
    from flatkit.cli import main as flatkit_main
    from flatkit.modelfile import load_model

    for path in plan["models"]:
        load_model(path)
    setup_done = time.perf_counter()
    result: dict = {"setup_done": setup_done, "setup_calibration": speed.calibrate()}
    if not plan.get("setup_only"):
        questions = plan["questions"]
        probe = speed.Probe()
        walls, raw, nominal = [], [], []
        stable = True
        for _ in range(plan["rounds"]):
            wall, answers = run_round(probe, flatkit_main, questions)
            if not walls:
                first = answers
            stable = stable and same_reports(answers, first)
            walls.append(wall)
            raw.append([a[1] for a in answers])
            nominal.append([a[2] for a in answers])
        result.update(
            walls=walls,
            raw_times=raw,
            times=nominal,
            answers=[{"code": a[0], "stdout": a[3], "stderr": a[4]} for a in first],
            stable=stable,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if plan.get("trace"):
            import tracer

            with tracer.Tracer(flatkit) as tr:
                traced_wall, traced = run_round(probe, flatkit_main, questions)
            result.update(
                traced_wall=traced_wall,
                traced_times=[a[2] for a in traced],
                traced_same=same_reports(traced, first),
                layers=tr.report(),
                functions=tr.table(),
            )
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
