"""Command line: analyze / verify / prolong on JSON model files.

Reports are JSON with sorted keys and no volatile fields, so identical inputs
and seed produce identical bytes.  Exit codes:

  0  success or positive verdict;
  1  unreadable or invalid input, such as a model file that is not UTF-8,
     JSON or an expression nested past the interpreter's recursion limit, a
     number literal past its integer-string limit or a non-ASCII character;
     an input too large for the polynomial kernel (MonomialLimitError), a
     coefficient whose denominator the sampling prime 2^61 - 1 divides
     (PrimeDenominatorError), or an OS error such as an unwritable path;
  2  internal fault: the sequence stalled on every branch, the sampled and
     exact ranks disagree (RankDisagreementError), or any other error;
  3  negative verdict.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from . import __version__
from .algorithms import (
    BranchTree,
    LeafCandidates,
    extract_candidates,
    run_algorithm1,
    run_algorithm2,
)
from .errors import (
    CANDIDATE_ERRORS,
    ModelFileError,
    MonomialLimitError,
    ParseError,
    PrimeDenominatorError,
    UnknownSymbolError,
)
from .modelfile import build_system, load_model, prolonged_model, save_model
from .system import FlatVerdict, output_jets, prolong, sfe_gtf_test

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_NEGATIVE = 3


def _emit(report: dict, json_path: Optional[str]) -> None:
    # the file first: a failed write exits 1 with nothing on stdout
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _branch_payload(tree: BranchTree) -> list[dict]:
    out = []
    for b in tree.branches:
        out.append(
            {
                "path": list(b.path),
                "status": b.status,
                "tags": list(b.tags),
                "ranks": list(b.ranks),
                "coranks": list(b.coranks),
                "annihilator": None
                if b.F_perp is None
                else [w.render() for w in b.F_perp.covectors],
            }
        )
    return out


def _indices(verdict: FlatVerdict) -> dict:
    cand = verdict.candidate
    return {"K": list(cand.K), "R": list(cand.R), "d": cand.d}


def _ranks(verdict: FlatVerdict) -> dict:
    return {
        "spans_states": verdict.spans_states,
        "stacked_rank": verdict.stacked_rank,
        "required_rank": verdict.required_rank,
    }


def _leaf_payload(leaf: LeafCandidates) -> dict:
    pairs = []
    for p in leaf.pairs:
        entry: dict = {
            "functions": [h.render() for h in p.functions],
            "passed": p.passed,
            "reason": p.reason,
        }
        if p.verdict is not None:
            entry.update(_indices(p.verdict), **_ranks(p.verdict))
        pairs.append(entry)
    return {
        "branch": list(leaf.branch.path),
        "functions": [h.render() for h in leaf.functions],
        "shortfall": leaf.shortfall,
        "basis": [w.render() for w in leaf.branch.F_perp.covectors],
        "pairs": pairs,
    }


def cmd_analyze(args: SimpleNamespace) -> int:
    if args.max_prolong < 0:
        raise ModelFileError("--max-prolong must be non-negative")
    model = load_model(args.model)
    base = build_system(model, args.seed)
    schedule = []
    passing: Optional[dict] = None
    full_stall = False
    for p in range(args.max_prolong + 1):
        sys_p = prolong(base, p, p)
        tree = run_algorithm1(sys_p) if args.algorithm == 1 else run_algorithm2(sys_p)
        leaves = extract_candidates(tree)
        schedule.append(
            {
                "prolongation": p,
                "branches": _branch_payload(tree),
                "candidates": [_leaf_payload(leaf) for leaf in leaves],
            }
        )
        if not tree.reached():
            full_stall = True
        for leaf in leaves:
            for pair in leaf.pairs:
                if pair.passed and passing is None:
                    passing = {
                        "prolongation": p,
                        "branch": list(leaf.branch.path),
                        "output": [h.render() for h in pair.functions],
                    }
        if passing is not None:
            break
    report = {
        "version": __version__,
        "command": "analyze",
        "model": model.name,
        "algorithm": args.algorithm,
        "seed": args.seed,
        "max_prolong": args.max_prolong,
        "schedule": schedule,
        "result": {"passed": passing is not None, **(passing or {})},
    }
    _emit(report, args.json)
    if passing is not None:
        return EXIT_OK
    if full_stall:
        stalled = [
            f"prolongation {entry['prolongation']} branch {b['path']}: {b['status']}"
            for entry in schedule
            for b in entry["branches"]
            if b["status"] != "reached-tangent-space"
        ]
        print("sequence stalled: " + "; ".join(stalled), file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_NEGATIVE


def cmd_verify(args: SimpleNamespace) -> int:
    model = load_model(args.model)
    sys_ = build_system(model, args.seed)
    try:
        phi = (sys_.chart.parse(args.output[0]), sys_.chart.parse(args.output[1]))
    except (ParseError, UnknownSymbolError) as err:
        raise ModelFileError(f"output expression: {err}") from err
    report: dict = {
        "version": __version__,
        "command": "verify",
        "model": model.name,
        "seed": args.seed,
        "output": list(args.output),
        "error": None,
        "indices": None,
        "rank_check": None,
        "sfe": None,
    }
    try:
        jets = output_jets(sys_, phi)
    except CANDIDATE_ERRORS as err:
        report["error"] = str(err)
        _emit(report, None)
        return EXIT_NEGATIVE
    sfe = sfe_gtf_test(jets)
    verdict = sfe.verdict
    report["indices"] = _indices(verdict)
    report["rank_check"] = {"passed": verdict.passed, **_ranks(verdict)}
    report["sfe"] = {
        "passed": sfe.passed,
        "q_sequence": [
            {"indices": list(q.index), "rank": q.rank, "integrable": q.integrable}
            for q in sfe.reports
        ],
    }
    _emit(report, None)
    return EXIT_OK if verdict.passed else EXIT_NEGATIVE


def cmd_prolong(args: SimpleNamespace) -> int:
    p1, p2 = args.orders
    if p1 < 0 or p2 < 0:
        raise ModelFileError("prolongation orders must be non-negative")
    model = load_model(args.model)
    pro = prolonged_model(model, p1, p2)
    save_model(pro, args.out)
    report = {
        "version": __version__,
        "command": "prolong",
        "model": model.name,
        "orders": [p1, p2],
        "written": args.out,
        "states": len(pro.states),
    }
    _emit(report, None)
    return EXIT_OK


# Each command's help line and its options after the model path, in order,
# as the keyword arguments of argparse's add_argument.  `_read_canonical`
# reads argv from this table and `_build_parser` builds argparse from it.
_COMMANDS = {
    "analyze": (
        "search for flat-output candidates",
        {
            "--algorithm": {"type": int, "choices": (1, 2), "default": 2},
            "--max-prolong": {"type": int, "default": 0, "metavar": "N"},
            "--seed": {"type": int, "default": 0, "metavar": "S"},
            "--json": {"metavar": "PATH"},
        },
    ),
    "verify": (
        "check a declared output pair",
        {
            "--output": {"nargs": 2, "required": True, "metavar": ("EXPR1", "EXPR2")},
            "--seed": {"type": int, "default": 0, "metavar": "S"},
        },
    ),
    "prolong": (
        "write an input-prolonged model",
        {
            "--orders": {"nargs": 2, "type": int, "required": True, "metavar": ("P1", "P2")},
            "--out": {"required": True, "metavar": "PATH"},
        },
    ),
}


def _read_canonical(argv: list[str]) -> Optional[SimpleNamespace]:
    """The fields argparse gives for `argv` when it is canonical: the command,
    the model path, then whole option names, each followed by its values,
    none of which starts with "-" (a repeated option keeps its last values,
    as in argparse).  None for any other argv, and for one whose value the
    converter or the choices refuse or that lacks a required option:
    argparse answers those."""
    if len(argv) < 2 or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    options = _COMMANDS[argv[0]][1]
    given: dict = {}
    i = 2
    while i < len(argv):
        spec = options.get(argv[i])
        if spec is None:
            return None
        n = spec.get("nargs", 1)
        raw = argv[i + 1 : i + 1 + n]
        if len(raw) < n or any(v.startswith("-") for v in raw):
            return None
        try:
            values = [spec.get("type", str)(v) for v in raw]
        except ValueError:
            return None
        if "choices" in spec and any(v not in spec["choices"] for v in values):
            return None
        given[argv[i]] = values if "nargs" in spec else values[0]
        i += 1 + n
    fields = {"command": argv[0], "model": argv[1]}
    for flag, spec in options.items():
        if spec.get("required") and flag not in given:
            return None
        fields[flag[2:].replace("-", "_")] = given.get(flag, spec.get("default"))
    return SimpleNamespace(**fields)


@functools.cache
def _build_parser() -> "argparse.ArgumentParser":
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad usage; that code is reserved for
        # internal diagnostics here, so remap usage errors to the input code
        def error(self, message: str) -> None:  # type: ignore[override]
            self.print_usage(sys.stderr)
            self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="flatkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        command.add_argument("model")
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code, for every outcome: usage
    errors (1) and -h (0) return too instead of raising SystemExit.

    A canonical argv (see `_read_canonical`) is read straight from the
    command table.  Any other argv, -h and every usage error among them, goes
    to the argparse parser built from the same table, so the help, the error
    bytes and the accepted forms (such as `--alg 1`, `--seed=3` or options
    before the model) are argparse's.  That parser is built once per process,
    on the first such call; it is the only object kept between calls, and
    each call reads, parses and builds its own model.  Output goes to the
    sys.stdout and sys.stderr current at the call.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_canonical(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
        except SystemExit as stop:  # usage errors and -h
            return stop.code
    try:
        # looked up at each call, so a wrapper set on the module runs too
        command = {"analyze": cmd_analyze, "verify": cmd_verify, "prolong": cmd_prolong}
        return command[args.command](args)
    # a monomial past the packed format's limits comes from the input's size:
    # too many symbols, or a power such as x^100000; a coefficient with no
    # residue modulo the sampling prime comes from the input's numbers
    except (ModelFileError, MonomialLimitError, PrimeDenominatorError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # rank disagreements and other internal faults
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
