"""Command line: analyze / verify / prolong on JSON model files.

Reports are JSON with sorted keys and no volatile fields, so identical inputs
and seed produce identical bytes.  Exit codes: 0 success or positive verdict,
1 unreadable or invalid input, 2 internal diagnostic (the sequence stalled on
every branch), 3 negative verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    UnknownSymbolError,
)
from .modelfile import build_system, load_model, prolonged_model, save_model
from .system import output_jets, prolong, sfe_gtf_test, verify_flat_output

__all__ = ["cmd_analyze", "cmd_prolong", "cmd_verify", "main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_NEGATIVE = 3


def _emit(report: dict, json_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")


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


def _pair_payload(leaf: LeafCandidates) -> list[dict]:
    out = []
    for p in leaf.pairs:
        entry: dict = {
            "functions": [h.render() for h in p.functions],
            "passed": p.passed,
            "reason": p.reason,
        }
        if p.verdict is not None:
            cand = p.verdict.candidate
            entry.update(
                K=list(cand.K),
                R=list(cand.R),
                d=cand.d,
                spans_states=p.verdict.spans_states,
                stacked_rank=p.verdict.stacked_rank,
                required_rank=p.verdict.required_rank,
            )
        out.append(entry)
    return out


def cmd_analyze(args: argparse.Namespace) -> int:
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
        candidates = []
        for leaf in leaves:
            candidates.append(
                {
                    "branch": list(leaf.branch.path),
                    "functions": [h.render() for h in leaf.functions],
                    "shortfall": leaf.shortfall,
                    "basis": [w.render() for w in leaf.basis],
                    "pairs": _pair_payload(leaf),
                }
            )
        schedule.append(
            {
                "prolongation": p,
                "branches": _branch_payload(tree),
                "candidates": candidates,
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


def cmd_verify(args: argparse.Namespace) -> int:
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
    cand = jets.candidate
    report["indices"] = {"K": list(cand.K), "R": list(cand.R), "d": cand.d}
    verdict = verify_flat_output(jets)
    report["rank_check"] = {
        "passed": verdict.passed,
        "spans_states": verdict.spans_states,
        "stacked_rank": verdict.stacked_rank,
        "required_rank": verdict.required_rank,
    }
    sfe = sfe_gtf_test(jets)
    report["sfe"] = {
        "passed": sfe.passed,
        "q_sequence": [
            {"indices": list(q.index), "rank": q.rank, "integrable": q.integrable}
            for q in sfe.reports
        ],
    }
    _emit(report, None)
    return EXIT_OK if verdict.passed else EXIT_NEGATIVE


def cmd_prolong(args: argparse.Namespace) -> int:
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; that code is reserved for
    # internal diagnostics here, so remap usage errors to the input code
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flatkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="search for flat-output candidates")
    analyze.add_argument("model")
    analyze.add_argument("--algorithm", type=int, choices=(1, 2), default=2)
    analyze.add_argument("--max-prolong", type=int, default=0, metavar="N")
    analyze.add_argument("--seed", type=int, default=0, metavar="S")
    analyze.add_argument("--json", metavar="PATH", default=None)
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="check a declared output pair")
    verify.add_argument("model")
    verify.add_argument("--output", nargs=2, required=True, metavar=("EXPR1", "EXPR2"))
    verify.add_argument("--seed", type=int, default=0, metavar="S")
    verify.set_defaults(func=cmd_verify)

    pro = sub.add_parser("prolong", help="write an input-prolonged model")
    pro.add_argument("model")
    pro.add_argument("--orders", nargs=2, type=int, required=True, metavar=("P1", "P2"))
    pro.add_argument("--out", required=True, metavar="PATH")
    pro.set_defaults(func=cmd_prolong)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # a monomial past the packed format's limits comes from the input's size:
    # too many symbols, or a power such as x^100000
    except (ModelFileError, MonomialLimitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # rank disagreements and other internal faults
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
