"""Command-line front end: parse a model file, run one analysis, report.

Exit codes: 0 for a definite verdict (either way), 2 for an inconclusive
verdict, 1 for usage or parse errors.  Each analysis builds one report
record (verdict, witness, notes); both forms render that record, as
human-readable lines or, with --json, as one JSON object with fields
command, verdict, witness, budget, elapsed_ms, and caveats.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

from .counter import is_cmrz
from .cover import downset_closed, x0_coverability
# not called here; kept as cli attributes because bench/tracing.py wraps them
from .cover import downset_post, downset_subset  # noqa: F401
from .dsl import ModelFile, ParseError, parse_model, parse_target, print_model
from .fifo import (
    build_recv_dfa,
    build_send_dfa,
    normalize_distinct_letter,
    product_machine,
)
from .olts import counter_olts, fifo_olts
from .rrt import (
    Rrt,
    build_lrrt,
    build_rrt,
    decide_boundedness,
    decide_nonterm_by_iterable,
    decide_nontermination,
    export_dot,
)
from .verdict import DEFAULT_BUDGET, AnalysisVerdict, Outcome

EXIT_DEFINITE = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2

# Each analysis with its JSON words for Outcome.POSITIVE and NEGATIVE, tree analyses first.
_WORDS = {
    "boundedness": ("unbounded", "bounded"),
    "termination": ("non-terminating", "terminating"),
    "nonterm-iterable": ("non-terminating", "terminating"),
    "cmrz": ("cmrz", "not-cmrz"),
    "x0-cover": ("coverable", "not-coverable"),
}
ANALYSES = tuple(_WORDS)
TREE_ANALYSES = ANALYSES[:3]

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on errors; the report contract reserves
    2 for inconclusive verdicts, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wstskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one analysis on a model file")
    check.add_argument("analysis", choices=ANALYSES)
    check.add_argument("model", help="path to a .model file")
    check.add_argument("--budget", type=int, metavar="N",
                       help=f"node / round budget (default {DEFAULT_BUDGET})")
    check.add_argument("--target", metavar="TARGET",
                       help="x0-cover target on a counter machine, e.g. q2:(3) or q1:(1,0)")
    check.add_argument("--init", metavar="STATE", dest="init_state",
                       help="override the initial control state from the file")
    check.add_argument("--assert-strict-monotone", action="store_true",
                       help="caller vouches for strict compatibility; drops the caveat")
    check.add_argument("--dot", metavar="PATH", help="write the analysis tree as DOT")
    check.add_argument("--json", action="store_true", help="machine-readable report")
    check.set_defaults(func=_cmd_check)

    product = sub.add_parser("product", help="emit the bounded-language product machine")
    product.add_argument("model", help="path to a fifo .model file with bound clauses")
    product.add_argument("-o", "--output", metavar="PATH",
                         help="write the product model here (default stdout)")
    product.set_defaults(func=_cmd_product)
    return parser


def _load_model(parser: _Parser, path: str) -> ModelFile:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {path}: {exc}")
    try:
        return parse_model(text, name=Path(path).stem)
    except ParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _write_file(parser: _Parser, path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc}")


def _override_init(parser: _Parser, mf: ModelFile, state: Optional[str]):
    if state is None:
        return mf.initial
    if state not in mf.machine.states:
        parser.error(f"--init: unknown state {state!r}")
    return mf.initial._replace(control=state)


class _Report(NamedTuple):
    """One analysis's answer, built once and read by both report forms."""

    verdict: AnalysisVerdict
    witness: Optional[dict]
    notes: tuple[str, ...] = ()
    exhausted: bool = False  # the budget ran out (read on an inconclusive answer)
    tree: Optional[Rrt] = None  # a tree analysis's tree, for --dot


def _cmd_check(parser: _Parser, args) -> int:
    mf = _load_model(parser, args.model)
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if budget < 1:
        parser.error("--budget must be >= 1")
    if args.analysis not in TREE_ANALYSES and mf.kind != "counter":
        parser.error(f"analysis {args.analysis!r} applies to counter machines only")
    if args.analysis == "x0-cover" and not args.target:
        parser.error("x0-cover needs --target")
    if args.target and args.analysis != "x0-cover":
        print("note: --target is ignored by this analysis", file=sys.stderr)
    if args.budget is not None and args.analysis == "cmrz":
        print("note: --budget is ignored by this analysis", file=sys.stderr)
    initial = _override_init(parser, mf, args.init_state)
    if args.analysis == "x0-cover":
        try:
            target = parse_target(mf, args.target)
        except ValueError as exc:
            parser.error(str(exc))
    if args.dot and args.analysis not in TREE_ANALYSES:
        print("note: --dot applies to tree analyses only; ignored", file=sys.stderr)
    if args.assert_strict_monotone and args.analysis not in ("boundedness", "termination"):
        print("note: --assert-strict-monotone applies to boundedness and termination only; ignored",
              file=sys.stderr)

    started = time.perf_counter()
    if args.analysis in TREE_ANALYSES:
        report = _tree_report(args.analysis, mf, initial, budget, args.assert_strict_monotone)
    elif args.analysis == "cmrz":
        report = _cmrz_report(mf, initial)
    else:
        report = _cover_report(mf, initial, target, budget)
    elapsed_ms = (time.perf_counter() - started) * 1000

    if args.dot and report.tree is not None:
        _write_file(parser, args.dot, export_dot(report.tree))

    verdict = report.verdict
    word = dict(zip(Outcome, _WORDS[args.analysis])).get(verdict.outcome, "inconclusive")
    if args.json:
        print(json.dumps({
            "command": f"check {args.analysis} {args.model}",
            "verdict": word,
            "witness": report.witness,
            "budget": verdict.budget_used,
            "elapsed_ms": round(elapsed_ms, 3),
            "caveats": list(verdict.caveats),
        }, ensure_ascii=False))
    else:
        print(f"machine: {mf.machine.name} ({mf.kind})")
        print(f"analysis: {args.analysis}")
        for note in report.notes:
            print(f"note: {note}")
        print(f"verdict: {word.upper().replace('NOT-', 'NOT ')}")
        if report.witness is not None:
            print(f"witness: {json.dumps(report.witness, ensure_ascii=False)}")
        if verdict.is_definite:
            print(f"budget used: {verdict.budget_used}")
        else:
            mark = " (exhausted)" if report.exhausted else ""
            print(f"budget used: {verdict.budget_used} of {budget}{mark}")
        print(f"elapsed: {elapsed_ms:.1f} ms")
        for caveat in verdict.caveats:
            print(f"caveat: {caveat}")
    return EXIT_DEFINITE if verdict.is_definite else EXIT_INCONCLUSIVE


def _tree_report(analysis, mf, initial, budget, asserted) -> _Report:
    olts = (counter_olts if mf.kind == "counter" else fifo_olts)(mf.machine, initial)
    notes = ()
    if mf.kind == "counter":
        restricted, _ = is_cmrz(mf.machine, initial.control)
        notes = (f"restricted zero-test class: {'yes' if restricted else 'no'}",)
        # the restricted class replays loops verbatim, so growth is strict
        asserted = asserted or restricted
    if analysis == "nonterm-iterable":
        tree = build_lrrt(olts, budget)
        verdict = decide_nonterm_by_iterable(tree)
    else:
        tree = build_rrt(olts, budget)
        decide = decide_boundedness if analysis == "boundedness" else decide_nontermination
        verdict = decide(tree, asserted)
    witness = None
    if verdict.witness is not None:
        fmt = olts.state_fmt
        if analysis == "nonterm-iterable":
            nid, loop = verdict.witness
            witness = {"node": nid, "state": fmt(tree.nodes[nid].state)}
        else:
            aid, nid = verdict.witness
            key = "ancestor" if analysis == "boundedness" else "subsumer"
            witness = {f"{key}_node": aid, "node": nid, f"{key}_state": fmt(tree.nodes[aid].state),
                       "state": fmt(tree.nodes[nid].state)}
            loop = tree.loop_labels(nid)
        # both non-termination witnesses name the loop that repeats
        if analysis != "boundedness":
            witness["loop"] = [olts.label_fmt(l) for l in loop]
    return _Report(verdict, witness, notes, not tree.complete, tree)


def _cmrz_report(mf: ModelFile, initial) -> _Report:
    ok, path = is_cmrz(mf.machine, initial.control)
    witness = None if path is None else {
        "transitions": list(path),
        "path": [mf.machine.describe_transition(i) for i in path],
    }
    return _Report(AnalysisVerdict(Outcome.POSITIVE if ok else Outcome.NEGATIVE), witness)


def _cover_report(mf: ModelFile, initial, target, budget: int) -> _Report:
    verdict = x0_coverability(mf.machine, initial, target, budget)
    witness = None
    if verdict.outcome is Outcome.POSITIVE:
        witness = {
            "run": [mf.machine.describe_transition(i) for i in verdict.witness],
            "labels": list(verdict.witness),
        }
    elif verdict.outcome is Outcome.NEGATIVE:
        cert = verdict.witness
        # A certificate from candidate enumeration is closed under post; one
        # from an exhausted forward search is the closure of the reach set
        # and need not be. Label them apart so both stay checkable.
        key = "invariant" if downset_closed(mf.machine, cert) else "reach_closure"
        witness = {key: [i.show() for i in cert.ideals]}
    return _Report(verdict, witness, exhausted=verdict.budget_used >= budget)


def _natural_key(name: str) -> list:
    """Sort key that compares digit runs as numbers, so a2 comes before a10."""
    return [int(part) if i % 2 else part for i, part in enumerate(re.split(r"(\d+)", name))]


def _cmd_product(parser: _Parser, args) -> int:
    mf = _load_model(parser, args.model)
    if mf.kind != "fifo":
        parser.error("product applies to fifo models only")
    if mf.lang is None:
        parser.error("product needs bound clauses in the model file")
    missing = [ch for ch in mf.machine.channels if ch not in mf.lang.channels]
    if missing:
        parser.error(f"missing bound clause for channel(s): {', '.join(missing)}")
    if any(mf.initial.contents):
        parser.error("product requires empty initial channel contents")

    norm = normalize_distinct_letter(mf.machine, mf.lang)
    send_dfa = build_send_dfa(norm.machine, norm.lang)
    recv_dfa = build_recv_dfa(norm.machine, norm.lang)
    prod = product_machine(norm.machine, send_dfa, recv_dfa)

    header = [f"# product of {mf.machine.name} with bounds: {mf.lang.show()}"]
    renames = {new: old for new, old in norm.letter_map.items() if new != old}
    for new in sorted(renames, key=_natural_key):
        ch, block, offset = norm.positions[new]
        header.append(
            f"# letter {new} -> {renames[new]} (channel {ch}, word {block}, position {offset})"
        )
    out_mf = ModelFile("fifo", prod, prod.initial_config(), None)
    text = "\n".join(header) + "\n" + print_model(out_mf)
    if args.output:
        _write_file(parser, args.output, text)
        print(f"wrote {args.output} ({len(prod.states)} control states)")
    else:
        sys.stdout.write(text)
    return EXIT_DEFINITE


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
