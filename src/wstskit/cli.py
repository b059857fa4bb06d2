"""Command-line front end: parse a model file, run one analysis, report.

Exit codes: 0 for a definite verdict (either way), 2 for an inconclusive
verdict (budget ran out), 1 for usage or parse errors.  Reports render as
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
from typing import Optional

from .counter import CounterConfig, is_cmrz
from .cover import DownSet, downset_closed, x0_coverability
# not called here; kept as cli attributes because bench/tracing.py wraps them
from .cover import downset_post, downset_subset  # noqa: F401
from .dsl import ModelFile, ParseError, parse_model, parse_target, print_model
from .fifo import (
    FifoConfig,
    build_recv_dfa,
    build_send_dfa,
    normalize_distinct_letter,
    product_machine,
)
from .olts import counter_olts, fifo_olts
from .rrt import (
    DEFAULT_BUDGET,
    build_lrrt,
    build_rrt,
    decide_boundedness,
    decide_nonterm_by_iterable,
    decide_nontermination,
    export_dot,
)
from .verdict import AnalysisVerdict, Outcome

EXIT_DEFINITE = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2

ANALYSES = ("boundedness", "termination", "nonterm-iterable", "cmrz", "x0-cover")
TREE_ANALYSES = ("boundedness", "termination", "nonterm-iterable")

# Human/JSON wording per analysis and outcome.
_WORDS = {
    "boundedness": {Outcome.POSITIVE: "unbounded", Outcome.NEGATIVE: "bounded"},
    "termination": {Outcome.POSITIVE: "non-terminating", Outcome.NEGATIVE: "terminating"},
    "nonterm-iterable": {Outcome.POSITIVE: "non-terminating", Outcome.NEGATIVE: "terminating"},
    "cmrz": {Outcome.POSITIVE: "cmrz", Outcome.NEGATIVE: "not-cmrz"},
    "x0-cover": {Outcome.POSITIVE: "coverable", Outcome.NEGATIVE: "not-coverable"},
}

_HUMAN = {
    "unbounded": "UNBOUNDED",
    "bounded": "BOUNDED",
    "non-terminating": "NON-TERMINATING",
    "terminating": "TERMINATING",
    "cmrz": "CMRZ",
    "not-cmrz": "NOT CMRZ",
    "coverable": "COVERABLE",
    "not-coverable": "NOT COVERABLE",
    "inconclusive": "INCONCLUSIVE",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on errors; the report contract reserves
    2 for inconclusive verdicts, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wstskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", parents=[], help="run one analysis on a model file", add_help=True
    )
    check.add_argument("analysis", choices=ANALYSES)
    check.add_argument("model", help="path to a .model file")
    check.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
                       help="node / round budget (default %(default)s)")
    check.add_argument("--target", metavar="TARGET",
                       help='coverability target, e.g. q2:(3) or q:"ab"@ch')
    check.add_argument("--init", metavar="STATE", dest="init_state",
                       help="override the initial control state from the file")
    check.add_argument("--assert-strict-monotone", action="store_true",
                       help="caller vouches for strict compatibility; drops the caveat")
    check.add_argument("--assert-cover-monotone", action="store_true",
                       help="caller vouches for monotonicity relative to the initial state")
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
        text = Path(path).read_text(encoding="utf-8")
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
    if mf.kind == "counter":
        return CounterConfig(state, mf.initial.values)
    return FifoConfig(state, mf.initial.contents)


def _cmd_check(parser: _Parser, args) -> int:
    mf = _load_model(parser, args.model)
    if args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.analysis in ("cmrz", "x0-cover") and mf.kind != "counter":
        parser.error(f"analysis {args.analysis!r} applies to counter machines only")
    if args.analysis == "x0-cover" and not args.target:
        parser.error("x0-cover needs --target")
    if args.target and args.analysis != "x0-cover":
        print("note: --target is ignored by this analysis", file=sys.stderr)
    initial = _override_init(parser, mf, args.init_state)

    started = time.perf_counter()
    tree = None
    olts = None
    notes = []
    if args.analysis in TREE_ANALYSES:
        olts = (
            counter_olts(mf.machine, initial)
            if mf.kind == "counter"
            else fifo_olts(mf.machine, initial)
        )
        asserted = args.assert_strict_monotone
        if mf.kind == "counter":
            restricted, _ = is_cmrz(mf.machine)
            notes.append(f"restricted zero-test class: {'yes' if restricted else 'no'}")
            # the restricted class replays loops verbatim, so growth is strict
            asserted = asserted or restricted
        if args.analysis == "nonterm-iterable":
            tree = build_lrrt(olts, args.budget)
            verdict = decide_nonterm_by_iterable(tree)
        else:
            tree = build_rrt(olts, args.budget)
            if args.analysis == "boundedness":
                verdict = decide_boundedness(tree, olts.order, strict_asserted=asserted)
            else:
                verdict = decide_nontermination(tree, olts.order, monotone_asserted=asserted)
        witness = _tree_witness(args.analysis, tree, olts, verdict)
    elif args.analysis == "cmrz":
        ok, path_witness = is_cmrz(mf.machine)
        verdict = AnalysisVerdict(
            Outcome.POSITIVE if ok else Outcome.NEGATIVE, path_witness, 0
        )
        witness = None
        if path_witness is not None:
            witness = {
                "transitions": list(path_witness),
                "path": [mf.machine.describe_transition(i) for i in path_witness],
            }
    else:  # x0-cover
        try:
            y = parse_target(mf, args.target)
        except ValueError as exc:
            parser.error(str(exc))
        verdict = x0_coverability(mf.machine, initial, y, args.budget)
        if args.assert_cover_monotone and verdict.caveats:
            # the caveat hedges about termination without monotonicity
            # relative to the initial state, which the caller just vouched for
            verdict = AnalysisVerdict(
                verdict.outcome, verdict.witness, verdict.budget_used, ()
            )
        witness = None
        if verdict.outcome is Outcome.POSITIVE:
            witness = {
                "run": [mf.machine.describe_transition(i) for i in verdict.witness],
                "labels": list(verdict.witness),
            }
        elif isinstance(verdict.witness, DownSet):
            cert = verdict.witness
            shown = [i.show() for i in cert.ideals]
            # A certificate from candidate enumeration is closed under post; one
            # from an exhausted forward search is the closure of the reach set
            # and need not be. Label them apart so both stay checkable.
            if downset_closed(mf.machine, cert):
                witness = {"invariant": shown}
            else:
                witness = {"reach_closure": shown}
    elapsed_ms = (time.perf_counter() - started) * 1000

    if args.dot:
        if tree is None:
            print("note: --dot applies to tree analyses only; ignored", file=sys.stderr)
        else:
            _write_file(parser, args.dot, export_dot(tree, olts.state_fmt, olts.label_fmt))

    word = _WORDS[args.analysis].get(verdict.outcome, "inconclusive")
    report = {
        "command": f"check {args.analysis} {args.model}",
        "verdict": word,
        "witness": witness,
        "budget": verdict.budget_used,
        "elapsed_ms": round(elapsed_ms, 3),
        "caveats": list(verdict.caveats),
    }
    if args.json:
        print(json.dumps(report, ensure_ascii=False))
    else:
        print(f"machine: {mf.machine.name} ({mf.kind})")
        print(f"analysis: {args.analysis}")
        for note in notes:
            print(f"note: {note}")
        print(f"verdict: {_HUMAN[word]}")
        if witness is not None:
            print(f"witness: {json.dumps(witness, ensure_ascii=False)}")
        if verdict.outcome is Outcome.INCONCLUSIVE:
            exhausted = (
                tree.budget_exhausted if tree is not None else verdict.budget_used >= args.budget
            )
            mark = " (exhausted)" if exhausted else ""
            print(f"budget used: {verdict.budget_used} of {args.budget}{mark}")
        else:
            print(f"budget used: {verdict.budget_used}")
        print(f"elapsed: {elapsed_ms:.1f} ms")
        for caveat in verdict.caveats:
            print(f"caveat: {caveat}")
    return EXIT_DEFINITE if verdict.is_definite else EXIT_INCONCLUSIVE


def _tree_witness(analysis, tree, olts, verdict):
    if verdict.witness is None:
        return None
    fmt = olts.state_fmt
    if analysis == "boundedness":
        aid, nid = verdict.witness
        return {
            "ancestor_node": aid,
            "node": nid,
            "ancestor_state": fmt(tree.nodes[aid].state),
            "state": fmt(tree.nodes[nid].state),
        }
    if analysis == "termination":
        aid, nid = verdict.witness
        return {
            "subsumer_node": aid,
            "node": nid,
            "subsumer_state": fmt(tree.nodes[aid].state),
            "state": fmt(tree.nodes[nid].state),
            "loop": [olts.label_fmt(l) for l in tree.loop_labels(nid)],
        }
    nid, loop = verdict.witness
    return {
        "node": nid,
        "state": fmt(tree.nodes[nid].state),
        "loop": [olts.label_fmt(l) for l in loop],
    }


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
