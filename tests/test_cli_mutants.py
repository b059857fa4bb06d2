"""Mutated model files through the command line: bad input never gives a
traceback, and the definite answers of a mutant that parses hold.

Each mutant is a shipped ``models/*.model`` text with one to three random
edits: a character inserted, deleted or replaced; a line duplicated or
deleted; or a number inserted (``10**30`` written out, a 40-digit number,
or ``-1``).  It goes through ``cli.main`` with a random analysis, a random
``--init`` and a random ``--json``, or through ``product``.  Every run
must exit 0, 1 or 2 without raising; a run that exits 1 must say why on
stderr, without a traceback; a ``--json`` run that exits 0 or 2 must
print a report with exactly the contract's keys.  ``x0-cover`` runs at
``--budget 100``, which keeps its certificate enumeration small.

When a mutant parses, its definite answers go through the checks of
``test_cli_random``: BOUNDED and TERMINATING against a search capped at
the report's node count, UNBOUNDED and NON-TERMINATING against a search
capped at 2,000 configurations, ``cmrz`` answers against the reference,
and COVERABLE runs, invariants and reach closures against the oracles.  A
non-``--json`` run is repeated with ``--json`` to read its report.  A
mutant whose start values or certificate bounds exceed ``CAP`` is not
checked, since member enumeration grows with them (a ``10**30`` start
makes it unbounded).
"""

from __future__ import annotations

import json
from collections import Counter
from random import Random
from typing import Optional

from conftest import MODELS
from oracles import ref_counter_step, ref_fifo_step
from test_cli import REPORT_KEYS
from test_cli_random import check_cmrz_report, check_cover_report, check_tree_report, witness_downset
from wstskit.cli import ANALYSES, main
from wstskit.counter import CounterConfig
from wstskit.cover import OMEGA
from wstskit.dsl import parse_model, parse_target
from wstskit.fifo import FifoConfig

SEED = 15
MUTANTS = 800
# characters of the model syntax, a few that it never uses, and a non-ASCII letter
CHARS = "abcq0129 \t\n#:;,!?()[]{}-=>*|ω"
CONTROLS = ("q0", "q1", "q2", "q3", "zz")
CAP = 12


def _mutate(rng: Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(6)
        if edit == 0:
            text = text[:i] + rng.choice(CHARS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        elif edit == 2:
            text = text[:i] + rng.choice(CHARS) + text[i + 1:]
        elif edit == 5:
            number = rng.choice((str(10**30), str(rng.randrange(10**39, 10**40)), "-1"))
            text = text[:i] + number + text[i:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            j = rng.randrange(len(lines))
            lines[j:j + 1] = [lines[j]] * (2 if edit == 3 else 0)
            text = "".join(lines)
    return text


def _argv(rng: Random, path: str) -> list[str]:
    analysis = rng.choice(ANALYSES + ("product",))
    if analysis == "product":
        return ["product", path]
    argv = ["check", analysis, path]
    if analysis == "x0-cover":
        values = ",".join(str(rng.randrange(3)) for _ in range(rng.randrange(3)))
        argv += ["--budget", "100", "--target", f"{rng.choice(CONTROLS)}:({values})"]
    if rng.random() < 0.5:
        argv += ["--init", rng.choice(CONTROLS)]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _checked_kind(argv: list[str], report: dict, text: str) -> Optional[str]:
    """Check one definite ``check`` answer of a parsed mutant; return the
    kind of answer checked, or None when the mutant is out of the caps or
    the answer is one that is not checked."""
    mf = parse_model(text, name="mutant")
    analysis = argv[1]
    start = argv[argv.index("--init") + 1] if "--init" in argv else mf.initial.control
    if mf.kind == "fifo":
        x0, step = FifoConfig(start, mf.initial.contents), ref_fifo_step
    elif max(mf.initial.values, default=0) > CAP:
        return None
    else:
        x0, step = CounterConfig(start, mf.initial.values), ref_counter_step
    if analysis == "cmrz":
        check_cmrz_report(report, mf.machine, start)
        return report["verdict"]
    if analysis == "x0-cover":
        witness = report["witness"]
        for key in ("invariant", "reach_closure"):
            ideals = witness_downset(witness.get(key, ())).ideals
            if any(b != OMEGA and b > CAP for i in ideals for b in i.bounds):
                return None
        y = parse_target(mf, argv[argv.index("--target") + 1])
        return check_cover_report(report, mf.machine, x0, y)
    check_tree_report(report, mf.machine, x0, step)
    return report["verdict"]


def test_mutated_models_exit_cleanly(capsys, tmp_path):
    rng = Random(SEED)
    texts = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.model"))]
    path = tmp_path / "mutant.model"
    codes = []
    checked = Counter()
    for _ in range(MUTANTS):
        mutant = _mutate(rng, rng.choice(texts))
        path.write_text(mutant, encoding="utf-8")
        argv = _argv(rng, str(path))
        code, out, err = _run(argv, capsys)
        case = (argv, mutant, code, err)
        assert code in (0, 1, 2), case
        assert "Traceback" not in err, case
        if code == 1:
            assert err.strip(), case
        elif "--json" in argv:
            assert list(json.loads(out)) == REPORT_KEYS, case
        codes.append(code)
        if code == 0 and argv[0] == "check":
            if "--json" not in argv:
                code, out, _ = _run(argv + ["--json"], capsys)
                assert code == 0, case
            checked[_checked_kind(argv, json.loads(out), mutant)] += 1
    # the sweep reaches both parse errors and analyses of parsed mutants
    assert all(codes.count(code) >= 10 for code in (0, 1, 2)), sorted(set(codes))
    # and checks the kinds of definite answer that parsed mutants give most
    kinds = ("bounded", "unbounded", "terminating", "non-terminating", "cmrz", "not-cmrz")
    assert all(checked[kind] >= 5 for kind in kinds), checked
