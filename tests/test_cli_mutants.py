"""Mutated model files through the command line: bad input never gives a
traceback.

Each mutant is a shipped ``models/*.model`` text with one to three random
edits: a character inserted, deleted or replaced; a line duplicated or
deleted; or a number inserted (``10**30`` written out, a 40-digit number,
or ``-1``).  It goes through ``cli.main`` with a random analysis, a random
``--init`` and a random ``--json``, or through ``product``.  Every run
must exit 0, 1 or 2 without raising; a run that exits 1 must say why on
stderr, without a traceback; a ``--json`` run that exits 0 or 2 must
print a report with exactly the contract's keys.  ``x0-cover`` runs at
``--budget 100``, which keeps its certificate enumeration small.
"""

from __future__ import annotations

import json
from random import Random

from conftest import MODELS
from test_cli import REPORT_KEYS
from wstskit.cli import ANALYSES, main

SEED = 15
MUTANTS = 800
# characters of the model syntax, a few that it never uses, and a non-ASCII letter
CHARS = "abcq0129 \t\n#:;,!?()[]{}-=>*|ω"
CONTROLS = ("q0", "q1", "q2", "q3", "zz")


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


def test_mutated_models_exit_cleanly(capsys, tmp_path):
    rng = Random(SEED)
    texts = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.model"))]
    path = tmp_path / "mutant.model"
    codes = []
    for _ in range(MUTANTS):
        mutant = _mutate(rng, rng.choice(texts))
        path.write_text(mutant, encoding="utf-8")
        argv = _argv(rng, str(path))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        case = (argv, mutant, code, err)
        assert code in (0, 1, 2), case
        assert "Traceback" not in err, case
        if code == 1:
            assert err.strip(), case
        elif "--json" in argv:
            assert list(json.loads(out)) == REPORT_KEYS, case
        codes.append(code)
    # the sweep reaches both parse errors and analyses of parsed mutants
    assert all(codes.count(code) >= 10 for code in (0, 1, 2)), sorted(set(codes))
