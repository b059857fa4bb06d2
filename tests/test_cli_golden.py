"""Every CLI report on the shipped models, pinned byte for byte.

The table holds one case per command line: every ``models/*.model`` with
each analysis that applies to it, in human and ``--json`` form, with
``--budget 3`` and with ``--init`` for each control state; the x0-cover
targets below; the ``--dot`` text of each tree analysis; and ``product``
for each model with bound clauses.  Each case stores the exit code,
stdout, stderr and, for ``--dot``, the written file.  Elapsed times are
masked and model paths are relative to the repository root, so the
recording does not depend on the host.

A change that means to alter a report re-records the table with
``PYTHONPATH=src python tests/test_cli_golden.py`` and argues the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from conftest import MODELS, load_model
from wstskit import cli

ROOT = MODELS.parent
TABLE = Path(__file__).with_name("cli_golden.json")
DOT = "OUT.dot"  # stands for the --dot file in a recorded command line

# x0-cover targets per counter model: one coverable, one not (from x0)
TARGETS = {
    "m6": ("q1:(0)", "q1:(1)"),
    "m7": ("q1:(1)", "q2:(0)"),
    "m8": ("q2:(3)", "q1:(1)"),
}

_ELAPSED = (
    (re.compile(r"elapsed: \d+\.\d ms"), "elapsed: * ms"),
    (re.compile(r'"elapsed_ms": [0-9.e+-]+'), '"elapsed_ms": "*"'),
)


def command_lines() -> list[list[str]]:
    """The recorded command lines, in table order."""
    lines = []
    for path in sorted(MODELS.glob("*.model")):
        mf = load_model(path.stem)
        model = path.relative_to(ROOT).as_posix()
        variants = [[], ["--budget", "3"]] + [["--init", q] for q in mf.machine.states]
        checks = [["check", a, model] for a in cli.TREE_ANALYSES]
        if mf.kind == "counter":
            lines += [["check", "cmrz", model, *form] for form in ([], ["--json"])]
            checks += [["check", "x0-cover", model, "--target", t] for t in TARGETS[path.stem]]
        for argv in checks:
            for extra in variants:
                lines += [argv + extra, argv + extra + ["--json"]]
        lines += [["check", a, model, "--dot", DOT] for a in cli.TREE_ANALYSES]
        if mf.lang is not None:
            lines.append(["product", model])
    return lines


def run_case(argv: list[str], tmp: Path) -> dict:
    """Run ``cli.main`` in this process from the repository root."""
    dot = tmp / DOT
    real = [str(dot) if a == DOT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(real)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    for pattern, mask in _ELAPSED:
        stdout = pattern.sub(mask, stdout)
    case = {"argv": argv, "code": code, "stdout": stdout, "stderr": err.getvalue()}
    if DOT in argv:
        case["dot"] = dot.read_text(encoding="utf-8")
    return case


RECORDED = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else []


def test_table_covers_the_corpus():
    assert [case["argv"] for case in RECORDED] == command_lines()


@pytest.mark.parametrize("case", RECORDED, ids=[" ".join(c["argv"]) for c in RECORDED])
def test_cli_report_unchanged(case, tmp_path):
    assert run_case(case["argv"], tmp_path) == case


def report_twins() -> list[tuple[dict, dict]]:
    """Each recorded human ``check`` case with its ``--json`` twin."""
    recorded = {tuple(case["argv"]): case for case in RECORDED}
    return [
        (case, recorded[argv + ("--json",)])
        for argv, case in recorded.items()
        if argv + ("--json",) in recorded
    ]


TWINS = report_twins()


@pytest.mark.parametrize("human, twin", TWINS, ids=[" ".join(h["argv"]) for h, _ in TWINS])
def test_report_forms_agree(human, twin):
    """Both forms render one report: the human lines say what the JSON says."""
    report = json.loads(twin["stdout"])
    lines = human["stdout"].splitlines()

    def field(name):
        return [line[len(name) + 2:] for line in lines if line.startswith(f"{name}: ")]

    assert field("verdict") == [report["verdict"].upper().replace("NOT-", "NOT ")]
    witness = report["witness"]
    shown = [] if witness is None else [json.dumps(witness, ensure_ascii=False)]
    assert field("witness") == shown
    [budget] = field("budget used")
    assert int(budget.split()[0]) == report["budget"]
    assert field("caveat") == report["caveats"]
    assert (human["code"], human["stderr"]) == (twin["code"], twin["stderr"])


@pytest.mark.parametrize("model", sorted(path.stem for path in MODELS.glob("*.model")))
def test_tree_analyses_draw_one_tree(model, tmp_path):
    """The three tree analyses build one tree: from each start, with or
    without --init, their --dot texts are identical."""
    path = f"models/{model}.model"
    for init in [[]] + [["--init", q] for q in load_model(model).machine.states]:
        dots = [run_case(["check", analysis, path, *init, "--dot", DOT], tmp_path)["dot"]
                for analysis in cli.TREE_ANALYSES]
        assert dots[1:] == dots[:1] * 2, (model, init)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = [run_case(argv, Path(tmp)) for argv in command_lines()]
    TABLE.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} cases in {TABLE.name}", file=sys.stderr)
