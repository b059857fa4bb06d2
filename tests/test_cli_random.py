"""Random model texts through the command line.

Each random machine is written as model text with ``print_model``, read
back by ``wstskit check --json``.  Every BOUNDED, UNBOUNDED, TERMINATING,
NON-TERMINATING, COVERABLE and NOT COVERABLE answer, and every ``cmrz``
answer with its violating path, is checked against the slow references in
``oracles``.  The ``check_*_report`` functions check one JSON report each;
``test_cli_mutants`` uses them too.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from random import Random

from gen import random_counter_machine, random_fifo_machine
from oracles import (
    bfs_reach,
    downset_members,
    has_infinite_run,
    ref_counter_leq,
    ref_counter_step,
    ref_fifo_step,
    ref_ideal_member,
    ref_is_cmrz,
    ref_post_downclosed,
    ref_run,
)
from wstskit.cli import main
from wstskit.counter import CounterConfig
from wstskit.cover import OMEGA, DownSet, Ideal
from wstskit.dsl import ModelFile, parse_model, print_model
from wstskit.fifo import FifoConfig, bounded_lang

BUDGET = 200
# the oracles' cap on configurations for UNBOUNDED and NON-TERMINATING answers
CAP = 2000


def _counter_model(rng: Random) -> ModelFile:
    machine = random_counter_machine(rng, max_states=3, zero_tests=True)
    values = tuple(rng.randint(0, 2) for _ in machine.counters)
    return ModelFile("counter", machine, CounterConfig(machine.initial, values))


def _fifo_model(rng: Random) -> ModelFile:
    machine = random_fifo_machine(rng, max_states=3, max_transitions=5)
    letters = machine.alphabet.word("ab")
    contents = tuple(
        "".join(rng.choice(letters) for _ in range(rng.choice((0, 0, 1, 2))))
        for _ in machine.channels
    )
    lang = None
    if rng.random() < 0.5:
        lang = bounded_lang(machine, {machine.channels[0]: ["ab", "b"][: rng.randint(1, 2)]})
    return ModelFile("fifo", machine, FifoConfig(machine.initial, contents), lang)


def _check(capsys, *argv) -> dict:
    code = main(["check", *argv, "--json"])
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert code == (2 if report["verdict"] == "inconclusive" else 0), report
    return report


def witness_downset(shown: list[str]) -> DownSet:
    """The down-set of an ``x0-cover`` witness, from its ``q:(v1,...)`` ideals."""
    ideals = []
    for text in shown:
        control, entries = text[:-1].split(":(")
        bounds = [OMEGA if e == "ω" else int(e) for e in entries.split(",") if e]
        ideals.append(Ideal(control, tuple(bounds)))
    return DownSet(tuple(ideals))


def check_tree_report(report: dict, machine, x0, step) -> None:
    """Check a tree analysis's answer from x0."""
    # BOUNDED and TERMINATING come from a complete tree of N nodes that
    # holds every reachable configuration, so the oracle search capped at
    # N + 1 configurations must finish with at most N of them
    n = report["budget"]
    if report["verdict"] in ("bounded", "terminating"):
        reached, complete = bfs_reach(machine, x0, step, max_nodes=n + 1)
        assert complete and len(reached) <= n, report
    if report["verdict"] == "terminating":
        assert has_infinite_run(machine, x0, step, max_nodes=n + 1) == (False, True), report
    # UNBOUNDED needs more than CAP reachable configurations, and
    # NON-TERMINATING must not be refuted by CAP of them
    if report["verdict"] == "unbounded":
        assert _capped_infinite_run(machine, x0, step) == (None, False), report
    if report["verdict"] == "non-terminating":
        assert _capped_infinite_run(machine, x0, step) != (False, True), report


@lru_cache(maxsize=4)  # the three tree analyses of one start share it
def _capped_infinite_run(machine, x0, step) -> tuple:
    return has_infinite_run(machine, x0, step, max_nodes=CAP)


def check_cover_report(report: dict, machine, x0: CounterConfig, y: CounterConfig) -> str:
    """Check an ``x0-cover`` answer for target y from x0; return the kind of
    answer: ``coverable``, ``invariant``, ``reach_closure`` or
    ``inconclusive``."""
    witness = report["witness"] or {}  # none on an inconclusive answer
    if report["verdict"] == "coverable":
        end, stuck = ref_run(machine, x0, witness["labels"], ref_counter_step)
        assert stuck is None and ref_counter_leq(y, end), report
        return "coverable"
    if "invariant" in witness:
        d = witness_downset(witness["invariant"])
        # the members up to the cap take in x0 and the box two above every bound
        finite = (b for i in d.ideals for b in i.bounds if b != OMEGA)
        cap = max(2 + max(finite, default=0), max(x0.values, default=0))
        members = downset_members(machine, d, cap)
        assert x0 in members and not any(ref_ideal_member(i, y) for i in d.ideals)
        assert ref_post_downclosed(machine, members, cap) <= members, report
        return "invariant"
    if "reach_closure" in witness:
        d = witness_downset(witness["reach_closure"])
        reached, complete = bfs_reach(machine, x0, ref_counter_step, max_nodes=20000)
        assert complete and not any(ref_counter_leq(y, x) for x in reached)
        assert all(any(ref_ideal_member(i, x) for i in d.ideals) for x in reached)
        return "reach_closure"
    assert report["verdict"] == "inconclusive", report
    return "inconclusive"


def check_cmrz_report(report: dict, machine, start: str) -> None:
    """Check a ``cmrz`` answer and its violating path from ``start``."""
    ok, violation = ref_is_cmrz(machine, start)
    assert report["verdict"] == ("cmrz" if ok else "not-cmrz"), report
    assert (report["witness"] or {}).get("transitions") == violation, report


def _check_tree_answers(capsys, seen, path, mf, x0, extra, step):
    for analysis in ("boundedness", "termination", "nonterm-iterable"):
        report = _check(capsys, analysis, path, "--budget", str(BUDGET), *extra)
        check_tree_report(report, mf.machine, x0, step)
        seen[report["verdict"]] += 1


def _check_cover_answer(capsys, seen, path, mf, x0, extra, rng):
    machine = mf.machine
    values = tuple(rng.randint(0, 3) for _ in machine.counters)
    y = CounterConfig(rng.choice(machine.states), values)
    target = f"{y.control}:({','.join(map(str, y.values))})"
    report = _check(capsys, "x0-cover", path, "--target", target, "--budget", str(BUDGET), *extra)
    kind = check_cover_report(report, machine, x0, y)
    if kind != "inconclusive":
        seen[kind] += 1


def _check_cmrz_answer(capsys, seen, path, mf, x0, extra):
    report = _check(capsys, "cmrz", path, *extra)
    check_cmrz_report(report, mf.machine, x0.control)
    seen[report["verdict"]] += 1


def test_random_models_through_the_cli(tmp_path, capsys):
    rng = Random(20261019)
    seen = Counter()
    path = str(tmp_path / "random.model")
    for n in range(120):
        mf = (_counter_model if n % 2 else _fifo_model)(rng)
        text = print_model(mf)
        assert parse_model(text, name="random") == mf
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        start = rng.choice(mf.machine.states)
        for extra in ((), ("--init", start)):
            if mf.kind == "counter":
                x0 = CounterConfig(extra[1] if extra else mf.initial.control, mf.initial.values)
                _check_cmrz_answer(capsys, seen, path, mf, x0, extra)
                _check_tree_answers(capsys, seen, path, mf, x0, extra, ref_counter_step)
                _check_cover_answer(capsys, seen, path, mf, x0, extra, rng)
            else:
                x0 = FifoConfig(extra[1] if extra else mf.initial.control, mf.initial.contents)
                _check_tree_answers(capsys, seen, path, mf, x0, extra, ref_fifo_step)
    # each kind of checked answer turns up
    for verdict in ("bounded", "unbounded", "terminating", "non-terminating", "coverable",
                    "invariant", "reach_closure", "cmrz", "not-cmrz"):
        assert seen[verdict] >= 3, seen
