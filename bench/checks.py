"""Correctness gate: every CLI output is checked against an answer known
without the program, or against a witness checked with the reference
steppers of ``tests/oracles.py``.

* dec-lattice: TERMINATING, and the node count equals the closed form.
* rotate-with-drop: BOUNDED (the verdict needs a complete tree).
* COVERABLE: the witness run replays with ``ref_counter_step`` and ends
  at or above the target; the target must not be known unreachable.
* NOT COVERABLE: the target must not be known coverable.  An invariant
  contains x0, excludes the target and is closed under
  ``ref_post_downclosed`` over ``downset_members`` within a cap.  A reach
  closure contains x0, excludes the target and holds every configuration
  an exhaustive reference search reaches.
* INCONCLUSIVE (exit 2): accepted; it contradicts no answer.
* product: the output re-parses as a FIFO model over the same channels.

Any other exit code, or a traceback, is a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import oracles
from wstskit.counter import CounterConfig
from wstskit.cover import OMEGA, DownSet, Ideal
from wstskit.dsl import parse_model, parse_target

MEMBER_CAP_MIN = 4
REACH_LIMIT = 20_000


@dataclass
class Checked:
    ok: bool
    decided: bool
    reason: str = ""
    counts: dict | None = None  # counts the report itself states


def check_output(inst, code: int, stdout: str, stderr: str) -> Checked:
    decided = code == 0
    if "Traceback" in stderr or code not in (0, 2):
        return Checked(False, decided, f"crash: exit {code}: {stderr.strip()[-300:]}")
    if inst.args[0] == "product":
        return _check_product(inst, code, stdout)
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Checked(False, decided, f"no JSON report: {stdout[-300:]!r}")
    verdict = report["verdict"]
    if decided == (verdict == "inconclusive"):
        return Checked(False, decided, f"exit {code} with verdict {verdict}")
    analysis = inst.args[1]
    counts = {"rrt.nodes" if analysis != "x0-cover" else "cover.rounds": report["budget"]}
    if analysis == "x0-cover":
        reason = _check_cover(inst, verdict, report["witness"])
    elif verdict != inst.expect["verdict"]:
        reason = f"verdict {verdict}, expected {inst.expect['verdict']}"
    elif "nodes" in inst.expect and report["budget"] != inst.expect["nodes"]:
        reason = f"{report['budget']} tree nodes, closed form gives {inst.expect['nodes']}"
    else:
        reason = ""
    return Checked(not reason, decided, reason, counts)


def _check_product(inst, code: int, stdout: str) -> Checked:
    if code != 0:
        return Checked(False, False, f"product exited {code}")
    try:
        mf = parse_model(stdout, name="product")
    except ValueError as exc:
        return Checked(False, True, f"product output does not parse: {exc}")
    if mf.kind != "fifo" or len(mf.machine.channels) != inst.expect["channels"]:
        return Checked(False, True, "product output is not a FIFO model over the same channels")
    return Checked(True, True)


def _check_cover(inst, verdict: str, witness) -> str:
    mf = parse_model(inst.text, name=inst.stem)
    machine, x0 = mf.machine, mf.initial
    y = parse_target(mf, inst.args[inst.args.index("--target") + 1])
    known = inst.expect.get("coverable")
    if verdict == "coverable":
        if known is False:
            return "COVERABLE, but the target is unreachable"
        end, stuck = oracles.ref_run(machine, x0, witness["labels"], oracles.ref_counter_step)
        if stuck is not None:
            return f"witness run is stuck at step {stuck}"
        if not oracles.ref_counter_leq(y, end):
            return f"witness run ends at {end}, below the target"
        return ""
    if verdict == "not-coverable":
        if known is True:
            return "NOT COVERABLE, but the target is coverable"
        kind, shown = next(iter(witness.items()))
        cert = DownSet(tuple(_parse_ideal(s) for s in shown))
        if not _member(cert, x0):
            return "certificate misses x0"
        if _member(cert, y):
            return "certificate contains the target"
        if kind == "invariant":
            return _check_invariant(machine, cert, y)
        return _check_reach_closure(machine, cert, x0)
    return ""  # inconclusive


def _check_invariant(machine, cert: DownSet, y: CounterConfig) -> str:
    finite = [int(b) for i in cert.ideals for b in i.bounds if b != OMEGA]
    cap = max([MEMBER_CAP_MIN, *finite, *y.values]) + 1
    members = oracles.downset_members(machine, cert, cap)
    escaped = oracles.ref_post_downclosed(machine, members, cap) - members
    if escaped:
        return f"certificate is not closed under post: {sorted(escaped, key=str)[0]}"
    return ""


def _check_reach_closure(machine, cert: DownSet, x0: CounterConfig) -> str:
    seen, complete = oracles.bfs_reach(machine, x0, oracles.ref_counter_step,
                                       max_nodes=REACH_LIMIT)
    if not complete:
        return "reach closure given, but the reachable set is larger than the check limit"
    outside = [x for x in seen if not _member(cert, x)]
    if outside:
        return f"reach closure misses the reachable {outside[0]}"
    return ""


def _member(cert: DownSet, x: CounterConfig) -> bool:
    return any(oracles.ref_ideal_member(i, x) for i in cert.ideals)


def _parse_ideal(text: str) -> Ideal:
    control, rest = text.split(":(")
    bounds = tuple(OMEGA if e == "ω" else int(e) for e in rest.rstrip(")").split(",") if e)
    return Ideal(control, bounds)
