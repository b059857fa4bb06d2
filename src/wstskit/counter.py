"""Counter machines: syntax, small-step semantics, and the restricted
zero-test check.

A machine is a finite control graph whose transitions carry one operation
(increment, decrement, or noop on a single counter) plus a set of counters
that must be zero for the transition to fire.  Zero tests read the values
before the operation applies.  Transition labels are the declaration
indices, so label sequences replay unambiguously even when two transitions
share source and operation.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from ._explore import Explorer
from ._record import FrozenFields, set_field

OP_INC = "inc"
OP_DEC = "dec"
OP_NOOP = "noop"
_OPS = (OP_INC, OP_DEC, OP_NOOP)
OMEGA = float("inf")  # ω, an unbounded entry of a cover ideal


class CounterTransition(NamedTuple):
    source: str
    op: str
    counter: Optional[str]  # None exactly when op is noop
    zero_tests: frozenset[str]
    target: str


class CounterConfig(FrozenFields):
    __slots__ = _fields = ("control", "values")

    def __init__(self, control: str, values: Sequence[int]) -> None:
        set_field(self, "control", control)
        # a tuple, so that configurations hash and order alike whatever
        # sequence built them (tuple() hands an exact tuple back unchanged)
        set_field(self, "values", tuple(values))


class CounterMachine(FrozenFields):
    """A validated counter machine, frozen so that ``post_index`` can cache
    its transitions."""

    _fields = ("states", "counters", "transitions", "initial", "name")

    def __init__(
        self,
        states: tuple[str, ...],
        counters: tuple[str, ...],
        transitions: tuple[CounterTransition, ...],
        initial: str,
        name: str = "counter-machine",
    ) -> None:
        super().__init__(states, counters, transitions, initial, name)
        states = set(self.states)
        counters = set(self.counters)
        if len(states) != len(self.states):
            raise ValueError("duplicate control states")
        if len(counters) != len(self.counters):
            raise ValueError("duplicate counters")
        if self.initial not in states:
            raise ValueError(f"initial control {self.initial!r} not declared")
        for i, t in enumerate(self.transitions):
            if t.source not in states or t.target not in states:
                raise ValueError(f"transition {i} uses undeclared control state")
            if t.op not in _OPS:
                raise ValueError(f"transition {i} has unknown op {t.op!r}")
            if (t.counter is None) != (t.op == OP_NOOP):
                raise ValueError(f"transition {i}: op {t.op} and counter disagree")
            if t.counter is not None and t.counter not in counters:
                raise ValueError(f"transition {i} uses undeclared counter {t.counter!r}")
            if not t.zero_tests <= counters:
                raise ValueError(f"transition {i} zero-tests undeclared counters")

    def counter_index(self, c: str) -> int:
        if c not in self.counters:
            raise ValueError(f"unknown counter {c!r}")
        return self.counters.index(c)

    @cached_property
    def post_index(self) -> dict[str, list[tuple[int, tuple[int, ...], int | None, str, str]]]:
        """Transitions by source control, in declaration order, with counter
        indices resolved: ``(label, zero-tested indices, counter index or
        None, op, target)``.  Built on first use."""
        index: dict[str, list] = {q: [] for q in self.states}
        for label, t in enumerate(self.transitions):
            zeros = tuple(self.counter_index(c) for c in t.zero_tests)
            ci = None if t.counter is None else self.counter_index(t.counter)
            index[t.source].append((label, zeros, ci, t.op, t.target))
        return index

    def initial_config(self, values: Sequence[int] | None = None) -> CounterConfig:
        values = (0,) * len(self.counters) if values is None else values
        return self.check(CounterConfig(self.initial, values), "initial")

    def check(self, x, what: str):
        """x, or a ValueError naming ``what`` unless x has a declared control
        and one ``int`` ≥ 0, not a ``bool``, per counter; a cover ideal
        (``what == "ideal"``) may use ω."""
        if x.control not in self.states:
            raise ValueError(f"{what} control {x.control!r} not a machine state")
        values = x.bounds if what == "ideal" else x.values
        k = len(self.counters)
        if len(values) != k:
            raise ValueError(f"{what} dimension {len(values)} != machine dimension {k}")
        if any(type(v) is not int for v in values if what != "ideal" or v != OMEGA):
            raise ValueError(f"{what} values must be integers")
        if any(v < 0 for v in values):
            raise ValueError(f"{what} values must be non-negative")
        return x

    def describe_transition(self, label: int) -> str:
        t = self.transitions[label]
        if t.op == OP_NOOP:
            text = OP_NOOP
        else:
            text = f"{t.op}({t.counter})"
        if t.zero_tests:
            text += " [zero: " + ",".join(sorted(t.zero_tests)) + "]"
        return text


def counter_config_str(x: CounterConfig) -> str:
    return f"{x.control}:(" + ",".join(str(v) for v in x.values) + ")"


def cm_post(machine: CounterMachine, x: CounterConfig) -> list[tuple[int, CounterConfig]]:
    """All enabled one-step successors, in transition declaration order.

    A transition is disabled by a source control mismatch, a failing zero
    test (evaluated on the pre-state), or a decrement at zero.
    """
    values = x.values
    out = []
    for label, zeros, i, op, target in machine.post_index.get(x.control, ()):
        if zeros and any(values[j] != 0 for j in zeros):
            continue
        if i is None:
            y = values
        elif op == OP_DEC:
            if values[i] == 0:
                continue
            y = values[:i] + (values[i] - 1,) + values[i + 1 :]
        else:
            y = values[:i] + (values[i] + 1,) + values[i + 1 :]
        out.append((label, CounterConfig(target, y)))
    return out


def control_reachable(machine: CounterMachine, start: str) -> set[str]:
    """Control states reachable in the control graph from ``start``, which
    must be a machine state."""
    if start not in machine.states:
        raise ValueError(f"start control {start!r} not a machine state")
    explorer = Explorer(start)
    for i, q in explorer:
        for label, *_, target in machine.post_index.get(q, ()):
            explorer.add(target, i, label)
    return set(explorer.index)


def is_cmrz(
    machine: CounterMachine, start: str | None = None
) -> tuple[bool, list[int] | None]:
    """Check that no counter is incremented or decremented at or after a
    zero test of it, along any control-graph path from ``start`` (default:
    the machine's initial control).

    This is a syntactic condition on transition sequences, not on feasible
    runs; machines whose feasible runs are all safe can still be rejected.
    A transition that tests a counter and operates on the same counter
    counts as a violation on its own (positions i = j).  On failure the
    shortest violating transition sequence is returned, starting at the
    zero-testing transition and ending at the offending operation.
    """
    reachable = control_reachable(machine, machine.initial if start is None else start)
    violations: list[list[int]] = []
    for ti, t in enumerate(machine.transitions):
        if not t.zero_tests or t.source not in reachable:
            continue
        if t.op != OP_NOOP and t.counter in t.zero_tests:
            violations.append([ti])
            continue
        # BFS over the control graph from target(t) for the nearest transition
        # operating on a tested counter (cycles included; a noop has no index).
        tested = {machine.counter_index(c) for c in t.zero_tests}
        explorer = Explorer(t.target)
        for i, q in explorer:
            use = next((ui for ui, _, ci, *_ in machine.post_index[q] if ci in tested), None)
            if use is not None:
                violations.append([ti, *explorer.path(i), use])
                break
            for ui, *_, target in machine.post_index[q]:
                explorer.add(target, i, ui)
    best = min(violations, key=len, default=None)
    return best is None, best
