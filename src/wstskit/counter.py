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

from collections import deque
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from ._record import FrozenFields, set_field

OP_INC = "inc"
OP_DEC = "dec"
OP_NOOP = "noop"
_OPS = (OP_INC, OP_DEC, OP_NOOP)


class CounterTransition(NamedTuple):
    source: str
    op: str
    counter: Optional[str]  # None exactly when op is noop
    zero_tests: frozenset[str]
    target: str


class CounterConfig(FrozenFields):
    __slots__ = _fields = ("control", "values")

    def __init__(self, control: str, values: tuple[int, ...]) -> None:
        set_field(self, "control", control)
        set_field(self, "values", values)


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
        set_field(self, "states", states)
        set_field(self, "counters", counters)
        set_field(self, "transitions", transitions)
        set_field(self, "initial", initial)
        set_field(self, "name", name)
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
        if values is None:
            values = (0,) * len(self.counters)
        values = tuple(values)
        if len(values) != len(self.counters):
            raise ValueError("initial valuation has wrong dimension")
        return CounterConfig(self.initial, values)

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
    """Control states reachable from ``start`` in the control graph."""
    seen = {start}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        for t in machine.transitions:
            if t.source == q and t.target not in seen:
                seen.add(t.target)
                queue.append(t.target)
    return seen


def is_cmrz(machine: CounterMachine) -> tuple[bool, list[int] | None]:
    """Check that no counter is incremented or decremented at or after a
    zero test of it, along any control-graph path from the initial control.

    This is a syntactic condition on transition sequences, not on feasible
    runs; machines whose feasible runs are all safe can still be rejected.
    A transition that tests a counter and operates on the same counter
    counts as a violation on its own (positions i = j).  On failure the
    shortest violating transition sequence is returned, starting at the
    zero-testing transition and ending at the offending operation.
    """
    reachable = control_reachable(machine, machine.initial)
    best: list[int] | None = None

    def consider(candidate: list[int]) -> None:
        nonlocal best
        if best is None or len(candidate) < len(best):
            best = candidate

    for ti, t in enumerate(machine.transitions):
        if not t.zero_tests or t.source not in reachable:
            continue
        if t.op != OP_NOOP and t.counter in t.zero_tests:
            consider([ti])
            continue
        # BFS over the control graph from target(t) for the nearest
        # transition operating on a tested counter (cycles included).
        seen = {t.target}
        queue: deque[tuple[str, list[int]]] = deque([(t.target, [])])
        found: list[int] | None = None
        while queue and found is None:
            q, path = queue.popleft()
            for ui, u in enumerate(machine.transitions):
                if u.source != q:
                    continue
                if u.op != OP_NOOP and u.counter in t.zero_tests:
                    found = [ti] + path + [ui]
                    break
                if u.target not in seen:
                    seen.add(u.target)
                    queue.append((u.target, path + [ui]))
        if found is not None:
            consider(found)
    return best is None, best


def require_no_zero_tests(machine: CounterMachine) -> CounterMachine:
    """Gate for the monotone fragment; raises when a zero test is present."""
    for i, t in enumerate(machine.transitions):
        if t.zero_tests:
            raise ValueError(
                f"transition {i} carries a zero test; this operation is only "
                "sound for machines without zero tests"
            )
    return machine
