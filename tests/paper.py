"""The paper's constructions that the tests use and the command line does not.

Exact backward coverability for counter machines without zero tests, the
downset helpers of the hand-worked criteria, action-string runs, the
ω-word test of FIFO loop iterability, the antichain hunt along a run, and
the tree with its iterable nodes.  They reproduce the paper's statements
for the acceptance criteria and serve as oracles beside :mod:`oracles`,
apart from the library code they check.  Each reads only the library's
public records, orders and successor functions.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from wstskit.counter import OP_DEC, OP_INC, CounterConfig, CounterMachine, counter_config_str
from wstskit.cover import DownSet, Ideal, downset_normalize
from wstskit.fifo import RECV, SEND, FifoConfig, FifoMachine, fifo_post
from wstskit.olts import fifo_olts
from wstskit.orders import counter_state_leq
from wstskit.rrt import Rrt

# ---------------------------------------------------------------------------
# Trees.


class Lrrt(Rrt):
    """A reduced reachability tree with its iterable nodes listed, built as
    ``Lrrt(*build_rrt(olts, budget))``."""

    __slots__ = ()

    @property
    def iterable(self) -> tuple[int, ...]:
        """The subsumed nodes, in id order, whose loop from the subsumer
        :meth:`Rrt.repeats`."""
        return tuple(nid for nid, n in self.subsumed_nodes() if self.repeats(n.subsumed_by, nid))


# ---------------------------------------------------------------------------
# Counter machines without zero tests: upward-closed sets and backward
# coverability, sound only where monotony holds.


def require_no_zero_tests(machine: CounterMachine) -> CounterMachine:
    """Gate for the monotone fragment; raises when a zero test is present."""
    for i, t in enumerate(machine.transitions):
        if t.zero_tests:
            raise ValueError(
                f"transition {i} carries a zero test; this operation is only "
                "sound for machines without zero tests"
            )
    return machine


class UpSet(NamedTuple):
    """Upward closure of a minimal antichain of configurations."""

    basis: tuple[CounterConfig, ...]

    def show(self) -> str:
        return "↑{" + ", ".join(counter_config_str(b) for b in self.basis) + "}"


def upset_normalize(configs: Iterable[CounterConfig]) -> UpSet:
    """Drop duplicates and every configuration above another; sort as
    (control, values)."""
    pool = list(dict.fromkeys(configs))
    keep = [a for a in pool if not any(b is not a and counter_state_leq(b, a) for b in pool)]
    return UpSet(tuple(sorted(keep, key=lambda c: (c.control, c.values))))


def upset_contains(u: UpSet, x: CounterConfig) -> bool:
    return any(counter_state_leq(b, x) for b in u.basis)


def pre_basis(machine: CounterMachine, u: UpSet) -> UpSet:
    """Minimal basis of the states that reach the up-closure in one step.

    Only for machines without zero tests.  For a basis vector b and a
    transition into its control state: inc(c) lowers component c to
    max(b_c - 1, 0); dec(c) raises it to b_c + 1; a plain move keeps b.
    """
    require_no_zero_tests(machine)
    for b in u.basis:
        machine.check(b, "basis")
    preds = []
    for b in u.basis:
        for t in machine.transitions:
            if t.target != b.control:
                continue
            values = list(b.values)
            if t.op == OP_INC:
                ci = machine.counter_index(t.counter)
                values[ci] = max(values[ci] - 1, 0)
            elif t.op == OP_DEC:
                ci = machine.counter_index(t.counter)
                values[ci] = values[ci] + 1
            preds.append(CounterConfig(t.source, values))
    return upset_normalize(preds)


def backward_coverability(
    machine: CounterMachine, x0: CounterConfig, y: CounterConfig
) -> bool:
    """Exact coverability for machines without zero tests.

    Saturates the backward sequence I, I ∪ pre(I), ... to its fixpoint
    (bases compared as canonical antichains; termination is guaranteed by
    the well-ordering of counter vectors) and answers whether x0 lies in
    the final upward-closed set.  Raises ValueError as
    ``x0_coverability`` does on configurations the machine lacks.
    """
    require_no_zero_tests(machine)
    machine.check(x0, "initial")
    machine.check(y, "target")
    basis = upset_normalize([y])
    while True:
        if upset_contains(basis, x0):
            return True
        bigger = upset_normalize(basis.basis + pre_basis(machine, basis).basis)
        if bigger == basis:
            return False
        basis = bigger


def downset_union(d1: DownSet, d2: DownSet) -> DownSet:
    return downset_normalize(d1.ideals + d2.ideals)


def downset_of_config(x: CounterConfig) -> DownSet:
    return DownSet((Ideal(x.control, x.values),))


# ---------------------------------------------------------------------------
# FIFO machines: action-string runs, projections and loop iterability.

_ACTION_RE = re.compile(r"^(\w+)?([!?])(\w+)$")


def resolve_action_run(
    machine: FifoMachine, x0: FifoConfig, actions: str | Sequence[str]
) -> list[int]:
    """Resolve an action-string run like ``"!c !b ?c"`` to transition labels.

    The channel may be omitted on single-channel machines.  Resolution
    requires exactly one transition sequence that executes the whole action
    string; zero or several are errors.  One forward pass over the actions,
    with no backtracking, keeps per reached configuration the number of
    label sequences that reach it, capped at 2, and the first of them.
    Raises ValueError on an x0 that ``FifoMachine.check`` refuses.
    """
    machine.check(x0, "initial")
    if isinstance(actions, str):
        tokens = actions.split()
    else:
        tokens = list(actions)
    parsed = []
    for tok in tokens:
        m = _ACTION_RE.match(tok)
        if not m:
            raise ValueError(f"bad action token {tok!r}")
        ch, kind, letter = m.groups()
        if ch is None:
            if len(machine.channels) != 1:
                raise ValueError(f"action {tok!r} omits the channel on a multi-channel machine")
            ch = machine.channels[0]
        parsed.append((ch, kind, machine.alphabet.letter(letter)))

    spelled = [(t.channel, t.kind, t.letter) for t in machine.transitions]
    reached: dict[FifoConfig, tuple[int, list[int]]] = {x0: (1, [])}
    for action in parsed:
        after: dict[FifoConfig, tuple[int, list[int]]] = {}
        for x, (count, labels) in reached.items():
            for label, y in fifo_post(machine, x):
                if spelled[label] != action:
                    continue
                seen, first = after.setdefault(y, (0, labels + [label]))
                after[y] = (min(seen + count, 2), first)
        reached = after
    resolutions = sum(count for count, _ in reached.values())
    if not resolutions:
        raise ValueError("action run is not executable")
    if resolutions > 1:
        raise ValueError("action run is ambiguous; pass transition labels instead")
    return next(iter(reached.values()))[1]


def _proj(machine: FifoMachine, labels: Iterable[int], channel: str, kind: str) -> str:
    picked = (machine.transitions[label] for label in labels)
    return "".join(t.letter for t in picked if t.channel == channel and t.kind == kind)


def send_proj(machine: FifoMachine, labels: Iterable[int], channel: str) -> str:
    """Word of letters sent on ``channel`` along the label sequence."""
    return _proj(machine, labels, channel, SEND)


def recv_proj(machine: FifoMachine, labels: Iterable[int], channel: str) -> str:
    """Word of letters received on ``channel`` along the label sequence."""
    return _proj(machine, labels, channel, RECV)


def _omega_prefix(head: str, period: str, n: int) -> str:
    out = head
    while len(out) < n:
        out += period
    return out[:n]


def check_fifo_infinite_iterability(
    machine: FifoMachine, x: FifoConfig, labels: Sequence[int]
) -> bool:
    """Decide whether the loop ``labels`` can be iterated forever from x.

    True iff the sequence fires from x, returns to x's control state, and
    for every channel either nothing is received, or the receive
    projection is no longer than the send projection and the eventually
    periodic words w_c·send^ω and recv^ω coincide.  The ω-equation is
    decided on a prefix of length |w_c| + |send|·|recv| + |send| + |recv|,
    which is safe by periodicity.  A sequence that does not fire, or that
    ends in a different control state (so a second iteration is
    impossible), yields False, and so does the empty sequence, which is
    no loop at all.  Raises ValueError on an x that ``fifo_olts``
    refuses, whatever the labels.
    """
    final, stuck = fifo_olts(machine, x).run(labels)
    if not labels or stuck is not None or final.control != x.control:
        return False
    for ci, ch in enumerate(machine.channels):
        s = send_proj(machine, labels, ch)
        r = recv_proj(machine, labels, ch)
        if not r:
            continue
        if len(r) > len(s):
            return False
        w = x.contents[ci]
        n = len(w) + len(s) * len(r) + len(s) + len(r)
        if _omega_prefix(w + s, s, n) != _omega_prefix(r, r, n):
            return False
    return True


# ---------------------------------------------------------------------------
# Antichains along a run.


def find_antichain_on_run(system, labels: Sequence, limit: int) -> list:
    """Greedy hunt for pairwise-incomparable states along a run.

    The run is replayed from the system's initial state; all visited states
    (initial state included) are scanned left to right, and a state is kept
    when it is incomparable with everything kept so far, stopping once
    ``limit`` states are kept.  The result is maximal in the sense that no
    state visited later in the run could be added, not a globally largest
    antichain.  Runs whose visited states form a chain yield ``[]``; fewer
    than two kept states means there is no antichain worth reporting.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    leq = system.order.leq
    visited = [system.initial]
    for i, label in enumerate(labels):
        nxt = system.step(visited[-1], label)
        if nxt is None:
            raise ValueError(f"run not executable: stuck at index {i}")
        visited.append(nxt)
    kept: list = []
    for s in visited:
        if len(kept) >= limit:
            break
        if all(not leq(k, s) and not leq(s, k) for k in kept):
            kept.append(s)
    return kept if len(kept) >= 2 else []
