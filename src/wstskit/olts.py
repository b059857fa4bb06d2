"""A uniform view of ordered labelled transition systems.

The tree constructions and antichain search work against this interface
only, so counter machines, FIFO machines, and ad hoc test systems plug in
the same way: an initial state, a successor enumerator, the number of
transition labels, and a quasi-ordering on states.  Single steps and runs
are derived from the successor enumerator, so each machine kind's
semantics is written once, in its ``post``.

The counter and FIFO systems return one object per distinct
configuration: each keeps a dict from each control to a dict from
``values`` or ``contents`` to the initial configuration or the first
successor built with that data, and its ``post`` hands that object out
again for an equal successor.  Sharing is the system ``post``'s job
alone: a direct call to ``cm_post`` or ``fifo_post`` returns fresh
objects.  A tree build meets most configurations many times, so this
saves storing a copy each time, and lets the build reuse the successor
list of a state object it expands again.  Configurations are frozen, so
sharing them is safe.  Two systems built from one machine share nothing.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .counter import CounterConfig, CounterMachine, cm_post, counter_config_str
from .fifo import FifoConfig, FifoMachine, fifo_config_str, fifo_post
from .orders import COUNTER_ORDER, EXT_PREFIX_ORDER, Order


class Olts(NamedTuple):
    """Ordered labelled transition system with explicit plumbing.

    ``post(x)`` returns (label, successor) pairs in a deterministic order;
    the labels are ``0 .. labels - 1``.
    """

    initial: Any
    post: Callable[[Any], list[tuple[Any, Any]]]
    labels: int
    order: Order
    state_fmt: Callable[[Any], str] = str
    label_fmt: Callable[[Any], str] = str

    def step(self, x: Any, label: int) -> Optional[Any]:
        """The successor of x by ``label``, or None when it is disabled.

        Raises ValueError on a label outside ``0 .. labels - 1``.
        """
        if label not in range(self.labels):
            raise ValueError(f"unknown transition label {label}")
        return next((y for fired, y in self.post(x) if fired == label), None)

    def run(self, labels: Iterable[int], x: Any = None) -> tuple[Any, Optional[int]]:
        """Fold ``step`` over a label sequence from x (default: the initial
        state).  Returns ``(final, None)``, or ``(last, i)`` where ``i`` is
        the first index at which the run got stuck."""
        if x is None:
            x = self.initial
        for i, label in enumerate(labels):
            nxt = self.step(x, label)
            if nxt is None:
                return x, i
            x = nxt
        return x, None


def counter_olts(machine: CounterMachine, initial: CounterConfig | None = None) -> Olts:
    return _machine_olts(machine, initial, "values", "counters", cm_post, COUNTER_ORDER,
                         counter_config_str)


def fifo_olts(machine: FifoMachine, initial: FifoConfig | None = None) -> Olts:
    return _machine_olts(machine, initial, "contents", "channels", fifo_post, EXT_PREFIX_ORDER,
                         lambda x: fifo_config_str(machine, x))


def _machine_olts(machine, initial, field, signature, post, order, state_fmt) -> Olts:
    """The system of a machine from ``initial`` (default: its initial
    configuration), whose ``field`` has one entry per ``signature`` name."""
    x0 = initial if initial is not None else machine.initial_config()
    data = attrgetter(field)
    if len(data(x0)) != len(getattr(machine, signature)):
        raise ValueError(f"initial configuration has a different number of {signature}")
    # one object per distinct configuration, by control then data; the initial
    # control need not be declared (it then has no transitions)
    seen = {q: {} for q in machine.states}
    seen.setdefault(x0.control, {})[data(x0)] = x0

    def shared_post(x):
        return [(label, seen[y.control].setdefault(data(y), y)) for label, y in post(machine, x)]

    return Olts(x0, shared_post, len(machine.transitions), order, state_fmt,
                machine.describe_transition)
