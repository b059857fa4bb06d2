"""A uniform view of ordered labelled transition systems.

The tree constructions and antichain search work against this interface
only, so counter machines, FIFO machines, and ad hoc test systems plug in
the same way: an initial state, a successor enumerator, the number of
transition labels, and a quasi-ordering on states.  Single steps and runs
are derived from the successor enumerator, so each machine kind's
semantics is written once, in its ``post``.  A ``post`` is a plain
successor function: the machine systems return fresh configurations, and
the tree build keeps one object per distinct state itself.
"""

from __future__ import annotations

from functools import partial
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
    x0 = initial if initial is not None else machine.initial_config()
    if len(x0.values) != len(machine.counters):
        raise ValueError("initial configuration has a different number of counters")
    return Olts(x0, partial(cm_post, machine), len(machine.transitions), COUNTER_ORDER,
                counter_config_str, machine.describe_transition)


def fifo_olts(machine: FifoMachine, initial: FifoConfig | None = None) -> Olts:
    x0 = initial if initial is not None else machine.initial_config()
    if len(x0.contents) != len(machine.channels):
        raise ValueError("initial configuration has a different number of channels")
    return Olts(x0, partial(fifo_post, machine), len(machine.transitions), EXT_PREFIX_ORDER,
                lambda x: fifo_config_str(machine, x), machine.describe_transition)
