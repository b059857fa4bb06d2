"""A uniform view of ordered labelled transition systems.

The tree constructions and antichain search work against this interface
only, so counter machines, FIFO machines, and ad hoc test systems plug in
the same way: an initial state, a successor enumerator, a single-step
function, and a quasi-ordering on states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .counter import CounterConfig, CounterMachine, cm_post, cm_step, counter_config_str
from .fifo import FifoConfig, FifoMachine, fifo_config_str, fifo_post, fifo_step
from .orders import COUNTER_ORDER, EXT_PREFIX_ORDER, Order


@dataclass(frozen=True)
class Olts:
    """Ordered labelled transition system with explicit plumbing.

    ``post(x)`` returns (label, successor) pairs in a deterministic order;
    ``step(x, label)`` returns the successor or None when disabled.
    """

    initial: Any
    post: Callable[[Any], list[tuple[Any, Any]]]
    step: Callable[[Any, Any], Optional[Any]]
    order: Order
    state_fmt: Callable[[Any], str] = field(default=str)
    label_fmt: Callable[[Any], str] = field(default=str)


def counter_olts(machine: CounterMachine, initial: CounterConfig | None = None) -> Olts:
    x0 = initial if initial is not None else machine.initial_config()
    if len(x0.values) != len(machine.counters):
        raise ValueError("initial configuration has a different number of counters")
    return Olts(
        initial=x0,
        post=lambda x: cm_post(machine, x),
        step=lambda x, label: cm_step(machine, x, label),
        order=COUNTER_ORDER,
        state_fmt=counter_config_str,
        label_fmt=machine.describe_transition,
    )


def fifo_olts(machine: FifoMachine, initial: FifoConfig | None = None) -> Olts:
    x0 = initial if initial is not None else machine.initial_config()
    if len(x0.contents) != len(machine.channels):
        raise ValueError("initial configuration has a different number of channels")
    return Olts(
        initial=x0,
        post=lambda x: fifo_post(machine, x),
        step=lambda x, label: fifo_step(machine, x, label),
        order=EXT_PREFIX_ORDER,
        state_fmt=lambda x: fifo_config_str(machine, x),
        label_fmt=machine.describe_transition,
    )
