"""Every library entry point that takes a start refuses one that its
machine cannot have, with one message per rule, and checks it once.

A counter start is checked by ``CounterMachine.check``, a FIFO start by
``FifoMachine.check`` and its ``Alphabet``'s word rule; both check the
control first.  ``control_reachable`` and ``is_cmrz``, which start from a
control alone, refuse one the machine does not declare.
"""

from __future__ import annotations

import pytest

from conftest import load_model
from paper import (
    UpSet,
    backward_coverability,
    check_fifo_infinite_iterability,
    pre_basis,
    resolve_action_run,
)
from wstskit.counter import (
    OP_INC,
    CounterConfig,
    CounterMachine,
    CounterTransition,
    control_reachable,
    is_cmrz,
)
from wstskit.cover import (
    OMEGA,
    DownSet,
    Ideal,
    check_cover_monotone_bounded,
    downset_closed,
    downset_post,
    x0_coverability,
)
from wstskit.dsl import parse_model
from wstskit.fifo import (
    FifoConfig,
    FifoMachine,
)
from wstskit.olts import counter_olts, fifo_olts
from wstskit.rrt import build_rrt

C, F = CounterConfig, FifoConfig

ENTRY_POINTS = {f.__name__: f for f in (
    counter_olts, fifo_olts, x0_coverability, backward_coverability, downset_post,
    downset_closed, check_cover_monotone_bounded, check_fifo_infinite_iterability,
    resolve_action_run, pre_basis, control_reachable, is_cmrz,
)} | {"CounterMachine.initial_config": CounterMachine.initial_config}

MACHINES = {
    # controls q0 and q1, one counter, no zero test: the input of
    # backward_coverability and pre_basis
    "two_state": CounterMachine(("q0", "q1"), ("c",),
                                (CounterTransition("q0", OP_INC, "c", frozenset(), "q1"),), "q0"),
    "two_counters": CounterMachine(("q0",), ("a", "b"), (), "q0"),
}


def machine(name: str):
    return MACHINES[name] if name in MACHINES else load_model(name).machine


def ideal(*bounds) -> DownSet:
    return DownSet((Ideal("q0", bounds),))


# (entry point, machine, arguments after the machine, exact message); m1 is
# a one-channel FIFO machine, m7 and m8 are one-counter machines with
# controls q0, q1, q2 (and q3), and the caps of check_cover_monotone_bounded
# are (3, 3)
TABLE = [
    # a configuration of another dimension, or with another channel count
    ("counter_olts", "m8", (C("q0", (0, 0)),), "initial dimension 2 != machine dimension 1"),
    ("counter_olts", "m8", (C("q0", ()),), "initial dimension 0 != machine dimension 1"),
    ("CounterMachine.initial_config", "two_counters", ((1,),),
     "initial dimension 1 != machine dimension 2"),
    ("fifo_olts", "m1", (F("q0", ("", "")),), "initial channels 2 != machine channels 1"),
    ("fifo_olts", "m1", (F("q0", ()),), "initial channels 0 != machine channels 1"),
    ("check_fifo_infinite_iterability", "m1", (F("q0", ("", "")), (0,)),
     "initial channels 2 != machine channels 1"),
    ("check_fifo_infinite_iterability", "m1", (F("q0", ("", "")), ()),
     "initial channels 2 != machine channels 1"),
    ("resolve_action_run", "m1", (F("q0", ("", "")), "!a"),
     "initial channels 2 != machine channels 1"),
    ("check_cover_monotone_bounded", "m8", (C("q0", (0, 0)), 3, 3),
     "initial dimension 2 != machine dimension 1"),
    ("downset_post", "m7", (ideal(0, 0),), "ideal dimension 2 != machine dimension 1"),
    ("downset_closed", "m7", (ideal(0, 0),), "ideal dimension 2 != machine dimension 1"),
    ("pre_basis", "two_state", (UpSet((C("q1", ()),)),),
     "basis dimension 0 != machine dimension 1"),
    *((name, m, (x0, y), message)
      for name, m in (("x0_coverability", "m8"), ("backward_coverability", "two_state"))
      for x0, y, message in (
          (C("q0", (0, 0)), C("q1", (1,)), "initial dimension 2 != machine dimension 1"),
          (C("q0", (0,)), C("q1", ()), "target dimension 0 != machine dimension 1"))),
    # a control the machine does not declare, in the cover procedures
    *((name, m, (x0, y), message)
      for name, m in (("x0_coverability", "m8"), ("backward_coverability", "two_state"))
      for x0, y, message in (
          (C("zz", (0,)), C("q1", (1,)), "initial control 'zz' not a machine state"),
          (C("q0", (0,)), C("zz", (0,)), "target control 'zz' not a machine state"),
          (C("zz", (0,)), C("zz", (0,)), "initial control 'zz' not a machine state"))),
    ("check_cover_monotone_bounded", "m8", (C("zz", (0,)), 3, 3),
     "initial control 'zz' not a machine state"),
    ("downset_post", "m7", (DownSet((Ideal("nope", (0,)),)),),
     "ideal control 'nope' not a machine state"),
    ("downset_closed", "m7", (DownSet((Ideal("nope", (0,)),)),),
     "ideal control 'nope' not a machine state"),
    ("pre_basis", "two_state", (UpSet((C("q1", (1,)), C("zz", (0,)))),),
     "basis control 'zz' not a machine state"),
    # a negative value
    ("counter_olts", "m8", (C("q0", (-1,)),), "initial values must be non-negative"),
    ("CounterMachine.initial_config", "two_counters", ((0, -3),),
     "initial values must be non-negative"),
    ("check_cover_monotone_bounded", "m8", (C("q0", (-1,)), 3, 3),
     "initial values must be non-negative"),
    *((name, "two_state", (x0, y), message)
      for name in ("x0_coverability", "backward_coverability")
      for x0, y, message in (
          (C("q0", (-1,)), C("q1", (0,)), "initial values must be non-negative"),
          (C("q0", (0,)), C("q1", (-2,)), "target values must be non-negative"))),
    ("downset_post", "m8", (ideal(-1),), "ideal values must be non-negative"),
    ("downset_closed", "m8", (ideal(-1),), "ideal values must be non-negative"),
    ("pre_basis", "two_state", (UpSet((C("q1", (-1,)),)),),
     "basis values must be non-negative"),
    # a value that is not exactly an int; ω bounds an ideal only
    *(row
      for value in (0.5, True, "a")
      for row in (
          ("counter_olts", "m8", (C("q0", (value,)),), "initial values must be integers"),
          ("CounterMachine.initial_config", "m8", ((value,),), "initial values must be integers"),
          ("check_cover_monotone_bounded", "m8", (C("q0", (value,)), 3, 3),
           "initial values must be integers"),
          ("downset_post", "m8", (ideal(value),), "ideal values must be integers"),
          ("downset_closed", "m8", (ideal(value),), "ideal values must be integers"))),
    *((name, m, (C("q0", x0), C(target, y)), f"{what} values must be integers")
      for value in (0.5, True, "a", OMEGA)
      for name, m, target in (("x0_coverability", "m8", "q2"),
                              ("backward_coverability", "two_state", "q1"))
      for x0, y, what in (((value,), (1,), "initial"), ((0,), (value,), "target"))),
    # a channel word with a letter outside the alphabet, or not a str
    ("fifo_olts", "m1", (F("q0", ("\x07",)),),
     r"initial word of channel 'ch' uses unknown letter '\x07'"),
    ("fifo_olts", "m1", (F("q0", ((7,),)),), "initial word of channel 'ch' uses unknown letter 7"),
    ("fifo_olts", "m1", (F("q0", (("\x00",),)),),
     "initial word of channel 'ch' is not a str: ('\\x00',)"),
    ("fifo_olts", "m1", (F("q0", (7,)),), "initial word of channel 'ch' is not a str: 7"),
    ("check_fifo_infinite_iterability", "m1", (F("q0", ("\x07",)), (0,)),
     r"initial word of channel 'ch' uses unknown letter '\x07'"),
    ("check_fifo_infinite_iterability", "m1", (F("q0", (("\x00",),)), (0,)),
     "initial word of channel 'ch' is not a str: ('\\x00',)"),
    ("resolve_action_run", "m1", (F("q0", (("\x00",),)), "!a"),
     "initial word of channel 'ch' is not a str: ('\\x00',)"),
    # a control the machine does not declare, in every other entry point,
    # checked before the values
    ("counter_olts", "m8", (C("zz", (0,)),), "initial control 'zz' not a machine state"),
    ("counter_olts", "m8", (C("zz", (0, 0)),), "initial control 'zz' not a machine state"),
    ("fifo_olts", "m1", (F("zz", ("",)),), "initial control 'zz' not a machine state"),
    ("fifo_olts", "m1", (F("zz", ("", "")),), "initial control 'zz' not a machine state"),
    ("resolve_action_run", "m1", (F("zz", ("",)), "!a"),
     "initial control 'zz' not a machine state"),
    ("check_fifo_infinite_iterability", "m1", (F("zz", ("",)), (0,)),
     "initial control 'zz' not a machine state"),
    ("check_fifo_infinite_iterability", "m1", (F("zz", ("",)), ()),
     "initial control 'zz' not a machine state"),
    ("control_reachable", "m8", ("zz",), "start control 'zz' not a machine state"),
    ("is_cmrz", "m8", ("zz",), "start control 'zz' not a machine state"),
]


def _ids():
    seen: dict[str, int] = {}
    for name, *_ in TABLE:
        seen[name] = seen.get(name, 0) + 1
        yield f"{name}-{seen[name]}"


@pytest.mark.parametrize("entry, machine_name, args, message", TABLE, ids=list(_ids()))
def test_entry_points_refuse_starts_their_machine_cannot_have(entry, machine_name, args, message):
    # some rows were once answered, or raised a bare error: from q0:(-1)
    # counter_olts answered UNBOUNDED; from q0:(0.5) or q0:(True) m8
    # answered UNBOUNDED, NON-TERMINATING and COVERABLE;
    # backward_coverability answered True for x0 = y = zz:(0); pre_basis
    # raised IndexError for the basis q1:() and answered ↑{q0:(0)} for the
    # bases with zz:(0) and with q1:(-1);
    # check_cover_monotone_bounded answered (True, None) from q0:(-1);
    # fifo_olts passed a channel word that is not a str on to fifo_post,
    # which raised TypeError; check_fifo_infinite_iterability answered False
    # for an empty loop from any start; resolve_action_run resolved "!a" on
    # m1 from a start with two channels; from an undeclared control,
    # counter_olts and fifo_olts gave one dead node, which both tree
    # analyses answered bounded and terminating, is_cmrz answered
    # (True, None) on m8, resolve_action_run said "not executable" and
    # check_fifo_infinite_iterability answered False
    with pytest.raises(ValueError) as err:
        ENTRY_POINTS[entry](machine(machine_name), *args)
    assert str(err.value) == message


def test_entry_points_accept_the_starts_of_their_machine(m2, m8):
    one_counter = machine("two_state")
    assert counter_olts(one_counter, C("q0", (4,))).post(C("q0", (4,))) == [(0, C("q1", (5,)))]
    assert fifo_olts(m2.machine, F("q0", ("",))).initial == m2.machine.initial_config()
    m1 = machine("m1")
    assert resolve_action_run(m1, F("q0", ("",)), "!a") == [0]
    assert check_fifo_infinite_iterability(m1, F("q0", ("",)), (0,))
    assert not check_fifo_infinite_iterability(m1, F("q0", ("",)), ())  # no loop at all
    assert not downset_closed(m8.machine, ideal(OMEGA))  # ω is an ideal bound
    # m8 is monotone from q0:(0), not from q0:(1)
    assert check_cover_monotone_bounded(m8.machine, C("q0", (0,)), 3, 3) == (True, None)
    assert check_cover_monotone_bounded(m8.machine, C("q0", (1,)), 3, 3)[0] is False


ROTATE_WITH_DROP = """\
kind fifo
states q ra rb
channels ch
alphabet a b
q -- ch?a --> q
q -- ch?a --> ra
ra -- ch!a --> q
q -- ch?b --> rb
rb -- ch!b --> q
init q ch:"abaabbaab"
"""

DEC_LATTICE = """\
kind counter
states q
counters a b c
q -- dec(a) --> q
q -- dec(b) --> q
q -- dec(c) --> q
init q (2,3,4)
"""

GROW = """\
kind counter
states q0 q1
counters c0 c1
q0 -- inc(c0) --> q0
q0 -- inc(c1) --> q1
q1 -- inc(c0) --> q1
q1 -- noop --> q0
init q0 (0,0)
"""


@pytest.fixture
def checks(monkeypatch):
    """The ``what`` of every call to either machine kind's ``check``."""
    calls: list[str] = []
    for cls in (CounterMachine, FifoMachine):
        def counted(self, x, what, _check=cls.check):
            calls.append(what)
            return _check(self, x, what)
        monkeypatch.setattr(cls, "check", counted)
    return calls


def test_trees_check_their_start_once(checks):
    lattice, rotate = parse_model(DEC_LATTICE), parse_model(ROTATE_WITH_DROP)
    checks.clear()  # the parser builds each start through initial_config
    rrt = build_rrt(counter_olts(lattice.machine, lattice.initial))
    assert rrt.complete and len(rrt.nodes) == 4025
    assert checks == ["initial"]
    checks.clear()
    rrt = build_rrt(fifo_olts(rotate.machine, rotate.initial))
    assert rrt.complete and len(rrt.nodes) == 2180
    assert checks == ["initial"]


def test_x0_coverability_checks_its_start_and_target_once(checks):
    grow = parse_model(GROW)
    checks.clear()
    verdict = x0_coverability(grow.machine, grow.initial, C("q0", (12, 12)))
    assert verdict.budget_used > 100
    assert checks == ["initial", "target"]
