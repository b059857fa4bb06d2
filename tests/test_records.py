"""The package's data types without dataclasses: semantics of the immutable
records, value equality of the other classes, and a CLI import that leaves
:mod:`dataclasses` and :mod:`inspect` unloaded."""

from __future__ import annotations

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wstskit
from wstskit.counter import CounterConfig, CounterMachine, CounterTransition
from wstskit.cover import DownSet, Ideal, UpSet
from wstskit.fifo import Dfa, FifoConfig, FifoTransition
from wstskit.olts import Olts
from wstskit.orders import Order
from wstskit.rrt import RrtNode
from wstskit.verdict import AnalysisVerdict, Outcome

LE_EQ = Order(operator.le, operator.eq)

# (type, fields in order, repr)
RECORDS = [
    (CounterTransition,
     dict(source="q0", op="inc", counter="c", zero_tests=frozenset(), target="q1"),
     "CounterTransition(source='q0', op='inc', counter='c', zero_tests=frozenset(), "
     "target='q1')"),
    (CounterConfig, dict(control="q0", values=(0, 2)),
     "CounterConfig(control='q0', values=(0, 2))"),
    (FifoTransition, dict(source="q0", channel="ch", kind="!", letter="\x01", target="q1"),
     "FifoTransition(source='q0', channel='ch', kind='!', letter='\\x01', target='q1')"),
    (FifoConfig, dict(control="q0", contents=("\x00\x01", "")),
     "FifoConfig(control='q0', contents=('\\x00\\x01', ''))"),
    (Ideal, dict(control="q0", bounds=(0,)), "Ideal(control='q0', bounds=(0,))"),
    (DownSet, dict(ideals=(Ideal("q0", (1,)),)),
     "DownSet(ideals=(Ideal(control='q0', bounds=(1,)),))"),
    (UpSet, dict(basis=(CounterConfig("q1", (2,)),)),
     "UpSet(basis=(CounterConfig(control='q1', values=(2,)),))"),
    (AnalysisVerdict,
     dict(outcome=Outcome.POSITIVE, witness=(0, 1), budget_used=3, caveats=("hedge",)),
     "AnalysisVerdict(outcome=<Outcome.POSITIVE: 'positive'>, witness=(0, 1), "
     "budget_used=3, caveats=('hedge',))"),
    (Order, dict(leq=operator.le, eq=operator.eq),
     "Order(leq=<built-in function le>, eq=<built-in function eq>)"),
    (Olts, dict(initial=0, post=list, labels=2, order=LE_EQ, state_fmt=str, label_fmt=repr),
     "Olts(initial=0, post=<class 'list'>, labels=2, order=Order(leq=<built-in function le>, "
     "eq=<built-in function eq>), state_fmt=<class 'str'>, label_fmt=<built-in function repr>)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert {f: getattr(by_position, f) for f in fields} == fields
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert repr(by_position) == text
    first, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(by_position, first, value)
    # _replace copies through the constructor, as NamedTuple's does
    changed = by_position._replace(**{first: "other"})
    assert type(changed) is cls
    assert {f: getattr(changed, f) for f in fields} == {**fields, first: "other"}
    assert by_position._replace() == by_position and by_position._replace(**fields) == by_keyword


def test_record_defaults():
    assert AnalysisVerdict(Outcome.NEGATIVE) == AnalysisVerdict(Outcome.NEGATIVE, None, 0, ())
    assert Order(operator.le).eq((1,), (1,))
    olts = Olts(0, list, 0, LE_EQ)
    assert olts.state_fmt is str and olts.label_fmt is str


def test_plain_classes_compare_by_value():
    def machine():
        return CounterMachine(("q0", "q1"), ("c",), (CounterTransition(
            "q0", "inc", "c", frozenset(), "q1"),), "q0")

    assert machine() == machine() and hash(machine()) == hash(machine())
    assert machine() != CounterMachine(("q0", "q1"), ("c",), (), "q0")
    with pytest.raises(AttributeError):
        machine().name = "renamed"
    assert repr(machine()).startswith("CounterMachine(states=('q0', 'q1'), counters=('c',),")
    with pytest.raises(ValueError, match="initial control 'zz' not declared"):
        CounterMachine(("q0",), (), (), "zz")
    with pytest.raises(AttributeError, match="cannot delete field 'name'"):
        del machine().name
    # a copy validates again and builds its own post_index
    original = machine()
    index = original.post_index
    with pytest.raises(ValueError, match="initial control 'zz' not declared"):
        original._replace(initial="zz")
    copy = original._replace(transitions=())
    assert copy == CounterMachine(("q0", "q1"), ("c",), (), "q0")
    assert copy.post_index == {"q0": [], "q1": []} and original.post_index is index
    # a configuration copied with a list of values holds a tuple
    listed = CounterConfig("q0", (0, 2))._replace(values=[1, 2])
    assert listed.values == (1, 2) and listed == CounterConfig("q0", (1, 2))
    assert hash(listed) == hash(CounterConfig("q0", (1, 2)))
    # unlike a named tuple, a plain class never equals a plain tuple
    assert CounterConfig("q0", ()) != ("q0", ())

    node = RrtNode("s", None, None)
    assert node == RrtNode("s", None, None, "live", None)
    assert node._replace(mark="dead") == RrtNode("s", None, None, "dead", None)
    # slotted, as a tree holds many nodes and configurations
    for small in (node, CounterConfig("q0", ()), FifoConfig("q0", ())):
        assert not hasattr(small, "__dict__")
    dfa = Dfa(("s0",), "s0", frozenset({"s0"}), "!", {})
    assert dfa == Dfa(("s0",), "s0", frozenset({"s0"}), "!", {})
    for mutable in (node, dfa):
        with pytest.raises(TypeError):
            hash(mutable)


def test_cli_import_loads_no_dataclasses():
    # -S keeps site-packages' .pth hooks, which may import anything, out of
    # the measured import chain
    src = Path(wstskit.__file__).resolve().parent.parent
    probe = "import sys, wstskit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
