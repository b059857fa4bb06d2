"""The breadth-first explorer, and the search semantics that the benchmark's
recorded counts depend on."""

from __future__ import annotations

import pytest

from wstskit import cover
from wstskit._explore import Explorer
from wstskit.counter import OP_INC, OP_NOOP, CounterConfig, CounterMachine, CounterTransition
from wstskit.verdict import Outcome


def test_states_are_kept_in_discovery_order():
    ex = Explorer("a")
    assert [ex.add(y, 0, y.upper()) for y in "cbd"] == [1, 2, 3]
    assert ex.states == ["a", "c", "b", "d"]
    assert ex.index == {"a": 0, "c": 1, "b": 2, "d": 3}
    assert ex.via == [None, (0, "C"), (0, "B"), (0, "D")]


def test_add_returns_the_existing_index_of_a_state_seen_before():
    ex = Explorer("a")
    ex.add("b", 0, "first")
    assert ex.add("b", 1, "second") == 1
    assert ex.add("a", 1, "back") == 0
    assert ex.states == ["a", "b"]
    assert ex.via == [None, (0, "first")]


def test_iteration_reaches_states_added_during_the_loop():
    # the doubling and increment graph from 1, capped at 20: every state
    # is taken once, in the order it was found
    ex = Explorer(1)
    taken = []
    for i, x in ex:
        taken.append((i, x))
        for label, y in (("+1", x + 1), ("*2", 2 * x)):
            if y <= 20:
                ex.add(y, i, label)
    assert taken == list(enumerate(ex.states))
    assert sorted(ex.states) == list(range(1, 21))
    assert ex.states[:6] == [1, 2, 3, 4, 6, 5]


def test_path_on_the_start_and_on_a_deep_state():
    ex = Explorer(0)
    for i, x in ex:
        if x < 12:
            ex.add(x + 1, i, f"s{x}")
    assert ex.path(0) == []
    assert ex.path(ex.index[12]) == [f"s{x}" for x in range(12)]
    # with shortcuts, a path is the first one found, so a shortest one:
    # 1, 2, 4, 5, 10, 20, 40
    ex = Explorer(1)
    for i, x in ex:
        for label, y in (("+1", x + 1), ("*2", 2 * x)):
            if y <= 40:
                ex.add(y, i, label)
    assert ex.path(ex.index[40]) == ["+1", "*2", "+1", "*2", "*2", "*2"]


def _grow() -> CounterMachine:
    """q0 pumps c0; each detour through q1 adds one to c1 and pumps c0."""
    t = CounterTransition
    return CounterMachine(
        ("q0", "q1"), ("c0", "c1"),
        (t("q0", OP_INC, "c0", frozenset(), "q0"), t("q0", OP_INC, "c1", frozenset(), "q1"),
         t("q1", OP_INC, "c0", frozenset(), "q1"), t("q1", OP_NOOP, None, frozenset(), "q0")),
        "q0",
    )


@pytest.fixture
def counted(monkeypatch):
    """Count the calls that x0_coverability makes to the two globals of
    cover that the benchmark's tracer rebinds."""
    calls = {"post": 0, "leq": 0}

    def wrap(name, key):
        fn = getattr(cover, name)

        def counting(*args):
            calls[key] += 1
            return fn(*args)

        monkeypatch.setattr(cover, name, counting)

    wrap("cm_post", "post")
    wrap("counter_state_leq", "leq")
    return calls


@pytest.mark.parametrize("case", ["m8-pos", "m8-neg", "m6-reach", "grow-pos", "grow-cut"])
def test_forward_search_takes_one_state_per_round(case, counted, m6, m8):
    # Each round takes one state and tests it against the target once; the
    # state that covers the target is never expanded, and the round that
    # finds the search complete takes none.  So the benchmark records
    # orders.leq_calls == cover.rounds for every cover shape whose search
    # does not complete, and one less for those whose search does.
    q0, q00 = CounterConfig("q0", (0,)), CounterConfig("q0", (0, 0))
    # the last two columns: the rounds whose state is not expanded, and
    # those that take no state; grow:60-60 is a shape of bench/counts.json
    machine, x0, y, budget, outcome, rounds, unexpanded, untested = {
        "m8-pos": (m8.machine, q0, CounterConfig("q2", (3,)), 1000, Outcome.POSITIVE, 4, 1, 0),
        "m8-neg": (m8.machine, q0, CounterConfig("q1", (1,)), 1000, Outcome.NEGATIVE, 76, 0, 0),
        "m6-reach": (m6.machine, CounterConfig("q0", (1,)), CounterConfig("q1", (0,)), 1000,
                     Outcome.NEGATIVE, 2, 1, 1),
        "grow-pos": (_grow(), q00, CounterConfig("q0", (60, 60)), 100_000,
                     Outcome.POSITIVE, 16411, 1, 0),
        "grow-cut": (_grow(), q00, CounterConfig("q0", (60, 60)), 50,
                     Outcome.INCONCLUSIVE, 50, 0, 0),
    }[case]
    v = cover.x0_coverability(machine, x0, y, budget)
    assert (v.outcome, v.budget_used) == (outcome, rounds)
    assert counted["leq"] == rounds - untested
    assert counted["post"] == rounds - unexpanded
