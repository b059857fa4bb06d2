"""Reduced reachability trees and the tree-based verdicts."""

from __future__ import annotations

import gc
import itertools
import math
from collections import Counter
from random import Random

import pytest

from conftest import load_model
from gen import (
    random_cmrz_machine,
    random_counter_machine,
    random_fifo_machine,
    renamed,
    shuffled,
)
from oracles import (
    bfs_reach,
    has_infinite_run,
    ref_boundedness_witness,
    ref_counter_leq,
    ref_counter_step,
    ref_ext_prefix_leq,
    ref_fifo_step,
    ref_rrt,
    ref_run,
)
from wstskit.counter import (
    OP_DEC,
    OP_INC,
    OP_NOOP,
    CounterConfig,
    CounterMachine,
    CounterTransition,
)
from wstskit.dsl import parse_model
from wstskit.fifo import RECV, SEND, Alphabet, FifoConfig, FifoMachine, FifoTransition
from wstskit.olts import Olts, counter_olts, fifo_olts
from wstskit.orders import Order
from wstskit.rrt import (
    DEAD,
    LIVE,
    Rrt,
    build_lrrt,
    build_rrt,
    decide_boundedness,
    decide_nonterm_by_iterable,
    decide_nontermination,
    export_dot,
)
from wstskit.verdict import Outcome


def cm(states, counters, trans, initial="q0"):
    return CounterMachine(tuple(states), tuple(counters), tuple(trans), initial)


def t(src, op, counter, tgt, zero=()):
    return CounterTransition(src, op, counter, frozenset(zero), tgt)


def test_m1_tree_shape(m1):
    olts = fifo_olts(m1.machine)
    rrt = build_rrt(olts)
    assert rrt.complete and len(rrt.nodes) == 3
    root, na, nb = rrt.nodes
    assert root.mark == LIVE and root.parent is None
    a = m1.machine.alphabet
    assert na.state == FifoConfig("q0", (a.word("a"),))
    assert na.mark == DEAD and na.subsumed_by == 0
    assert nb.state == FifoConfig("q1", (a.word("b"),))
    assert nb.mark == DEAD and nb.subsumed_by is None  # deadlock, not subsumed
    assert rrt.ancestor_ids(2) == [0]
    assert rrt.path_labels(1) == [0] and rrt.path_labels(2) == [1]
    assert rrt.loop_labels(1) == [0]
    with pytest.raises(ValueError):
        rrt.loop_labels(2)


def test_m2_from_q2_completes(m2):
    olts = fifo_olts(m2.machine, FifoConfig("q2", ("",)))
    rrt = build_rrt(olts, budget=200)
    assert rrt.complete and len(rrt.nodes) == 3
    assert [n.subsumed_by for n in rrt.nodes] == [None, None, 0]
    bound = decide_boundedness(rrt)
    assert bound.outcome is Outcome.POSITIVE and bound.witness == (0, 2)
    nonterm = decide_nontermination(rrt)
    assert nonterm.outcome is Outcome.POSITIVE and nonterm.witness == (0, 2)
    assert nonterm.caveats  # strict pair, nothing asserted


def tree_by_path(rrt: Rrt) -> dict:
    """build_rrt's tree in the shape ref_rrt returns: label paths fix parents."""
    paths = [tuple(rrt.path_labels(i)) for i in range(len(rrt.nodes))]
    assert len(set(paths)) == len(paths)
    return {
        paths[i]: (
            n.state,
            None if n.subsumed_by is None else paths[n.subsumed_by],
            n.mark == DEAD and n.subsumed_by is None,
        )
        for i, n in enumerate(rrt.nodes)
    }


# rotate-with-drop: the word rotates letter by letter and an 'a' may be
# dropped, so branches run deep and subsumers sit far above their nodes
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
init q ch:"abaab"
"""


@pytest.mark.parametrize(
    "name, start",
    [("m2", "q2"), ("m2", "q0"), ("m1", "q0"), pytest.param("rotate", None, id="rotate-abaab")],
)
def test_rrt_matches_textbook_unfolding(name, start):
    # node for node against the definition: states, parents, subsumers, deadlocks
    if start is None:
        mf = parse_model(ROTATE_WITH_DROP, name=name)
        machine, x0 = mf.machine, mf.initial
    else:
        machine = load_model(name).machine
        x0 = FifoConfig(start, tuple("" for _ in machine.channels))
    rrt = build_rrt(fifo_olts(machine, x0), budget=200)
    assert rrt.complete
    want = ref_rrt(machine, x0, ref_fifo_step, ref_ext_prefix_leq, max_nodes=200)
    assert tree_by_path(rrt) == want
    if start is None:
        # the subsumer is found by walking up from the parent: pin a deep walk
        rises = [len(rrt.ancestor_ids(i)) - len(rrt.ancestor_ids(n.subsumed_by))
                 for i, n in rrt.subsumed_nodes()]
        assert len(rrt.nodes) == 70 and max(rises) == 10


def assert_trees_match_textbook(machines, make_olts, step, leq):
    compared = bushy = 0
    for machine in machines:
        rrt = build_rrt(make_olts(machine), budget=300)
        if not rrt.complete:
            continue
        want = ref_rrt(machine, machine.initial_config(), step, leq, max_nodes=300)
        assert tree_by_path(rrt) == want, machine
        compared += 1
        bushy += len(want) >= 5
    assert compared >= 150 and bushy >= 40


def seeded_fifo_machines():
    rng = Random(20261018)
    return (random_fifo_machine(rng, max_transitions=10) for _ in range(200))


def seeded_counter_machines():
    rng = Random(20261022)
    return (
        random_counter_machine(rng, max_counters=3, max_transitions=8, zero_tests=True)
        for _ in range(200)
    )


def test_rrt_matches_textbook_unfolding_on_random_fifo_machines():
    assert_trees_match_textbook(
        seeded_fifo_machines(), fifo_olts, ref_fifo_step, ref_ext_prefix_leq
    )


def test_rrt_matches_textbook_unfolding_on_random_counter_machines():
    # zero tests included: the counter order skips its signature check and
    # successors come from the per-machine index, and the tree must not move
    assert_trees_match_textbook(
        seeded_counter_machines(), counter_olts, ref_counter_step, ref_counter_leq
    )


@pytest.mark.parametrize(
    "machines, make_olts",
    [(seeded_counter_machines, counter_olts), (seeded_fifo_machines, fifo_olts)],
    ids=["counter", "fifo"],
)
def test_post_runs_at_most_twice_per_distinct_state_on_random_machines(machines, make_olts):
    # the machine systems return fresh configurations; the build shares them
    shared = expanded_again = 0
    for machine in machines():
        olts, calls = counting(make_olts(machine))
        rrt = build_rrt(olts, budget=300)
        if not rrt.complete:
            continue
        expanded = assert_post_runs_at_most_twice(rrt, calls)
        shared += len({n.state for n in rrt.nodes}) < len(rrt.nodes)
        expanded_again += max(expanded.values()) > 1
    # equal states meet in many trees, and in some a state is expanded again
    assert shared >= 40 and expanded_again >= 10


def cut_tree_facts(rrt: Rrt) -> list:
    return [(n.state, n.parent, n.label, n.subsumed_by) for n in rrt.nodes]


@pytest.mark.parametrize("kind", ["counter", "fifo"])
def test_budget_cut_trees_are_prefixes_of_the_complete_tree(kind):
    # every budget, including those that stop in the middle of a node's children
    rng = Random(20261101)
    compared = 0
    for _ in range(100):
        if kind == "counter":
            machine = random_counter_machine(rng, max_states=3, max_transitions=12, zero_tests=True)
            olts = counter_olts(machine)
        else:
            olts = fifo_olts(random_fifo_machine(rng, max_states=3, max_transitions=12))
        full = build_rrt(olts, budget=300)
        if not full.complete:
            continue
        want = cut_tree_facts(full)
        for b in range(1, len(want) + 1):
            cut = build_rrt(olts, budget=b)
            assert cut_tree_facts(cut) == want[:b], (olts, b)
            assert cut.complete == (b >= len(want))
        compared += len(want) > 5
    assert compared >= 25


@pytest.mark.parametrize("kind", ["counter", "fifo"])
def test_systems_share_equal_configurations(kind):
    # both machines reach p:(1,1) / p:("a","b") along two different branches
    if kind == "counter":
        machine = cm(
            ["q", "l", "r", "p"], ["a", "b"],
            [t("q", OP_INC, "a", "l"), t("l", OP_INC, "b", "p"),
             t("q", OP_INC, "b", "r"), t("r", OP_INC, "a", "p")],
            initial="q",
        )
        make = counter_olts
    else:
        a, b = Alphabet("ab").word("ab")
        send = [
            FifoTransition("q", "c1", SEND, a, "l"), FifoTransition("l", "c2", SEND, b, "p"),
            FifoTransition("q", "c2", SEND, b, "r"), FifoTransition("r", "c1", SEND, a, "p"),
        ]
        machine = FifoMachine(("q", "l", "r", "p"), ("c1", "c2"), Alphabet("ab"), tuple(send), "q")
        make = fifo_olts
    olts = make(machine)
    left, stuck_left = olts.run([0, 1])
    right, stuck_right = olts.run([2, 3])
    assert stuck_left is None and stuck_right is None
    # the system's post is a plain successor function: equal, fresh objects
    assert left == right and left is not right
    # the tree holds one object for p, reached on both branches
    tree = build_rrt(olts)
    ends = [n.state for n in tree.nodes if n.state.control == "p"]
    assert ends == [left, left] and ends[0] is ends[1]
    # a second build shares no object with the first but the initial state
    again = build_rrt(olts)
    assert [n.state for n in again.nodes] == [n.state for n in tree.nodes]
    ids = {id(n.state) for n in tree.nodes} & {id(n.state) for n in again.nodes}
    assert ids == {id(olts.initial)}


def lattice(kind: str, sizes: tuple[int, ...]):
    """A dec-lattice (kind "counter") or a receive-lattice ("fifo"): one
    control q0 and per size a counter c<i> started at it, with a transition
    that decrements it, or a channel c<i> started with that many a's, with
    a transition that receives an a.  Every order of the steps is one
    branch, so states repeat across branches, and nothing is subsumed.
    Returns the system, its machine, and the reference stepper and order."""
    names = tuple(f"c{i}" for i in range(1, len(sizes) + 1))
    if kind == "counter":
        machine = cm(["q0"], names, [t("q0", OP_DEC, c, "q0") for c in names])
        olts = counter_olts(machine, CounterConfig("q0", sizes))
        return olts, machine, ref_counter_step, ref_counter_leq
    a = Alphabet("a").letter("a")
    recv = tuple(FifoTransition("q0", c, RECV, a, "q0") for c in names)
    machine = FifoMachine(("q0",), names, Alphabet("a"), recv, "q0")
    olts = fifo_olts(machine, FifoConfig("q0", [a * n for n in sizes]))
    return olts, machine, ref_fifo_step, ref_ext_prefix_leq


@pytest.mark.parametrize("kind", ["counter", "fifo"])
def test_tree_holds_one_object_per_distinct_state(kind):
    rrt = build_rrt(lattice(kind, (2, 3))[0])
    assert rrt.complete and len(rrt.nodes) == 34
    distinct = {n.state for n in rrt.nodes}
    assert len(distinct) == 12
    assert len({id(n.state) for n in rrt.nodes}) == len(distinct)


def counting(olts: Olts) -> tuple[Olts, Counter]:
    """The system with a post that counts its calls per state."""
    calls = Counter()

    def post(x):
        calls[x] += 1
        return olts.post(x)

    return olts._replace(post=post), calls


def assert_post_runs_at_most_twice(rrt: Rrt, calls: Counter) -> Counter:
    """On a complete tree: one object per distinct state, and ``calls[x] ==
    min(k, 2)`` for a state expanded k times.  Returns the expansion counts."""
    assert len({id(n.state) for n in rrt.nodes}) == len({n.state for n in rrt.nodes})
    expanded = Counter(n.state for n in rrt.nodes if n.subsumed_by is None)
    assert calls.keys() == expanded.keys()
    assert all(calls[x] == min(k, 2) for x, k in expanded.items())
    return expanded


@pytest.mark.parametrize(
    "kind, sizes, nodes", [("counter", (2, 2, 3), 650), ("fifo", (2, 3), 34)], ids=["counter", "fifo"]
)
def test_post_runs_at_most_twice_per_distinct_state(kind, sizes, nodes):
    # states repeat across branches, so most are expanded often
    system, machine, step, leq = lattice(kind, sizes)
    olts, calls = counting(system)
    rrt = build_rrt(olts)
    assert rrt.complete
    expanded = assert_post_runs_at_most_twice(rrt, calls)
    assert len(rrt.nodes) == sum(expanded.values()) == nodes
    assert max(expanded.values()) > 2
    # the same tree as the textbook unfolding, node for node
    want = ref_rrt(machine, olts.initial, step, leq, max_nodes=2000)
    assert tree_by_path(rrt) == want


def ref_counter_leq_plain(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


def test_post_with_fresh_equal_objects():
    # an ad hoc system whose post builds new, equal tuples on every call: the
    # build still keeps one object per distinct state and calls post at most
    # twice on it, and the tree is the textbook one
    def successors(x):
        return [(i, x[:i] + (x[i] - 1,) + x[i + 1:]) for i in range(len(x)) if x[i] > 0]

    def step(_machine, x, label):
        return dict(successors(x)).get(label)

    x0 = (2, 1, 3)
    olts, calls = counting(Olts(x0, successors, 3, Order(leq=ref_counter_leq_plain)))
    rrt = build_rrt(olts)
    assert rrt.complete
    expanded = assert_post_runs_at_most_twice(rrt, calls)
    assert max(expanded.values()) > 2  # equal states, each reached along many branches
    machine = type("Labels", (), {"transitions": range(3)})
    want = ref_rrt(machine, x0, step, ref_counter_leq_plain, max_nodes=2000)
    assert tree_by_path(rrt) == want


@pytest.mark.parametrize(
    "enabled, fail_at", [(True, None), (False, None), (True, 3)], ids=["enabled", "disabled", "raising"]
)
def test_build_pauses_the_cyclic_collector(enabled, fail_at):
    # nodes link by int id, so the build makes no reference cycles and runs
    # with the cyclic collector paused; it leaves the collector as it found
    # it, also when post raises in the middle of the build
    system = lattice("counter", (2, 2))[0]
    seen = []

    def post(x):
        seen.append(gc.isenabled())
        if len(seen) == fail_at:
            raise RuntimeError("post failed")
        return system.post(x)

    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fail_at is None:
            assert build_rrt(system._replace(post=post)).complete
        else:
            with pytest.raises(RuntimeError, match="post failed"):
                build_rrt(system._replace(post=post))
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert after is enabled
    assert seen and not any(seen)


@pytest.mark.parametrize("kind", ["counter", "fifo"])
def test_undeclared_initial_control_gives_one_dead_node(kind):
    if kind == "counter":
        machine = cm(["q0"], ["c"], [t("q0", OP_INC, "c", "q0")])
        olts = counter_olts(machine, CounterConfig("zz", (0,)))
    else:
        machine = FifoMachine(("q0",), ("ch",), Alphabet("a"),
                              (FifoTransition("q0", "ch", SEND, Alphabet("a").letter("a"), "q0"),),
                              "q0")
        olts = fifo_olts(machine, FifoConfig("zz", ("",)))
    rrt = build_rrt(olts)
    assert rrt.complete and len(rrt.nodes) == 1
    root = rrt.nodes[0]
    assert root.mark == DEAD and root.subsumed_by is None and root.state is olts.initial


def test_boundedness_verdict_and_caveats(m1):
    olts = fifo_olts(m1.machine)
    rrt = build_rrt(olts)
    v = decide_boundedness(rrt)
    assert v.outcome is Outcome.POSITIVE and v.witness == (0, 1)
    assert v.caveats and "strict" in v.caveats[0]
    assert not decide_boundedness(rrt, strict_asserted=True).caveats
    assert v.budget_used == 3


def test_budget_exhaustion_is_inconclusive():
    loop = cm(["q0", "q1"], ["c"], [t("q0", OP_NOOP, None, "q1"), t("q1", OP_NOOP, None, "q0")])
    olts = counter_olts(loop)
    small = build_rrt(olts, budget=2)
    assert not small.complete
    assert decide_boundedness(small).outcome is Outcome.INCONCLUSIVE
    assert decide_nontermination(small).outcome is Outcome.INCONCLUSIVE
    with pytest.raises(ValueError):
        build_rrt(olts, budget=0)


def test_noop_cycle_closes_with_equality():
    loop = cm(["q0", "q1"], ["c"], [t("q0", OP_NOOP, None, "q1"), t("q1", OP_NOOP, None, "q0")])
    olts = counter_olts(loop)
    rrt = build_rrt(olts, budget=10)
    assert rrt.complete and len(rrt.nodes) == 3
    bound = decide_boundedness(rrt)
    assert bound.outcome is Outcome.NEGATIVE and not bound.caveats
    nonterm = decide_nontermination(rrt)
    assert nonterm.outcome is Outcome.POSITIVE and nonterm.witness == (0, 2)
    assert not nonterm.caveats  # equal states: the loop literally repeats


def test_all_runs_deadlock_means_terminating():
    line = cm(["q0", "q1"], ["c"], [t("q0", OP_INC, "c", "q1")])
    olts = counter_olts(line)
    rrt = build_rrt(olts)
    assert decide_nontermination(rrt).outcome is Outcome.NEGATIVE
    assert decide_boundedness(rrt).outcome is Outcome.NEGATIVE


def test_adhoc_olts_step_and_run():
    olts = Olts(
        initial="x",
        post=lambda s: [(0, "y"), (1, "z")] if s == "x" else [(1, "x")] if s == "y" else [],
        labels=2,
        order=Order(leq=lambda a, b: a == b),
    )
    assert olts.step("x", 1) == "z"
    assert olts.step("z", 0) is None  # known label, disabled here
    for label in (2, -1, "a"):
        with pytest.raises(ValueError, match="unknown transition label"):
            olts.step("x", label)
    assert olts.run([0, 1, 1]) == ("z", None)
    assert olts.run([0, 0], "x") == ("y", 1)
    assert olts.run([], "y") == ("y", None)
    with pytest.raises(ValueError):
        olts.run([0, 5])


def test_non_antisymmetric_order_is_rejected():
    sloppy = Order(leq=lambda a, b: True, eq=lambda a, b: a == b)
    olts = Olts(
        initial="x",
        post=lambda s: [(0, "y")] if s == "x" else [],
        labels=1,
        order=sloppy,
    )
    rrt = build_rrt(olts)
    with pytest.raises(ValueError):
        decide_boundedness(rrt)


def test_verdicts_against_exhaustive_oracle_on_random_machines():
    rng = Random(20260823)
    checked_pos = checked_neg = 0
    for _ in range(60):
        m = random_cmrz_machine(rng, max_states=3, max_counters=2, max_transitions=6)
        olts = counter_olts(m)
        rrt = build_rrt(olts, budget=400)
        bound = decide_boundedness(rrt)
        nonterm = decide_nontermination(rrt)
        seen, complete = bfs_reach(m, m.initial_config(), ref_counter_step, max_nodes=3000)
        inf_run, inf_known = has_infinite_run(m, m.initial_config(), ref_counter_step, max_nodes=3000)

        if bound.outcome is Outcome.POSITIVE:
            # replaying the witness loop from the larger state must grow strictly
            aid, nid = bound.witness
            a, n = rrt.nodes[aid].state, rrt.nodes[nid].state
            sigma = rrt.path_labels(nid)[len(rrt.path_labels(aid)):]
            again, stuck = ref_run(m, n, sigma, ref_counter_step)
            assert stuck is None
            assert ref_counter_leq(n, again) and n != again
            assert not complete  # the oracle must not have enumerated a finite reach
            checked_pos += 1
        if bound.outcome is Outcome.NEGATIVE and complete:
            assert len(seen) < 3000
            checked_neg += 1

        if nonterm.outcome is Outcome.NEGATIVE and inf_known:
            assert inf_run is False
        if inf_known and inf_run and rrt.complete:
            assert nonterm.outcome is Outcome.POSITIVE
        if nonterm.outcome is Outcome.POSITIVE:
            aid, nid = nonterm.witness
            n = rrt.nodes[nid].state
            sigma = rrt.path_labels(nid)[len(rrt.path_labels(aid)):]
            again, stuck = ref_run(m, n, sigma, ref_counter_step)
            assert stuck is None and ref_counter_leq(n, again)
    assert checked_pos > 3 and checked_neg > 3


def test_iterable_marking_counter():
    pump = cm(["q0"], ["c"], [t("q0", OP_INC, "c", "q0")])
    olts = counter_olts(pump)
    lrrt = build_lrrt(olts)
    assert len(lrrt.nodes) == 2 and 1 in lrrt.iterable
    v = decide_nonterm_by_iterable(lrrt)
    assert v.outcome is Outcome.POSITIVE and v.witness == (1, (0,))
    assert not v.caveats


def test_iterable_marking_rejects_failing_replay():
    # the loop zero-tests c and then bumps it, so the replay from the
    # larger state fails and the subsumption caveat is doing real work:
    # this machine deadlocks after one round
    tricky = cm(
        ["q0", "q1"], ["c"],
        [t("q0", OP_NOOP, None, "q1", zero=["c"]), t("q1", OP_INC, "c", "q0")],
    )
    olts = counter_olts(tricky)
    lrrt = build_lrrt(olts)
    assert [i in lrrt.iterable for i in range(len(lrrt.nodes))] == [False, False, False]
    assert decide_nonterm_by_iterable(lrrt).outcome is Outcome.INCONCLUSIVE
    sub = decide_nontermination(lrrt)
    assert sub.outcome is Outcome.POSITIVE and sub.caveats
    assert has_infinite_run(tricky, tricky.initial_config(), ref_counter_step, max_nodes=100) == (False, True)


def test_iterable_marking_fifo(m2, m4):
    olts = fifo_olts(m2.machine, FifoConfig("q2", ("",)))
    lrrt = build_lrrt(olts)
    v = decide_nonterm_by_iterable(lrrt)
    assert v.outcome is Outcome.POSITIVE and v.witness == (2, (6,))

    triangle = fifo_olts(m4.machine)
    lrrt2 = build_lrrt(triangle)
    # the b left in the channel shifts the replay off its own footprint
    assert decide_nonterm_by_iterable(lrrt2).outcome is Outcome.INCONCLUSIVE
    assert all(i not in lrrt2.iterable for i in range(len(lrrt2.nodes)))


def test_iterable_never_negative_on_complete_trees():
    line = cm(["q0", "q1"], ["c"], [t("q0", OP_INC, "c", "q1")])
    olts = counter_olts(line)
    lrrt = build_lrrt(olts)
    assert lrrt.complete
    assert decide_nonterm_by_iterable(lrrt).outcome is Outcome.INCONCLUSIVE


def test_export_dot_shape(m1):
    olts = fifo_olts(m1.machine)
    text = export_dot(build_lrrt(olts))
    assert text.startswith("digraph rrt {")
    assert 'n0 [label="q0:(ε)"]' in text
    assert 'n1 [label="q0:(a)", style=dashed, peripheries=2]' in text
    assert 'n0 -> n1 [label="!a"]' in text
    assert "n1 -> n0 [style=dashed, constraint=false]" in text
    assert "budget exhausted" not in text

    loop = cm(["q0", "q1"], ["c"], [t("q0", OP_NOOP, None, "q1"), t("q1", OP_NOOP, None, "q0")])
    colts = counter_olts(loop)
    partial = export_dot(build_rrt(colts, budget=2))
    assert "budget exhausted" in partial


def test_analyses_read_the_system_of_their_tree(m1):
    # a tree keeps the system it unfolded, and the analyses compare states
    # by that system's order (test_export_dot_shape checks that the DOT
    # text shows them by its formatters)
    olts = fifo_olts(m1.machine)
    assert build_rrt(olts).system is olts and build_lrrt(olts).system is olts
    leq, leq_calls = counted(olts.order.leq)
    eq, eq_calls = counted(olts.order.eq)
    counting_olts = olts._replace(order=Order(leq=leq, eq=eq))
    rrt = build_rrt(counting_olts)
    assert rrt.system is counting_olts and len(rrt.nodes) == 3
    leq_calls[0] = 0
    assert decide_boundedness(rrt).outcome is Outcome.POSITIVE
    assert leq_calls[0] > 0
    leq_calls[0] = eq_calls[0] = 0
    assert decide_nontermination(rrt).outcome is Outcome.POSITIVE
    assert (leq_calls[0], eq_calls[0]) == (0, 1)


def test_rrt_helpers_on_random_trees():
    rng = Random(5)
    for _ in range(25):
        m = random_counter_machine(rng, zero_tests=True)
        olts = counter_olts(m)
        rrt = build_rrt(olts, budget=60)
        for i, n in enumerate(rrt.nodes):
            # path labels replay from the root to exactly this node's state
            got, stuck = ref_run(m, olts.initial, rrt.path_labels(i), ref_counter_step)
            assert stuck is None and got == n.state
            if n.subsumed_by is not None:
                aid = n.subsumed_by
                a = rrt.nodes[aid]
                assert aid in rrt.ancestor_ids(i)
                assert ref_counter_leq(a.state, n.state)
                assert rrt.path_labels(aid) + rrt.loop_labels(i) == rrt.path_labels(i)


def random_start(rng: Random, fifo: bool):
    """A random machine and a random start, with counter values or channel
    words up to 10, so that some trees outgrow a budget of 50 nodes; with
    the function that builds their system."""
    if fifo:
        m = random_fifo_machine(rng)
        words = {ch: "".join(rng.choices("ab", k=rng.randint(0, 10))) for ch in m.channels}
        return fifo_olts, m, m.initial_config(words)
    m = random_counter_machine(rng, zero_tests=True)
    return counter_olts, m, m.initial_config([rng.randint(0, 10) for _ in m.counters])


def random_olts(rng: Random, fifo: bool) -> Olts:
    make, m, x0 = random_start(rng, fifo)
    return make(m, x0)


def tree_verdicts(olts: Olts, budget: int) -> tuple:
    """Outcome, witness and budget used of the three tree analyses."""
    rrt = build_rrt(olts, budget)
    return tuple(
        (v.outcome, v.witness, v.budget_used)
        for v in (
            decide_boundedness(rrt),
            decide_nontermination(rrt),
            decide_nonterm_by_iterable(build_lrrt(olts, budget)),
        )
    )


@pytest.mark.parametrize("fifo", [False, True], ids=["counter", "fifo"])
def test_raising_the_tree_budget_keeps_definite_verdicts(fifo):
    rng = Random(20261022 + fifo)
    seen = Counter()
    for _ in range(150):
        olts = random_olts(rng, fifo)
        low, high = tree_verdicts(olts, 50), tree_verdicts(olts, 500)
        for analysis, (was, now) in zip(("boundedness", "termination"), zip(low, high)):
            seen[analysis, was[0], now[0]] += 1
            if was[0] is not Outcome.INCONCLUSIVE:
                assert now[0] is was[0], (analysis, olts.initial, low, high)
    for analysis in ("boundedness", "termination"):
        for outcome in (Outcome.POSITIVE, Outcome.NEGATIVE):
            assert seen[analysis, outcome, outcome] >= 5, seen
    assert any(was is Outcome.INCONCLUSIVE and now is not was for _, was, now in seen), seen


def counted(leq):
    """``leq`` with a call counter: (wrapped, [calls])."""
    calls = [0]

    def wrapped(x, y):
        calls[0] += 1
        return leq(x, y)

    return wrapped, calls


@pytest.mark.parametrize("fifo", [False, True], ids=["counter", "fifo"])
def test_tree_and_boundedness_make_the_pinned_leq_calls(fifo):
    # The benchmark pins the number of order checks.  The build must make
    # those of the textbook root-first scan (ref_rrt, on complete trees),
    # and decide_boundedness those of its strict-ancestor scan, with the
    # same witness, on complete and cut trees alike.
    rng = Random(20261026 + fifo)
    ref_leq, step = (
        (ref_ext_prefix_leq, ref_fifo_step) if fifo else (ref_counter_leq, ref_counter_step)
    )
    seen = Counter()
    for _ in range(200):
        make, machine, x0 = random_start(rng, fifo)
        olts = make(machine, x0)
        leq, calls = counted(olts.order.leq)
        order = olts.order._replace(leq=leq)
        rrt = build_rrt(olts._replace(order=order), 50)
        if rrt.complete:
            want_leq, want_calls = counted(ref_leq)
            ref_rrt(machine, x0, step, want_leq, max_nodes=50)
            assert calls == want_calls, (machine, x0)
        calls[0] = 0
        got = decide_boundedness(rrt).witness
        want_leq, want_calls = counted(ref_leq)
        want = ref_boundedness_witness(rrt.nodes, order._replace(leq=want_leq))
        assert (got, calls) == (want, want_calls), (machine, x0)
        seen[rrt.complete, want is not None] += 1
    assert min(seen[key] for key in ((True, True), (True, False), (False, True))) >= 10, seen


@pytest.mark.parametrize("start, pinned", [((2, 2), 52), ((1, 2, 3), 888), ((3, 1), 36),
                                           ((1, 1, 1, 1), 196)])
def test_dec_lattice_makes_the_closed_form_leq_calls(start, pinned):
    # The benchmark pins the order checks of its dec-lattice trees: nothing
    # is subsumed, so a node at depth |a| (values start - a, reached along
    # multinomial(a) branches) is checked against its |a| ancestors once.
    def multinomial(a):
        return math.factorial(sum(a)) // math.prod(math.factorial(k) for k in a)

    closed_form = sum(sum(a) * multinomial(a)
                      for a in itertools.product(*(range(n + 1) for n in start)))
    assert closed_form == pinned
    counters = [f"c{i}" for i in range(len(start))]
    lattice = cm(["q0"], counters, [t("q0", OP_DEC, c, "q0") for c in counters])
    olts = counter_olts(lattice, CounterConfig("q0", start))
    leq, calls = counted(olts.order.leq)
    order = Order(leq=leq)
    rrt = build_rrt(olts._replace(order=order))
    verdict = decide_nontermination(rrt)
    assert rrt.complete and verdict.outcome is Outcome.NEGATIVE
    assert not any(n.subsumed_by is not None for n in rrt.nodes)
    assert calls == [pinned]


@pytest.mark.parametrize("fifo", [False, True], ids=["counter", "fifo"])
def test_renaming_keeps_tree_verdicts_and_witness_ids(fifo):
    rng = Random(20261023 + fifo)
    positive = 0
    for _ in range(150):
        machine = random_fifo_machine(rng) if fifo else random_counter_machine(rng, zero_tests=True)
        other = renamed(machine, rng)
        make = fifo_olts if fifo else counter_olts
        got, want = tree_verdicts(make(other), 200), tree_verdicts(make(machine), 200)
        assert got == want, (machine, other)
        positive += want[0][0] is Outcome.POSITIVE
    assert positive >= 20, positive


@pytest.mark.parametrize("fifo", [False, True], ids=["counter", "fifo"])
def test_reordering_transitions_keeps_definite_verdicts(fifo):
    # Sibling order does not change the full tree, only where a budget cuts
    # it: a cut tree may turn inconclusive, but no definite verdict turns
    # into the other one, and a complete tree stays the same size.
    rng = Random(20261025 + fifo)
    seen = Counter()
    for _ in range(200):
        make, machine, x0 = random_start(rng, fifo)
        other = shuffled(machine, rng)
        for budget in (50, 300):
            got = []
            for m in (machine, other):
                olts = make(m, x0)
                rrt = build_rrt(olts, budget)
                outcomes = tuple(
                    v.outcome
                    for v in (decide_boundedness(rrt), decide_nontermination(rrt))
                )
                got.append((rrt.complete, len(rrt.nodes), outcomes))
            (complete, size, want), (other_complete, other_size, outcomes) = got
            assert complete == other_complete, (machine, other, budget)
            if complete:
                assert (other_size, outcomes) == (size, want), (machine, other)
            for was, now in zip(want, outcomes):
                seen[complete, was, now] += 1
                assert Outcome.INCONCLUSIVE in (was, now) or was is now, (machine, other, budget)
    for outcome in (Outcome.POSITIVE, Outcome.NEGATIVE):
        assert seen[True, outcome, outcome] >= 20, seen
    assert sum(n for (complete, _, _), n in seen.items() if not complete) >= 20, seen
