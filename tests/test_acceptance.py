"""End-to-end acceptance checks over the shipped corpus and random suites.

Each criterion is covered by tests named test_criterion_N_*; the session
summary printed after a run has one line per criterion.
"""

from __future__ import annotations

import json
import time
from random import Random

from conftest import MODELS
from gen import (
    random_cmrz_machine,
    random_counter_machine,
    random_fifo_machine,
    random_loop_instance,
)
from oracles import (
    bfs_reach,
    covered_oracle,
    downset_members,
    has_infinite_run,
    is_cover_monotone_from,
    is_monotone,
    pairwise_incomparable,
    ref_counter_leq,
    ref_counter_step,
    ref_ext_prefix_leq,
    ref_fifo_step,
    ref_run,
    simulate_iterations,
)
from paper import (
    Lrrt,
    backward_coverability,
    check_fifo_infinite_iterability,
    downset_union,
    find_antichain_on_run,
    recv_proj,
    resolve_action_run,
    send_proj,
)
from wstskit.cli import main
from wstskit.counter import CounterConfig
from wstskit.cover import (
    DownSet,
    Ideal,
    check_cover_monotone_bounded,
    downset_contains,
    downset_normalize,
    downset_post,
    downset_subset,
    x0_coverability,
)
from wstskit.fifo import Alphabet, FifoConfig
from wstskit.olts import counter_olts, fifo_olts
from wstskit.orders import counter_state_leq, ext_prefix_leq, nat_vec_leq
from wstskit.rrt import build_rrt, decide_boundedness, decide_nontermination
from wstskit.verdict import Outcome


def path(name: str) -> str:
    return str(MODELS / f"{name}.model")


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out, _ = capsys.readouterr()
    return code, json.loads(out)


# -- criterion 1: the three-node tree machine ------------------------------


def test_criterion_1_m1_verdicts_and_tree(m1, capsys):
    started = time.perf_counter()
    code, report = run_json(capsys, "check", "boundedness", path("m1"))
    assert code == 0 and report["verdict"] == "unbounded"
    code, report = run_json(capsys, "check", "termination", path("m1"))
    assert code == 0 and report["verdict"] == "non-terminating"

    olts = fifo_olts(m1.machine)
    rrt = build_rrt(olts)
    assert rrt.complete and len(rrt.nodes) == 3
    a = m1.machine.alphabet
    by_state = {n.state: n for n in rrt.nodes}
    subsumed = by_state[FifoConfig("q0", (a.word("a"),))]
    assert subsumed.subsumed_by == 0
    deadlocked = by_state[FifoConfig("q1", (a.word("b"),))]
    assert deadlocked.mark == "dead" and deadlocked.subsumed_by is None
    assert time.perf_counter() - started < 1.0


# -- criterion 2: finite from one start, witnesses from another ------------
# From (q0, ε) the reduced tree is finite.  From (q2, ε) the reachability set
# is infinite and holds the infinite antichain (q1, c^n b), n >= 1, under the
# prefix order, yet the reduced tree is finite too: the order is a wqo along
# each branch (branch-wqo), not on the whole reachability set.


def test_criterion_2_finite_tree_from_q0(m2):
    started = time.perf_counter()
    rrt = build_rrt(fifo_olts(m2.machine))
    assert rrt.complete and len(rrt.nodes) == 3
    assert time.perf_counter() - started < 5.0


def test_criterion_2_exhausts_budget_from_q2(m2):
    machine = m2.machine
    start = FifoConfig("q2", ("",))
    reach, complete = bfs_reach(machine, start, ref_fifo_step, max_nodes=200)
    assert not complete  # the exact search exhausts its budget of 200
    a = machine.alphabet
    antichain = [FifoConfig("q1", (a.word("c" * n + "b"),)) for n in range(1, 9)]
    assert set(antichain) <= reach
    assert pairwise_incomparable(antichain, ref_ext_prefix_leq)
    # (q2, c) is subsumed by the root and (q1, b) deadlocks
    rrt = build_rrt(fifo_olts(machine, start), budget=200)
    assert rrt.complete and len(rrt.nodes) == 3


def test_criterion_2_antichain_on_run(m2):
    started = time.perf_counter()
    system = fifo_olts(m2.machine, FifoConfig("q2", ("",)))
    found = find_antichain_on_run(system, [6, 3, 2, 4, 6, 6, 3], limit=4)
    assert len(found) >= 2
    assert pairwise_incomparable(found, ref_ext_prefix_leq)
    a = m2.machine.alphabet
    assert FifoConfig("q1", (a.word("cb"),)) in found
    assert FifoConfig("q1", (a.word("ccb"),)) in found
    assert time.perf_counter() - started < 5.0


# -- criterion 3: replay failure on the raw triangle; tame product ---------


def test_criterion_3_triangle_and_product(m3, tmp_path, capsys):
    started = time.perf_counter()
    machine = m3.machine
    labels = resolve_action_run(machine, machine.initial_config(), "!a !b ?a")
    assert labels == [0, 1, 2]
    b_state = FifoConfig("q0", (machine.alphabet.word("b"),))
    last, stuck = fifo_olts(machine).run(labels, b_state)
    assert stuck == 2  # the receive of a is the failing step
    assert last == FifoConfig("q2", (machine.alphabet.word("bab"),))

    out_file = tmp_path / "m4-product.model"
    assert main(["product", path("m4"), "-o", str(out_file)]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, "check", "termination", str(out_file))
    assert code == 0 and report["verdict"] == "terminating"
    code, report = run_json(capsys, "check", "boundedness", str(out_file))
    assert code == 0 and report["verdict"] == "bounded"

    from wstskit.dsl import parse_model

    prod = parse_model(out_file.read_text(encoding="utf-8"), name="m4-product")
    rrt = build_rrt(fifo_olts(prod.machine))
    assert rrt.complete and len(rrt.nodes) == 6
    assert [n.parent for n in rrt.nodes] == [None, 0, 1, 2, 3, 4]
    assert all(n.subsumed_by is None for n in rrt.nodes)
    assert time.perf_counter() - started < 1.0


# -- criterion 4: exact fixpoint facts on the two counterexamples ----------


def test_criterion_4_m6_initial_state_sensitivity(m6):
    target = CounterConfig("q1", (0,))
    ok = x0_coverability(m6.machine, CounterConfig("q0", (0,)), target)
    assert ok.outcome is Outcome.POSITIVE
    blocked = x0_coverability(m6.machine, CounterConfig("q0", (1,)), target)
    assert blocked.outcome is Outcome.NEGATIVE


def test_criterion_4_m7_closure_is_not_inductive(m7):
    machine = m7.machine
    reach, complete = bfs_reach(
        machine, machine.initial_config(), ref_counter_step, max_nodes=100
    )
    assert complete
    y = downset_normalize(Ideal(c.control, tuple(c.values)) for c in reach)
    assert downset_members(machine, y, 2) == {
        CounterConfig("q0", (0,)),
        CounterConfig("q1", (1,)),
        CounterConfig("q1", (0,)),
    }
    closure = y
    while True:
        bigger = downset_union(closure, downset_post(machine, closure))
        if bigger == closure:
            break
        closure = bigger
    extra = CounterConfig("q2", (0,))
    assert downset_contains(closure, extra)
    assert not downset_contains(y, extra)


# -- criterion 5: relative monotonicity and initial-state coverability -----


def test_criterion_5_m8_decisions_with_certificates(m8):
    started = time.perf_counter()
    machine = m8.machine
    x0 = CounterConfig("q0", (0,))
    assert check_cover_monotone_bounded(machine, x0, 5, 6) == (True, None)
    ok, cex = check_cover_monotone_bounded(machine, CounterConfig("q0", (1,)), 5, 6)
    assert not ok and cex is not None
    y1, x1, label, x2 = cex
    # verify the counterexample: the step fires below, nothing above matches
    assert ref_counter_leq(x1, y1)
    assert ref_counter_step(machine, x1, label) == x2
    above, sure = covered_oracle(machine, y1, x2, value_cap=8)
    assert sure and not above

    pos = x0_coverability(machine, x0, CounterConfig("q2", (3,)))
    assert pos.outcome is Outcome.POSITIVE
    end, stuck = counter_olts(machine).run(pos.witness, x0)
    assert stuck is None
    assert end.control == "q2" and nat_vec_leq((3,), end.values)

    neg = x0_coverability(machine, x0, CounterConfig("q1", (1,)))
    assert neg.outcome is Outcome.NEGATIVE
    cert = neg.witness
    assert isinstance(cert, DownSet)
    assert downset_contains(cert, x0)
    assert not downset_contains(cert, CounterConfig("q1", (1,)))
    assert downset_subset(downset_post(machine, cert), cert)
    assert time.perf_counter() - started < 5.0


# -- criterion 6: oracle equivalence on random machines --------------------


def test_criterion_6_backward_vs_forward_oracle():
    rng = Random(60601)
    conclusive = 0
    for _ in range(50):
        machine = random_counter_machine(
            rng, max_states=4, max_counters=2, zero_tests=False
        )
        x0 = machine.initial_config()
        for _ in range(20):
            y = CounterConfig(
                rng.choice(machine.states),
                tuple(rng.randint(0, 4) for _ in machine.counters),
            )
            got = backward_coverability(machine, x0, y)
            covered, sure = covered_oracle(machine, x0, y, value_cap=8)
            if sure:
                assert got == covered, (machine, y)
                conclusive += 1
            elif covered:
                assert got, (machine, y)
    assert conclusive >= 400


def test_criterion_6_tree_verdicts_vs_explicit_oracles():
    rng = Random(60602)
    bounded_hits = nonterm_hits = 0
    for _ in range(50):
        machine = random_cmrz_machine(rng, max_states=4, max_counters=2)
        olts = counter_olts(machine)
        rrt = build_rrt(olts, budget=2000)
        bound = decide_boundedness(rrt)
        nonterm = decide_nontermination(rrt)
        x0 = machine.initial_config()
        _, finite = bfs_reach(machine, x0, ref_counter_step, max_nodes=4000)
        inf_run, inf_known = has_infinite_run(
            machine, x0, ref_counter_step, max_nodes=4000
        )

        if finite:
            assert bound.outcome is not Outcome.POSITIVE, machine
            bounded_hits += 1
        if bound.outcome is Outcome.NEGATIVE:
            assert finite, machine
        if inf_known:
            if nonterm.outcome.value != "inconclusive":
                assert (nonterm.outcome is Outcome.POSITIVE) == inf_run, machine
                nonterm_hits += 1
            if inf_run and rrt.complete:
                assert nonterm.outcome is Outcome.POSITIVE, machine
    assert bounded_hits >= 10 and nonterm_hits >= 10


# -- criterion 7: property suites ------------------------------------------


def test_criterion_7_order_laws():
    rng = Random(70701)
    for _ in range(300):
        n = rng.randint(0, 3)
        u, v, w = (tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(3))
        assert nat_vec_leq(u, u)
        if nat_vec_leq(u, v) and nat_vec_leq(v, u):
            assert u == v
        if nat_vec_leq(u, v) and nat_vec_leq(v, w):
            assert nat_vec_leq(u, w)
    # the prefix laws on the order the FIFO trees use, over one channel
    xy = Alphabet("xy").word("xy")
    for _ in range(300):
        a, b, c = (
            FifoConfig("q0", ("".join(rng.choice(xy) for _ in range(rng.randint(0, 4))),))
            for _ in range(3)
        )
        assert ext_prefix_leq(a, a)
        if ext_prefix_leq(a, b) and ext_prefix_leq(b, a):
            assert a == b
        if ext_prefix_leq(a, b) and ext_prefix_leq(b, c):
            assert ext_prefix_leq(a, c)
    for _ in range(300):
        def cfg():
            return CounterConfig(rng.choice("pq"), (rng.randint(0, 2), rng.randint(0, 2)))
        x, y = cfg(), cfg()
        assert counter_state_leq(x, y) == ref_counter_leq(x, y)
    ab = Alphabet("ab").word("ab")
    for _ in range(300):
        def fcfg():
            return FifoConfig(
                rng.choice("pq"),
                ("".join(ab[rng.randint(0, 1)] for _ in range(rng.randint(0, 3))),),
            )
        x, y = fcfg(), fcfg()
        assert ext_prefix_leq(x, y) == ref_ext_prefix_leq(x, y)


def test_criterion_7_loop_iteration_keeps_growing():
    # every discovered increasing pair on restricted-zero-test machines
    # supports five further rounds of its loop, growing every time
    rng = Random(70702)
    pairs = 0
    for _ in range(70):
        machine = random_cmrz_machine(rng, max_states=3, max_counters=2)
        olts = counter_olts(machine)
        rrt = build_rrt(olts, budget=300)
        for nid, node in list(rrt.subsumed_nodes())[:10]:
            sigma = rrt.loop_labels(nid)
            state = node.state
            for _ in range(5):
                state, stuck = ref_run(machine, state, sigma, ref_counter_step)
                assert stuck is None, (machine, sigma)
            anc = rrt.nodes[node.subsumed_by].state
            if anc != node.state:
                grown, _ = ref_run(machine, node.state, sigma, ref_counter_step)
                assert ref_counter_leq(node.state, grown) and node.state != grown
            pairs += 1
    assert pairs >= 30


def test_criterion_7_fifo_subsumption_word_equations():
    # along any executed loop, per channel, the old content u, the growth v,
    # and the projections s (sent) and r (received) satisfy u.s = r.u.v;
    # when the loop also replays from the grown state, the next growth
    # segment repeats v and v commutes with s
    rng = Random(70703)
    checked = iterable_checked = 0
    for _ in range(60):
        machine = random_fifo_machine(rng, max_states=3, max_transitions=6)
        olts = fifo_olts(machine)
        lrrt = Lrrt(*build_rrt(olts, budget=80))
        for nid, node in list(lrrt.subsumed_nodes())[:10]:
            anc = lrrt.nodes[node.subsumed_by]
            sigma = lrrt.loop_labels(nid)
            for ci, channel in enumerate(machine.channels):
                u = anc.state.contents[ci]
                uv = node.state.contents[ci]
                assert uv[: len(u)] == u
                v = uv[len(u):]
                s = send_proj(machine, sigma, channel)
                r = recv_proj(machine, sigma, channel)
                assert u + s == r + u + v
            checked += 1
            if nid not in lrrt.iterable:
                continue
            again, stuck = ref_run(machine, node.state, sigma, ref_fifo_step)
            assert stuck is None
            for ci, channel in enumerate(machine.channels):
                u = anc.state.contents[ci]
                uv = node.state.contents[ci]
                v = uv[len(u):]
                v2 = again.contents[ci][len(uv):]
                s = send_proj(machine, sigma, channel)
                assert v2 == v
                assert v + s == s + v
            done, _ = simulate_iterations(machine, node.state, sigma, 25)
            assert done == 25
            iterable_checked += 1
    assert checked >= 40 and iterable_checked >= 10


def test_criterion_7_monotone_iff_cover_monotone_everywhere():
    # exhaustive over all systems with up to 3 states, all transition
    # relations, and all orders induced by 0/1 valuations
    for n in range(1, 4):
        states = list(range(n))
        edges = [(i, j) for i in states for j in states]
        for rel_bits in range(1 << len(edges)):
            succs = {i: [] for i in states}
            for k, (i, j) in enumerate(edges):
                if rel_bits >> k & 1:
                    succs[i].append(j)
            for val_bits in range(1 << n):
                value = [val_bits >> i & 1 for i in states]

                def leq(a, b):
                    return value[a] <= value[b]

                mono = is_monotone(states, succs, leq)
                cover_everywhere = all(
                    is_cover_monotone_from(states, succs, leq, x0) for x0 in states
                )
                assert mono == cover_everywhere, (n, rel_bits, val_bits)


def test_criterion_7_invariants_stay_closed(m8):
    rng = Random(70704)
    found = []
    v = x0_coverability(m8.machine, CounterConfig("q0", (0,)), CounterConfig("q1", (1,)))
    assert v.outcome is Outcome.NEGATIVE
    found.append((m8.machine, v.witness))
    for _ in range(30):
        machine = random_counter_machine(rng, max_states=2, max_counters=1, zero_tests=True)
        x0 = machine.initial_config()
        y = CounterConfig(
            rng.choice(machine.states), tuple(rng.randint(1, 3) for _ in machine.counters)
        )
        verdict = x0_coverability(machine, x0, y, budget=400)
        if verdict.outcome is Outcome.NEGATIVE and isinstance(verdict.witness, DownSet):
            if downset_subset(downset_post(machine, verdict.witness), verdict.witness):
                found.append((machine, verdict.witness))
    assert len(found) >= 5
    for machine, cert in found:
        d = cert
        for _ in range(5):
            d = downset_post(machine, d)
            assert downset_subset(d, cert)


# -- criterion 8: loop iterability vs replay simulation --------------------


def test_criterion_8_iterability_matches_simulation():
    rng = Random(80801)
    forever = stuck = 0
    for _ in range(200):
        machine, x, labels, w, s, r = random_loop_instance(rng)
        claimed = check_fifo_infinite_iterability(machine, x, labels)
        done, _ = simulate_iterations(machine, x, labels, 100)
        if done == 100:
            assert claimed, (w, s, r)
            forever += 1
        else:
            assert not claimed, (w, s, r, done)
            stuck += 1
    assert forever >= 20 and stuck >= 20
