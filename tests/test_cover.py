"""Ideal algebra, down/up-set fixpoints, and initial-state coverability."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from itertools import product as iproduct
from pathlib import Path
from random import Random

import pytest

import wstskit
from gen import random_counter_machine, random_downset, renamed, shuffled
from oracles import (
    bfs_reach,
    covered_oracle,
    downset_members,
    ref_check_cover_monotone_bounded,
    ref_counter_step,
    ref_downset_candidates,
    ref_ideal_member,
    ref_post_downclosed,
    ref_x0_coverability,
)
from paper import (
    backward_coverability,
    downset_of_config,
    downset_union,
    pre_basis,
    upset_contains,
    upset_normalize,
)
from wstskit.counter import (
    OP_DEC,
    OP_INC,
    OP_NOOP,
    CounterConfig,
    CounterMachine,
    CounterTransition,
)
from wstskit.cover import (
    OMEGA,
    DownSet,
    Ideal,
    check_cover_monotone_bounded,
    downset_candidates,
    downset_closed,
    downset_contains,
    downset_normalize,
    downset_post,
    downset_subset,
    entry_str,
    ideal_contains,
    ideal_subset,
    x0_coverability,
)
from wstskit.orders import nat_vec_leq
from wstskit.verdict import Outcome


def cm(states, counters, trans, initial="q0"):
    return CounterMachine(tuple(states), tuple(counters), tuple(trans), initial)


def t(src, op, counter, tgt, zero=()):
    return CounterTransition(src, op, counter, frozenset(zero), tgt)


# q2:(0) is unreachable from q0:(0), and no inductive down-set separates them
PUMP = cm(
    ["q0", "q1", "q2"],
    ["c"],
    [t("q0", OP_INC, "c", "q0"), t("q0", OP_INC, "c", "q1"), t("q1", OP_NOOP, None, "q2", ["c"])],
)


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the test once ``seconds`` have passed, so an
    enumeration that stops yielding fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_entry_and_vec_basics():
    assert entry_str(3) == "3" and entry_str(OMEGA) == "ω"
    assert nat_vec_leq((1, 2), (1, OMEGA))
    assert not nat_vec_leq((OMEGA,), (5,))
    assert nat_vec_leq((), ())


def test_ideal_show_and_membership():
    i = Ideal("q0", (2, OMEGA))
    assert i.show() == "q0:(2,ω)"
    assert ideal_contains(i, CounterConfig("q0", (2, 999)))
    assert not ideal_contains(i, CounterConfig("q0", (3, 0)))
    assert not ideal_contains(i, CounterConfig("q1", (0, 0)))
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 1$"):
        ideal_contains(i, CounterConfig("q0", (2,)))
    assert ideal_subset(Ideal("q0", (1, 3)), i)
    assert not ideal_subset(i, Ideal("q0", (1, 3)))


def test_downset_normalize_is_canonical():
    a, b = Ideal("q0", (1,)), Ideal("q0", (3,))
    d = downset_normalize([a, b, a, Ideal("q1", (OMEGA,))])
    assert d.ideals == (Ideal("q0", (3,)), Ideal("q1", (OMEGA,)))
    assert downset_normalize(d.ideals) == d  # idempotent
    assert d.show() == "{q0:(3), q1:(ω)}"


def test_downset_normalize_preserves_denotation():
    rng = Random(3)
    for _ in range(40):
        m = random_counter_machine(rng)
        raw = [
            Ideal(
                rng.choice(m.states),
                tuple(
                    OMEGA if rng.random() < 0.2 else rng.randint(0, 3)
                    for _ in m.counters
                ),
            )
            for _ in range(rng.randint(1, 4))
        ]
        d = downset_normalize(raw)
        for control in m.states:
            for values in iproduct(range(5), repeat=len(m.counters)):
                x = CounterConfig(control, values)
                assert downset_contains(d, x) == any(
                    ref_ideal_member(i, x) for i in raw
                )


def test_downset_relations_match_enumeration():
    rng = Random(17)
    for _ in range(60):
        m = random_counter_machine(rng)
        d1 = random_downset(rng, m)
        d2 = random_downset(rng, m)
        m1 = downset_members(m, d1, 4)
        m2 = downset_members(m, d2, 4)
        assert downset_subset(d1, d2) == (m1 <= m2)
        assert downset_members(m, downset_union(d1, d2), 4) == (m1 | m2)
        x = CounterConfig(
            rng.choice(m.states), tuple(rng.randint(0, 4) for _ in m.counters)
        )
        assert downset_contains(d1, x) == any(
            ref_ideal_member(i, x) for i in d1.ideals
        )


def test_downset_of_config():
    d = downset_of_config(CounterConfig("q0", (2, 0)))
    assert d.ideals == (Ideal("q0", (2, 0)),)
    assert downset_contains(d, CounterConfig("q0", (1, 0)))
    assert not downset_contains(d, CounterConfig("q0", (2, 1)))


def widened_closure(m: CounterMachine, d: DownSet, cap: int = 2) -> DownSet:
    """Least D above d with post(D) ⊆ D whose finite entries are at most cap:
    iterate d ∪ post(d), raising entries above cap to ω."""
    while True:
        grown = downset_normalize(
            Ideal(i.control, tuple(OMEGA if e > cap else e for e in i.bounds))
            for i in downset_union(d, downset_post(m, d)).ideals
        )
        if grown == d:
            return d
        d = grown


def test_downset_closed_agrees_with_post_inclusion():
    rng = Random(20261018)
    seen = Counter()
    for _ in range(300):
        m = random_counter_machine(rng, max_states=3, zero_tests=True)
        d = random_downset(rng, m, omega_p=0.3)
        if rng.random() < 0.4:
            d = widened_closure(m, d)
        want = downset_subset(downset_post(m, d), d)
        # finite entries are at most 3 (or 2 after widening), so a successor
        # outside d shows up among members with entries at most 5
        members = downset_members(m, d, 5)
        assert (ref_post_downclosed(m, members, 5) <= members) == want, (m, d.show())
        assert downset_closed(m, d) == want, (m, d.show())
        seen[want] += 1
    assert seen[True] >= 20 and seen[False] >= 20, seen


def test_downset_post_denotation_exact():
    rng = Random(20260823)
    for _ in range(50):
        m = random_counter_machine(rng, zero_tests=True)
        d = random_downset(rng, m)
        got = downset_members(m, downset_post(m, d), 3)
        want = ref_post_downclosed(m, downset_members(m, d, 4), 3)
        assert got == want


def test_downset_post_hand_facts(m7):
    m = m7.machine
    assert downset_post(m, DownSet((Ideal("q0", (0,)),))) == DownSet((Ideal("q1", (1,)),))
    # the zero test contributes through the sub-ideal at value 0
    assert downset_post(m, DownSet((Ideal("q1", (1,)),))) == DownSet((Ideal("q2", (0,)),))
    # saturation from the initial closure
    d = downset_of_config(m.initial_config())
    seen = [d]
    while True:
        nxt = downset_union(d, downset_post(m, d))
        if nxt == d:
            break
        d = nxt
        seen.append(d)
    assert [s.show() for s in seen] == [
        "{q0:(0)}",
        "{q0:(0), q1:(1)}",
        "{q0:(0), q1:(1), q2:(0)}",
    ]


def test_closure_of_reach_need_not_be_inductive(m7):
    # the downward closure of the exact reach set from (q0,0)
    m = m7.machine
    reach, complete = bfs_reach(m, m.initial_config(), ref_counter_step, max_nodes=100)
    assert complete and reach == {CounterConfig("q0", (0,)), CounterConfig("q1", (1,))}
    y = downset_normalize(Ideal(c.control, tuple(c.values)) for c in reach)
    assert y == DownSet((Ideal("q0", (0,)), Ideal("q1", (1,))))
    stepped = downset_post(m, y)
    assert downset_contains(stepped, CounterConfig("q2", (0,)))
    assert not downset_subset(stepped, y)


def test_monotone_gate(m8):
    with pytest.raises(ValueError):
        pre_basis(m8.machine, upset_normalize([CounterConfig("q0", (0,))]))
    with pytest.raises(ValueError):
        backward_coverability(
            m8.machine, CounterConfig("q0", (0,)), CounterConfig("q2", (1,))
        )


def test_upset_normalize_minimal_antichain():
    rng = Random(23)
    for _ in range(40):
        configs = [
            CounterConfig(rng.choice(["q0", "q1"]), (rng.randint(0, 3), rng.randint(0, 3)))
            for _ in range(rng.randint(1, 6))
        ]
        u = upset_normalize(configs)
        kept = u.basis
        assert set(kept) <= set(configs)
        for a in kept:
            for b in kept:
                if a != b:
                    assert not (a.control == b.control and nat_vec_leq(a.values, b.values))
        for c in configs:
            assert upset_contains(u, c)
    assert upset_normalize([CounterConfig("q0", (1, 0))]).show() == "↑{q0:(1,0)}"


def test_pre_basis_hand_cases():
    m = cm(
        ["q0", "q1"], ["c"],
        [t("q0", OP_INC, "c", "q1"), t("q1", OP_DEC, "c", "q0"), t("q1", OP_NOOP, None, "q0")],
    )
    up = upset_normalize([CounterConfig("q1", (3,))])
    assert pre_basis(m, up).basis == (CounterConfig("q0", (2,)),)
    up0 = upset_normalize([CounterConfig("q1", (0,))])
    assert pre_basis(m, up0).basis == (CounterConfig("q0", (0,)),)
    upd = upset_normalize([CounterConfig("q0", (2,))])
    # dec into q0 needs one more than the target; the noop needs the same
    assert pre_basis(m, upd).basis == (CounterConfig("q1", (2,)),)


def test_backward_coverability_toys():
    chain = cm(
        ["q0", "q1", "q2"], ["c"],
        [t("q0", OP_INC, "c", "q1"), t("q1", OP_INC, "c", "q2")],
    )
    x0 = CounterConfig("q0", (0,))
    assert backward_coverability(chain, x0, CounterConfig("q2", (2,)))
    assert not backward_coverability(chain, x0, CounterConfig("q2", (3,)))
    assert backward_coverability(chain, x0, CounterConfig("q0", (0,)))
    assert not backward_coverability(chain, x0, CounterConfig("q0", (1,)))


def test_backward_coverability_agrees_with_search_oracle():
    rng = Random(31)
    conclusive = 0
    for _ in range(80):
        m = random_counter_machine(rng, zero_tests=False)
        x0 = m.initial_config()
        y = CounterConfig(
            rng.choice(m.states), tuple(rng.randint(0, 3) for _ in m.counters)
        )
        got = backward_coverability(m, x0, y)
        covered, sure = covered_oracle(m, x0, y, value_cap=8)
        if sure:
            assert got == covered
            conclusive += 1
        elif covered:
            assert got
    assert conclusive > 20


def test_candidate_enumeration_order(m8):
    m = m8.machine
    with deadline(10):
        first = list(islice(downset_candidates(m), 300))
    assert first[0] == DownSet((Ideal("q3", (0,)),))
    assert len(set(first)) == len(first)  # no repeats
    for d in first:
        assert downset_normalize(d.ideals) == d  # canonical antichains only
    assert first[75] == DownSet((Ideal("q0", (0,)), Ideal("q2", (OMEGA,))))


def candidate_bound(d: DownSet) -> int:
    """The smallest bound that d fits, which is the bound that lists it."""
    per_control = Counter(i.control for i in d.ideals)
    finite = [e for i in d.ideals for e in i.bounds if e != OMEGA]
    return max([1, *per_control.values(), *finite])


# The highest bound compared per counter count: the brute force tries every
# subset of (bound + 2)^k vectors.
BRUTE_FORCE_BOUND = {0: 1, 1: 12, 2: 3, 3: 2}


def test_candidates_match_brute_force_enumeration():
    rng = Random(20261019)
    machines = [PUMP]
    # the enumeration reads only the control states and the counter count
    for k in range(4):
        for n in range(1, 4):
            for _ in range(2):
                # shuffled names, so name order and declaration order differ
                states = rng.sample(["q0", "q1", "q10", "q2", "p", "r"], n)
                machines.append(cm(states, [f"c{i}" for i in range(k)], [], states[0]))
    reached = Counter()
    with deadline(30):
        for m in machines:
            k = len(m.counters)
            ref = ref_downset_candidates(m)
            compared = 0
            for d in downset_candidates(m):
                bound = candidate_bound(d)
                if compared == 3000 or bound > BRUTE_FORCE_BOUND[k]:
                    break
                assert d == next(ref), (m.states, k, compared)
                reached[k] = max(reached[k], bound)
                compared += 1
            else:
                assert next(ref, None) is None  # both end at the same point
    assert reached[1] >= 4 and reached[2] >= 3, reached


def separating_candidates(machine, x0, y, count):
    """The certificates among the first ``count`` candidates: those that
    contain x0, exclude y and are inductive.  This is the non-coverability
    semi-procedure that x0_coverability interleaves with its forward
    search, run on its own."""
    return [
        d
        for d in islice(downset_candidates(machine), count)
        if downset_contains(d, x0)
        and not downset_contains(d, y)
        and downset_closed(machine, d)
    ]


def test_noncover_semiproc_budget_and_coverable_target(m8):
    # the certificate search: 10 rounds are too few for the certificate of
    # test_x0_coverability_m8, and a coverable target has no certificate
    m = m8.machine
    x0 = CounterConfig("q0", (0,))
    small = x0_coverability(m, x0, CounterConfig("q1", (1,)), 10)
    assert small.outcome is Outcome.INCONCLUSIVE and small.budget_used == 10
    assert separating_candidates(m, x0, CounterConfig("q2", (1,)), 500) == []


def test_noncover_semiproc_ends_on_machines_without_counters():
    # With no counters every candidate appears at bound 1.  The enumeration
    # once went on to later bounds forever, so the calls run in a child
    # process that the timeout stops instead of hanging the suite.
    script = textwrap.dedent(
        """
        from wstskit.counter import CounterConfig, CounterMachine, CounterTransition
        from wstskit.cover import downset_candidates, x0_coverability

        def noop(src, tgt):
            return CounterTransition(src, "noop", None, frozenset(), tgt)

        m = CounterMachine(("q0", "q1"), (), (noop("q0", "q1"),), "q0")
        print(len(list(downset_candidates(m))))
        m = CounterMachine(("q0", "q1", "q2"), (), (noop("q0", "q1"),), "q0")
        v = x0_coverability(m, CounterConfig("q0", ()), CounterConfig("q2", ()), 50)
        print(v.outcome.value, v.budget_used, [i.control for i in v.witness.ideals])
        """
    )
    src = str(Path(wstskit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    # two controls give 2^2 - 1 candidates; q2 is unreachable
    assert proc.stdout.splitlines() == ["3", "negative 3 ['q0', 'q1']"]


def test_noncover_semiproc_can_miss_unreachable_targets(m7):
    # (q2,0) is unreachable, but any candidate containing the initial
    # closure steps to (q2,0) through the sub-ideal at the zero test,
    # so no inductive certificate exists and the certificate search finds
    # none (x0_coverability answers from its drained forward search)
    m = m7.machine
    reach, complete = bfs_reach(m, m.initial_config(), ref_counter_step, max_nodes=50)
    assert complete
    assert all(c.control != "q2" for c in reach)
    assert separating_candidates(m, m.initial_config(), CounterConfig("q2", (0,)), 400) == []


def test_x0_coverability_m8(m8):
    m = m8.machine
    x0 = CounterConfig("q0", (0,))
    pos = x0_coverability(m, x0, CounterConfig("q2", (3,)))
    assert pos.outcome is Outcome.POSITIVE
    assert pos.witness == (3, 4, 4)
    assert pos.budget_used == 4
    neg = x0_coverability(m, x0, CounterConfig("q1", (1,)))
    assert neg.outcome is Outcome.NEGATIVE
    assert neg.witness == DownSet((Ideal("q0", (0,)), Ideal("q2", (OMEGA,))))
    assert neg.budget_used == 76
    # certificates stay closed under repeated stepping
    d = neg.witness
    for _ in range(5):
        d = downset_post(m, d)
        assert downset_subset(d, neg.witness)


def test_x0_coverability_finite_reach(m6):
    m = m6.machine
    ok = x0_coverability(m, CounterConfig("q0", (0,)), CounterConfig("q1", (0,)))
    assert ok.outcome is Outcome.POSITIVE and ok.witness == (0,)
    blocked = x0_coverability(m, CounterConfig("q0", (1,)), CounterConfig("q1", (0,)))
    assert blocked.outcome is Outcome.NEGATIVE
    # forward search drained: certificate is the closure of the reach set
    assert blocked.witness == DownSet((Ideal("q0", (1,)),))
    # finite reach with no configuration at or above the target
    line = cm(["q0", "q1"], ["c"], [t("q0", OP_INC, "c", "q1")])
    v = x0_coverability(line, CounterConfig("q0", (0,)), CounterConfig("q1", (2,)))
    assert v.outcome is Outcome.NEGATIVE
    assert v.witness == DownSet((Ideal("q0", (0,)), Ideal("q1", (1,))))


def test_x0_coverability_budget():
    pump = cm(["q0", "q1"], ["c"], [t("q0", OP_INC, "c", "q0")])
    v = x0_coverability(pump, CounterConfig("q0", (0,)), CounterConfig("q0", (50,)), budget=20)
    assert v.outcome is Outcome.INCONCLUSIVE and v.budget_used == 20
    assert v.caveats and "round budget" in v.caveats[0]
    # a budget below 1 once answered INCONCLUSIVE after 0 rounds
    for low in (0, -4):
        with pytest.raises(ValueError) as err:
            x0_coverability(pump, CounterConfig("q0", (0,)), CounterConfig("q0", (50,)), budget=low)
        assert str(err.value) == "budget must be >= 1"


def random_cover_instance(rng: Random):
    """A random zero-test counter machine and a random target on it."""
    m = random_counter_machine(rng, zero_tests=True)
    y = CounterConfig(rng.choice(m.states), tuple(rng.randint(0, 3) for _ in m.counters))
    return m, y


def test_x0_coverability_raising_the_budget_keeps_definite_verdicts():
    rng = Random(20261020)
    outcomes = Counter()
    for _ in range(200):
        m, y = random_cover_instance(rng)
        x0 = m.initial_config()
        low = x0_coverability(m, x0, y, 200)
        high = x0_coverability(m, x0, y, 2000)
        outcomes[low.outcome, high.outcome] += 1
        if low.outcome is not Outcome.INCONCLUSIVE:
            assert (high.outcome, high.witness) == (low.outcome, low.witness), (m, y)
    assert outcomes[Outcome.POSITIVE, Outcome.POSITIVE] >= 20, outcomes
    assert outcomes[Outcome.NEGATIVE, Outcome.NEGATIVE] >= 20, outcomes
    assert outcomes[Outcome.INCONCLUSIVE, Outcome.NEGATIVE] >= 1, outcomes


def test_x0_coverability_ignores_state_and_counter_names():
    rng = Random(20261026)
    outcomes = Counter()
    for _ in range(200):
        m, y = random_cover_instance(rng)
        other = renamed(m, rng)
        # both keep their states and counters in declaration order
        q = dict(zip(m.states, other.states))
        back = dict(zip(other.states, m.states))
        want = x0_coverability(m, m.initial_config(), y, 300)
        got = x0_coverability(other, other.initial_config(), CounterConfig(q[y.control], y.values), 300)
        assert (got.outcome, got.budget_used) == (want.outcome, want.budget_used), (m, y)
        if want.outcome is Outcome.POSITIVE:
            assert got.witness == want.witness, (m, y)
        elif want.outcome is Outcome.NEGATIVE:
            mapped = downset_normalize(Ideal(back[i.control], i.bounds) for i in got.witness.ideals)
            assert mapped == want.witness, (m, y)
        outcomes[want.outcome] += 1
    assert outcomes[Outcome.POSITIVE] >= 20 and outcomes[Outcome.NEGATIVE] >= 20, outcomes


def test_x0_coverability_reordering_transitions_keeps_definite_verdicts():
    # the search order changes with the declaration order, so a verdict
    # may turn inconclusive within the budget, but never into the other one
    rng = Random(20261027)
    outcomes = Counter()
    for _ in range(200):
        m, y = random_cover_instance(rng)
        other = shuffled(m, rng)
        was = x0_coverability(m, m.initial_config(), y, 300).outcome
        now = x0_coverability(other, other.initial_config(), y, 300).outcome
        assert Outcome.INCONCLUSIVE in (was, now) or was is now, (m, other, y)
        outcomes[was, now] += 1
    for outcome in (Outcome.POSITIVE, Outcome.NEGATIVE):
        assert outcomes[outcome, outcome] >= 20, outcomes


def test_x0_coverability_without_counters_answers_within_one_round_per_state():
    # with no counters the forward search reaches at most n states, so it
    # answers by round n + 1, having asked for at most n of the 2^n - 1
    # candidates: the candidates never run out inside x0_coverability
    rng = Random(20261030)
    outcomes = Counter()
    for _ in range(300):
        n = rng.randint(1, 6)
        states = [f"q{i}" for i in range(n)]
        trans = [t(rng.choice(states), OP_NOOP, None, rng.choice(states))
                 for _ in range(rng.randint(0, 2 * n))]
        m = cm(states, [], trans)
        x0, y = (CounterConfig(rng.choice(states), ()) for _ in range(2))
        v = x0_coverability(m, x0, y, n + 1)
        reach = {x0.control}
        for _ in range(n):
            reach |= {tr.target for tr in trans if tr.source in reach}
        want = Outcome.POSITIVE if y.control in reach else Outcome.NEGATIVE
        assert v.outcome is want, (m, x0, y)
        outcomes[v.outcome] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_x0_coverability_matches_the_reference_loop(m8):
    # the memoised candidates and successor ideals against the round loop
    # they replaced: same outcome, witness and rounds
    grow = cm(
        ["q0", "q1"],
        ["c0", "c1"],
        [t("q0", OP_INC, "c0", "q0"), t("q0", OP_INC, "c1", "q1"),
         t("q1", OP_INC, "c0", "q1"), t("q1", OP_NOOP, None, "q0")],
    )
    q0 = CounterConfig("q0", (0,))
    cases = [
        (m8.machine, q0, CounterConfig("q1", (1,))),
        (m8.machine, q0, CounterConfig("q2", (3,))),
        (PUMP, q0, CounterConfig("q2", (0,))),
        (grow, CounterConfig("q0", (0, 0)), CounterConfig("q0", (5, 5))),
    ]
    rng = Random(20261021)
    for _ in range(300):
        m, y = random_cover_instance(rng)
        cases.append((m, m.initial_config(), y))
    outcomes = Counter()
    for m, x0, y in cases:
        got = x0_coverability(m, x0, y, 2000)
        want = ref_x0_coverability(m, x0, y, 2000)
        assert (got.outcome, got.witness, got.budget_used) == (
            want.outcome, want.witness, want.budget_used
        ), (m, x0, y)
        outcomes[got.outcome] += 1
    assert min(outcomes[o] for o in Outcome) >= 5, outcomes


def test_x0_coverability_witness_replays(m8):
    m = m8.machine
    x0 = CounterConfig("q0", (0,))
    target = CounterConfig("q2", (2,))
    v = x0_coverability(m, x0, target)
    assert v.outcome is Outcome.POSITIVE
    x = x0
    for label in v.witness:
        x = ref_counter_step(m, x, label)
        assert x is not None
    assert x.control == target.control and nat_vec_leq(target.values, x.values)


def test_check_cover_monotone_bounded(m8):
    m = m8.machine
    assert check_cover_monotone_bounded(m, CounterConfig("q0", (0,)), 5, 6) == (True, None)
    ok, cex = check_cover_monotone_bounded(m, CounterConfig("q0", (1,)), 5, 6)
    assert not ok
    assert cex == (
        CounterConfig("q1", (1,)),
        CounterConfig("q1", (0,)),
        0,
        CounterConfig("q3", (0,)),
    )
    with pytest.raises(ValueError):
        check_cover_monotone_bounded(m, CounterConfig("q0", (0,)), 0, 6)


def test_check_cover_monotone_bounded_matches_reference():
    # one bounded search per y1 must give the answer and the first violation
    # of the per-step searches it replaced
    rng = Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        m = random_counter_machine(rng, zero_tests=True, max_states=3, max_transitions=5)
        x0 = m.initial_config(tuple(rng.randint(0, 1) for _ in m.counters))
        for caps in ((2, 2), (3, 3)):
            got = check_cover_monotone_bounded(m, x0, *caps)
            assert got == ref_check_cover_monotone_bounded(m, x0, *caps), (m, x0, caps)
            outcomes[got[0]] += 1
    assert outcomes[False] >= 20 and outcomes[True] >= 20, outcomes


def test_machines_without_zero_tests_are_cover_monotone():
    rng = Random(41)
    for _ in range(25):
        m = random_counter_machine(rng, zero_tests=False, max_states=3, max_transitions=5)
        x0 = m.initial_config(tuple(rng.randint(0, 1) for _ in m.counters))
        ok, cex = check_cover_monotone_bounded(m, x0, 3, 4)
        assert ok, (m, x0, cex)
