"""Order laws and the antichain search."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import pairwise_incomparable, ref_counter_leq, ref_ext_prefix_leq
from wstskit.counter import CounterConfig, CounterMachine
from wstskit.fifo import Alphabet, FifoConfig, FifoMachine
from wstskit.olts import counter_olts, fifo_olts
from wstskit.orders import (
    COUNTER_ORDER,
    EXT_PREFIX_ORDER,
    Order,
    counter_state_leq,
    ext_prefix_leq,
    find_antichain_on_run,
    nat_vec_leq,
)


def vec(n: int):
    return st.tuples(*([st.integers(min_value=0, max_value=6)] * n))


@st.composite
def vec_pair(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    return draw(vec(n)), draw(vec(n))


@st.composite
def vec_triple(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    return draw(vec(n)), draw(vec(n)), draw(vec(n))


words = st.text(alphabet=Alphabet("ab").word("ab"), max_size=6)


def one_channel(word: str) -> FifoConfig:
    """A configuration of one control state and one channel holding ``word``."""
    return FifoConfig("q0", (word,))


@given(vec_pair())
def test_nat_vec_leq_reflexive_and_antisymmetric(pair):
    u, v = pair
    assert nat_vec_leq(u, u)
    if nat_vec_leq(u, v) and nat_vec_leq(v, u):
        assert u == v


@given(vec_triple())
def test_nat_vec_leq_transitive(triple):
    u, v, w = triple
    if nat_vec_leq(u, v) and nat_vec_leq(v, w):
        assert nat_vec_leq(u, w)


def test_nat_vec_leq_dimension_mismatch():
    with pytest.raises(ValueError):
        nat_vec_leq((1,), (1, 2))
    with pytest.raises(ValueError, match="^configurations have different counter signatures$"):
        counter_state_leq(CounterConfig("q0", (1,)), CounterConfig("q0", (1, 2)))


@given(words, words)
def test_ext_prefix_leq_one_channel_matches_startswith(u, w):
    assert ext_prefix_leq(one_channel(u), one_channel(w)) == w.startswith(u)


@given(words, words, words)
def test_ext_prefix_leq_one_channel_partial_order(u, v, w):
    x, y, z = map(one_channel, (u, v, w))
    assert ext_prefix_leq(x, x)
    if ext_prefix_leq(x, y) and ext_prefix_leq(y, x):
        assert u == v
    if ext_prefix_leq(x, y) and ext_prefix_leq(y, z):
        assert ext_prefix_leq(x, z)


@st.composite
def counter_configs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    control = draw(st.sampled_from(["q0", "q1"]))
    return CounterConfig(control, draw(vec(n)))


@given(st.data())
def test_counter_state_leq_matches_reference(data):
    x = data.draw(counter_configs())
    y = CounterConfig(
        data.draw(st.sampled_from(["q0", "q1"])), data.draw(vec(len(x.values)))
    )
    assert counter_state_leq(x, y) == ref_counter_leq(x, y)


def test_counter_orders_agree_with_reference_on_every_small_pair():
    # every pair up to dimension 3 with values 0..2; the lexicographic
    # pre-check must hand the pairs that are lexicographically but not
    # componentwise ordered on to the full scan
    pairs = lexicographic_only = 0
    for n in range(4):
        vectors = list(itertools.product(range(3), repeat=n))
        for u, v in itertools.product(vectors, repeat=2):
            y = CounterConfig("q0", v)
            for control in ("q0", "q1"):
                x = CounterConfig(control, u)
                want = ref_counter_leq(x, y)
                assert COUNTER_ORDER.leq(x, y) == counter_state_leq(x, y) == want, (x, y)
                pairs += 1
                lexicographic_only += control == "q0" and u <= v and not want
    assert (pairs, lexicographic_only) == (1640, 171)


def test_configurations_built_from_lists_hold_tuples():
    for from_list, from_tuple in (
        (CounterConfig("q", [1, 0]), CounterConfig("q", (1, 0))),
        (FifoConfig("q", ["", "a"]), FifoConfig("q", ("", "a"))),
    ):
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    x, y = CounterConfig("q", [1, 0]), CounterConfig("q", [1, 2])
    for leq in (COUNTER_ORDER.leq, counter_state_leq):
        assert leq(x, y) and not leq(y, x)
        assert leq(x, CounterConfig("q", (1, 0))) and leq(CounterConfig("q", (1, 0)), x)
    u, w = FifoConfig("q", ["a"]), FifoConfig("q", ("ab",))
    assert ext_prefix_leq(u, w) and EXT_PREFIX_ORDER.leq(u, w) and not ext_prefix_leq(w, u)


@st.composite
def fifo_pair(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    def cfg():
        control = draw(st.sampled_from(["q0", "q1"]))
        contents = tuple(
            draw(st.text(Alphabet("ab").word("ab"), max_size=4)) for _ in range(n)
        )
        return FifoConfig(control, contents)
    return cfg(), cfg()


def test_fifo_orders_agree_with_reference_on_every_small_pair():
    # every pair with 0 to 3 channels and words over "ab" of length at most
    # 2; one channel takes the kernel's direct prefix test and every other
    # channel count the channel scan, so a fast path that tests the wrong
    # way round, or that is taken with more than one channel, answers wrong
    short = [""] + ["".join(w) for n in (1, 2) for w in itertools.product("ab", repeat=n)]
    pairs = hits = 0
    for n in range(4):
        machine = FifoMachine(("q0", "q1"), tuple(f"ch{i}" for i in range(n)), Alphabet("ab"), (), "q0")
        leq = fifo_olts(machine).order.leq
        contents = list(itertools.product(short, repeat=n))
        for v in contents:
            y = FifoConfig("q0", v)
            for u in contents:
                for control in ("q0", "q1"):
                    x = FifoConfig(control, u)
                    want = ref_ext_prefix_leq(x, y)
                    assert EXT_PREFIX_ORDER.leq(x, y) == ext_prefix_leq(x, y) == want, (x, y)
                    assert leq(x, y) == want, (x, y)
                    pairs += 1
                    hits += want
    assert (pairs, hits) == (2 * (1 + 7**2 + 7**4 + 7**6), 1 + 17 + 17**2 + 17**3)


@given(fifo_pair())
def test_ext_prefix_leq_matches_reference(pair):
    x, y = pair
    assert ext_prefix_leq(x, y) == ref_ext_prefix_leq(x, y)


@given(st.data())
def test_olts_orders_match_reference_on_shared_signatures(data):
    # the olts orders skip the signature check; on pairs that share one
    # they must agree with the definitions
    x = data.draw(counter_configs())
    y = CounterConfig(
        data.draw(st.sampled_from(["q0", "q1"])), data.draw(vec(len(x.values)))
    )
    machine = CounterMachine(("q0", "q1"), tuple(f"c{i}" for i in range(len(x.values))), (), "q0")
    assert counter_olts(machine, x).order.leq(x, y) == ref_counter_leq(x, y)
    u, w = data.draw(fifo_pair())
    machine = FifoMachine(
        ("q0", "q1"), tuple(f"ch{i}" for i in range(len(u.contents))), Alphabet("ab"), (), "q0"
    )
    assert fifo_olts(machine, u).order.leq(u, w) == ref_ext_prefix_leq(u, w)


def test_ext_prefix_leq_channel_mismatch():
    with pytest.raises(ValueError):
        ext_prefix_leq(FifoConfig("q0", ("",)), FifoConfig("q0", ("", "")))


@given(st.data())
def test_order_derived_relations_consistent(data):
    x = data.draw(counter_configs())
    y = CounterConfig(
        data.draw(st.sampled_from(["q0", "q1"])), data.draw(vec(len(x.values)))
    )
    o = COUNTER_ORDER
    assert o.incomparable(x, y) == (not o.leq(x, y) and not o.leq(y, x))
    assert o.eq(x, y) == (x == y)


def test_order_custom_eq():
    o = Order(leq=lambda a, b: a <= b, eq=lambda a, b: a == b)
    assert o.eq(2, 2) and not o.eq(1, 2)
    assert not o.incomparable(1, 2) and not o.incomparable(2, 2)


def test_find_antichain_on_known_run(m2):
    system = fifo_olts(m2.machine, FifoConfig("q2", ("",)))
    found = find_antichain_on_run(system, [6, 3, 2, 4, 6, 6, 3], limit=4)
    shown = [(x.control, x.contents[0]) for x in found]
    a = m2.machine.alphabet
    assert shown == [
        ("q2", ""),
        ("q1", a.word("cb")),
        ("q1", a.word("ccb")),
    ]
    assert pairwise_incomparable(found, ref_ext_prefix_leq)


def test_find_antichain_chain_yields_empty(m1):
    system = fifo_olts(m1.machine)
    # repeated sends only grow the channel, so every visited state is comparable
    assert find_antichain_on_run(system, [0, 0, 0], limit=5) == []


def test_find_antichain_limit_and_errors(m2):
    system = fifo_olts(m2.machine, FifoConfig("q2", ("",)))
    assert find_antichain_on_run(system, [6, 3, 2], limit=1) == []
    with pytest.raises(ValueError):
        find_antichain_on_run(system, [6], limit=0)
    with pytest.raises(ValueError):
        find_antichain_on_run(system, [2], limit=3)  # recv on empty channel
