"""Random instance generators shared by the property tests."""

from __future__ import annotations

from random import Random

from wstskit.counter import (
    OP_DEC,
    OP_INC,
    OP_NOOP,
    CounterMachine,
    CounterTransition,
    is_cmrz,
)
from wstskit.cover import OMEGA, DownSet, Ideal, downset_normalize
from wstskit.fifo import RECV, SEND, Alphabet, FifoMachine, FifoTransition


def random_counter_machine(
    rng: Random,
    *,
    max_states: int = 4,
    max_counters: int = 2,
    max_transitions: int = 8,
    zero_tests: bool = False,
    zero_p: float = 0.3,
) -> CounterMachine:
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_states)))
    counters = tuple(f"c{i}" for i in range(rng.randint(1, max_counters)))
    trans = []
    for _ in range(rng.randint(1, max_transitions)):
        op = rng.choice((OP_INC, OP_DEC, OP_NOOP))
        counter = None if op == OP_NOOP else rng.choice(counters)
        tested = frozenset()
        if zero_tests and rng.random() < zero_p:
            tested = frozenset(rng.sample(counters, rng.randint(1, len(counters))))
        trans.append(
            CounterTransition(rng.choice(states), op, counter, tested, rng.choice(states))
        )
    return CounterMachine(states, counters, tuple(trans), states[0], name="random")


def random_cmrz_machine(rng: Random, **kw) -> CounterMachine:
    """Generate-and-filter; zero tests allowed but never revisited by updates."""
    kw.setdefault("zero_tests", True)
    while True:
        machine = random_counter_machine(rng, **kw)
        ok, _ = is_cmrz(machine)
        if ok:
            return machine


def random_fifo_machine(
    rng: Random,
    *,
    max_states: int = 4,
    max_channels: int = 2,
    letters: str = "ab",
    max_transitions: int = 8,
) -> FifoMachine:
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_states)))
    channels = tuple(f"ch{i}" for i in range(rng.randint(1, max_channels)))
    alphabet = Alphabet(letters)
    trans = []
    for _ in range(rng.randint(1, max_transitions)):
        trans.append(
            FifoTransition(
                rng.choice(states),
                rng.choice(channels),
                rng.choice((SEND, RECV)),
                alphabet.letter(rng.choice(letters)),
                rng.choice(states),
            )
        )
    return FifoMachine(states, channels, alphabet, tuple(trans), states[0], name="random")


def random_loop_instance(rng: Random, *, max_len: int = 6, letters: str = "ab"):
    """A single-channel cycle machine plus a start configuration.

    Returns (machine, x, labels, w, s, r) where firing `labels` once from x
    receives r and sends s (projections of the possibly interleaved cycle)
    and w is the initial channel content.
    """
    def word(lo: int = 0) -> str:
        return "".join(rng.choice(letters) for _ in range(rng.randint(lo, max_len)))

    w = word()
    s = word()
    r = word()
    if not s and not r:
        s = word(1)
    acts = [(RECV, ch) for ch in r] + [(SEND, ch) for ch in s]
    if rng.random() < 0.5:
        rng.shuffle(acts)
    s = "".join(ch for kind, ch in acts if kind == SEND)
    r = "".join(ch for kind, ch in acts if kind == RECV)
    alphabet = Alphabet(letters)
    states = tuple(f"q{i}" for i in range(len(acts)))
    trans = tuple(
        FifoTransition(states[i], "ch", kind, alphabet.letter(ch), states[(i + 1) % len(acts)])
        for i, (kind, ch) in enumerate(acts)
    )
    machine = FifoMachine(states, ("ch",), alphabet, trans, states[0], name="loop")
    x = machine.initial_config({"ch": w})
    return machine, x, list(range(len(acts))), w, s, r


def random_counter_loop_instance(rng: Random, *, max_len: int = 6, max_counters: int = 2):
    """A counter cycle machine q0 -> q1 -> ... -> q0 plus a start in q0.

    Each transition of the cycle has a random operation and tests each
    counter for zero with probability 0.3.  Returns (machine, x, labels),
    where ``labels`` goes once round the cycle from x.
    """
    counters = tuple(f"c{i}" for i in range(rng.randint(1, max_counters)))
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_len)))
    trans = []
    for i, state in enumerate(states):
        op = rng.choice((OP_INC, OP_DEC, OP_NOOP))
        counter = None if op == OP_NOOP else rng.choice(counters)
        tested = frozenset(c for c in counters if rng.random() < 0.3)
        trans.append(CounterTransition(state, op, counter, tested, states[(i + 1) % len(states)]))
    machine = CounterMachine(states, counters, tuple(trans), states[0], name="loop")
    x = machine.initial_config([rng.randint(0, 3) for _ in counters])
    return machine, x, list(range(len(states)))


def random_downset(
    rng: Random,
    machine: CounterMachine,
    *,
    max_ideals: int = 3,
    bound: int = 3,
    omega_p: float = 0.25,
) -> DownSet:
    ideals = []
    for _ in range(rng.randint(1, max_ideals)):
        bounds = tuple(
            OMEGA if rng.random() < omega_p else rng.randint(0, bound)
            for _ in machine.counters
        )
        ideals.append(Ideal(rng.choice(machine.states), bounds))
    return downset_normalize(ideals)


def renamed(machine, rng: Random):
    """The machine with fresh names for its states, its counters or
    channels, and its letters, each kept in its declaration order."""
    fresh = [f"x{i}" for i in range(20)]
    rng.shuffle(fresh)
    q = dict(zip(machine.states, fresh))
    states = tuple(q.values())
    if isinstance(machine, CounterMachine):
        c = {name: f"k{i}" for i, name in enumerate(reversed(machine.counters))}
        trans = tuple(
            CounterTransition(
                q[t.source], t.op, c.get(t.counter), frozenset(map(c.get, t.zero_tests)), q[t.target]
            )
            for t in machine.transitions
        )
        return CounterMachine(states, tuple(map(c.get, machine.counters)), trans, q[machine.initial])
    ch = {name: f"ch{i}" for i, name in enumerate(reversed(machine.channels))}
    trans = tuple(
        FifoTransition(q[t.source], ch[t.channel], t.kind, t.letter, q[t.target])
        for t in machine.transitions
    )
    alphabet = Alphabet(f"L{a}" for a in machine.alphabet.letters)
    channels = tuple(map(ch.get, machine.channels))
    return FifoMachine(states, channels, alphabet, trans, q[machine.initial])


def shuffled(machine, rng: Random):
    """The machine with its transitions declared in a random order."""
    trans = list(machine.transitions)
    rng.shuffle(trans)
    return machine._replace(transitions=tuple(trans))
