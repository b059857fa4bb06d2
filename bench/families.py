"""Seeded model families for the benchmark workloads.

Each workload runs a fixed set of shapes, taken from a pool of shapes
that passed the same size filter.  A shape fixes everything that sets the
amount of work (start vector, channel word, search budget, target,
generator sub-seed); the run seed renames states, counters, channels and
letters, and shuffles transition order where that cannot change the
work.  So the same seed gives byte-identical model files, every seed gives
the same amount of work, and the exact counts recorded for a shape in
``counts.json`` hold for every seed.  The shapes are fixed rather than
drawn per seed because shapes that pass one filter still differ in time
(pool products took 2.1 to 3.5 s each, rotate-with-drop words 1.2 to
2.2 s), and a seed's draw then moved a run's time by more than the
bound the benchmark allows.

Why these families and sizes:

* ``rrt-counter`` -- dec-lattice, ``check termination``.  One control
  state, k counters each decremented from its start value.  Nothing is
  ever subsumed (values only go down), so the tree is every decrement
  order: Σ multinomial(a1+…+ak; a1,…,ak) over a ≤ start, a closed form
  the program cannot know.  The pool keeps the start vectors with 2 to 4
  counters whose tree has 45,000 to 51,000 nodes (about 1 s each), wide
  and shallow trees where tree bookkeeping, counter successors and
  memory carry the time.
* ``rrt-fifo`` -- rotate-with-drop, ``check boundedness``.  One channel;
  ``q0 --?x--> rx --!x--> q0`` per letter and ``q0 --?a--> q0``.  The
  channel never grows, so the answer is BOUNDED with a complete tree.
  Branches are deep, so prefix-order checks dominate.  Tree size swings
  with the start word: of 144 random words of 12 to 14 letters, 43
  gave under 5,000 nodes and 70 at least 40,000, so
  the pool keeps the words whose tree at the commit that introduced the
  benchmark had 17,000 to 28,000 nodes (``ROTATE_POOL``, drawn by
  ``selfcheck.py --draw-rotate-pool``): large enough that start-up is a
  small share, small enough for several samples in a 30-s run.
* ``cover`` -- ``check x0-cover``: a certificate hunt (the one-counter
  pump, whose target is unreachable and has no downward-closed
  certificate, so the enumeration runs the whole budget), a coverable
  target deep in the forward search of a two-counter machine, and a few
  random small two-counter machines with zero tests.  The hunt budgets
  stay inside one enumeration bound level, where the cost is flat in the
  budget; the next level doubles it.
* ``product`` -- ``wstskit product`` on random six-state FIFO machines
  with 40 transitions and ``bound`` clauses of two three-letter words on
  each of three channels.  The DFA-pair completability check inside
  ``product_machine`` carries it: each DFA has 6^3 = 216 states, so the
  check walks 216^2 state pairs.  Three words per channel would make that
  729^2, eleven times as many, so the size stays at two.
"""

from __future__ import annotations

import itertools
import math
import random
import string
from dataclasses import dataclass, field

WORKLOADS = ("rrt-counter", "rrt-fifo", "cover", "product")

RRT_BUDGET = 1_000_000

# The span and leaf names (see tracing.py) each workload was chosen to
# stress; a traced run reports their share of the traced time.
STRESSED = {
    "rrt-counter": ("rrt.build", "counter.post", "orders.leq"),
    "rrt-fifo": ("orders.leq",),
    "cover": ("cover.enum", "cover.check"),
    "product": ("fifo.product",),
}

# All start vectors (sorted) with 2 to 4 counters and start values 1..12
# whose dec-lattice tree has 45,000 to 51,000 nodes.  The narrow window
# keeps the largest tree of a run, and so its peak memory, nearly the same.
LATTICE_POOL = (
    (6, 11), (8, 8), (2, 2, 12), (2, 3, 8), (2, 4, 6),
    (1, 1, 2, 10), (1, 1, 4, 5), (1, 2, 2, 6), (1, 3, 3, 3),
)
LATTICE_NODE_WINDOW = (45_000, 51_000)
# One shape each with 2, 3 and 4 counters.
LATTICE_RUN = ((6, 11), (2, 3, 8), (1, 2, 2, 6))

# (word, tree nodes): words over {a, b} ('a' is the dropped letter) drawn by
# ``selfcheck.py --draw-rotate-pool``: uniform length 12..14, uniform
# letters, Random(12345), kept when the complete tree has 17,000..28,000
# nodes.  About one word in five falls inside the window.
ROTATE_POOL = (
    ('abbabbababbaa', 24627),
    ('bbabbaaababa', 19405),
    ('baabaabbbaba', 20905),
    ('aababbbababbab', 23261),
    ('babbbbabaabaa', 24627),
    ('babaaabbbbbaba', 27101),
    ('bbababbaababab', 24797),
    ('abbbabbabaaa', 19657),
    ('bbabbabaaaab', 19657),
    ('abaababababbbb', 26333),
    ('babaaaaabbbb', 22153),
    ('bbabaabaabbbab', 25565),
    ('abaababbbbaba', 24627),
    ('aabbababbaba', 17773),
    ('bbbabaaababa', 21529),
    ('bababbaabbaa', 18073),
)
ROTATE_NODE_WINDOW = (17_000, 28_000)

# The smallest, a middle and a large tree of the pool.
ROTATE_RUN = ('bbabbaaababa', 'aababbbababbab', 'bbabaabaabbbab')

# Certificate hunt budgets.  At budgets 5,900..6,800 the
# enumeration of the 3-state pump stays at bound level 16.
HUNT_POOL = (6000, 6200, 6400, 6600)
# Coverable targets of the two-counter grow machine, as (c0, c1).
GROW_POOL = ((60, 60), (58, 62), (62, 58), (56, 64), (64, 56))
HUNT_RUN, GROW_RUN = 6400, (60, 60)
# Generator sub-seeds among 0..39 whose verdict at budget 2,000 is definite
# (23 and 37 stay inconclusive), so every run decides the same share.
RANDOM_COUNTER_POOL = tuple(s for s in range(40) if s not in (23, 37))
# Two with a few hundred search rounds, two that end at once.
RANDOM_COUNTER_RUN = (11, 30, 2, 16)
RANDOM_COUNTER_BUDGET = 2000

# Generator sub-seeds among 0..79 whose product has 100 to 2,000 control
# states: the completability check walks the same 216^2 DFA-pair states
# for each, though the machines still differ in time.
PRODUCT_POOL = (0, 16, 17, 23, 27, 35, 40, 47, 51, 53, 54, 59, 62, 64, 65)
PRODUCT_RUN = 62  # 990 product states, near the pool's median time


@dataclass(frozen=True)
class Instance:
    """One CLI invocation: a model file, its arguments and what is known
    about the answer independently of the program."""

    key: str  # the shape; counts.json is keyed by it
    stem: str  # file name of the model, without suffix
    text: str  # model file contents
    args: tuple[str, ...]  # CLI arguments; "{model}" stands for the model path
    expect: dict = field(default_factory=dict)

    def argv(self, model_path: str) -> list[str]:
        return [model_path if a == "{model}" else a for a in self.args]


class _Names:
    """Fresh identifiers without '_' (product state names join with '_')."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, prefix: str) -> str:
        while True:
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase) for _ in range(3))
            if name not in self.used:
                self.used.add(name)
                return name


def lattice_nodes(start) -> int:
    """Closed-form tree size: every decrement order is one branch."""
    return sum(_multinomial(a) for a in itertools.product(*(range(n + 1) for n in start)))


def lattice_leq_calls(start) -> int:
    """Order checks at this commit: a node at depth d is checked against
    its d ancestors, and none of them is a hit."""
    return sum(sum(a) * _multinomial(a) for a in itertools.product(*(range(n + 1) for n in start)))


def _multinomial(a) -> int:
    return math.factorial(sum(a)) // math.prod(math.factorial(x) for x in a)


def lattice_instance(rng: random.Random, start, index: int) -> Instance:
    names = _Names(rng)
    q = names.fresh("s")
    values = list(start)
    rng.shuffle(values)
    counters = [names.fresh("c") for _ in values]
    trans = [f"{q} -- dec({c}) --> {q}" for c in counters]
    rng.shuffle(trans)
    text = "\n".join(
        ["# dec-lattice: one control state, each counter decremented from its start value",
         "kind counter", f"states {q}", "counters " + " ".join(counters), *trans,
         f"init {q} ({','.join(map(str, values))})"]
    ) + "\n"
    key = "lattice:" + "-".join(map(str, start))
    return Instance(key, f"{index:02d}-lattice", text,
                    ("check", "termination", "{model}", "--json", "--budget", str(RRT_BUDGET)),
                    {"verdict": "terminating", "nodes": lattice_nodes(start)})


def rotate_instance(rng: random.Random, word: str, index: int) -> Instance:
    names = _Names(rng)
    drop, keep = rng.sample(string.ascii_lowercase, 2)
    letter = {"a": drop, "b": keep}
    q0, ch = names.fresh("q"), names.fresh("ch")
    rx = {x: names.fresh("r") for x in (drop, keep)}
    trans = [f"{q0} -- {ch}?{drop} --> {q0}"]
    for x in (drop, keep):
        trans += [f"{q0} -- {ch}?{x} --> {rx[x]}", f"{rx[x]} -- {ch}!{x} --> {q0}"]
    rng.shuffle(trans)
    alphabet = [drop, keep]
    rng.shuffle(alphabet)
    states = [q0, rx[drop], rx[keep]]
    rng.shuffle(states)
    text = "\n".join(
        ["# rotate-with-drop: the channel word rotates; one letter may be dropped",
         "kind fifo", "states " + " ".join(states), f"channels {ch}",
         "alphabet " + " ".join(alphabet), *trans,
         f'init {q0} {ch}:"{"".join(letter[x] for x in word)}"']
    ) + "\n"
    return Instance(f"rotate:{word}", f"{index:02d}-rotate", text,
                    ("check", "boundedness", "{model}", "--json", "--budget", str(RRT_BUDGET)),
                    {"verdict": "bounded"})


def hunt_instance(rng: random.Random, budget: int, index: int) -> Instance:
    """The one-counter pump: q1 is entered only by an increment and the
    counter never goes down, so the zero test into q2 never fires and the
    target q2:(0) is unreachable.  Every inductive downward-closed set
    containing x0 holds q0:(ω), hence q1:(ω), hence q2:(0): no certificate
    exists, and the only acceptable answers are INCONCLUSIVE and a
    NOT COVERABLE whose certificate checks out."""
    names = _Names(rng)
    q0, q1, q2, c = names.fresh("q"), names.fresh("q"), names.fresh("q"), names.fresh("c")
    text = "\n".join(
        ["# pump: the target is unreachable and has no downward-closed certificate",
         "kind counter", f"states {q0} {q1} {q2}", f"counters {c}",
         f"{q0} -- inc({c}) --> {q0}", f"{q0} -- inc({c}) --> {q1}",
         f"{q1} -- noop [zero: {c}] --> {q2}", f"init {q0} (0)"]
    ) + "\n"
    return Instance(f"hunt:{budget}", f"{index:02d}-hunt", text,
                    ("check", "x0-cover", "{model}", "--target", f"{q2}:(0)", "--json",
                     "--budget", str(budget)),
                    {"coverable": False})


def grow_instance(rng: random.Random, target, index: int) -> Instance:
    """q0 pumps c0; each detour through q1 adds one to c1 and pumps c0.
    Every (n0, n1) is reachable at q0, so the target is coverable."""
    names = _Names(rng)
    q0, q1 = names.fresh("q"), names.fresh("q")
    c0, c1 = names.fresh("c"), names.fresh("c")
    text = "\n".join(
        ["# grow: a coverable target deep in the forward search",
         "kind counter", f"states {q0} {q1}", f"counters {c0} {c1}",
         f"{q0} -- inc({c0}) --> {q0}", f"{q0} -- inc({c1}) --> {q1}",
         f"{q1} -- inc({c0}) --> {q1}", f"{q1} -- noop --> {q0}",
         f"init {q0} (0,0)"]
    ) + "\n"
    return Instance(f"grow:{target[0]}-{target[1]}", f"{index:02d}-grow", text,
                    ("check", "x0-cover", "{model}", "--target",
                     f"{q0}:({target[0]},{target[1]})", "--json", "--budget", "100000"),
                    {"coverable": True})


def random_counter_instance(rng: random.Random, sub_seed: int, index: int) -> Instance:
    """A random machine in the style of the test generators: up to 4
    states, 2 counters, 8 transitions, zero tests on 30% of them.  Nothing
    is known about the answer; only the witness is checked."""
    shape = random.Random(f"random-counter:{sub_seed}")
    n_states = shape.randint(2, 4)
    states = [f"q{i}" for i in range(n_states)]
    trans = []
    for _ in range(shape.randint(3, 8)):
        op = shape.choice(("inc", "dec", "noop"))
        ctr = shape.choice((0, 1))
        tested = sorted(shape.sample((0, 1), shape.randint(1, 2))) if shape.random() < 0.3 else []
        trans.append((shape.choice(states), op, ctr, tested, shape.choice(states)))
    target = (shape.choice(states), shape.randint(0, 3), shape.randint(0, 3))

    names = _Names(rng)
    sname = {q: names.fresh("q") for q in states}
    cname = [names.fresh("c"), names.fresh("c")]
    lines = ["# random two-counter machine", "kind counter",
             "states " + " ".join(sname[q] for q in states), "counters " + " ".join(cname)]
    for src, op, ctr, tested, dst in trans:
        action = "noop" if op == "noop" else f"{op}({cname[ctr]})"
        guard = f" [zero: {', '.join(cname[i] for i in tested)}]" if tested else ""
        lines.append(f"{sname[src]} -- {action}{guard} --> {sname[dst]}")
    lines.append(f"init {sname[states[0]]} (0,0)")
    y = f"{sname[target[0]]}:({target[1]},{target[2]})"
    return Instance(f"random:{sub_seed}", f"{index:02d}-random", "\n".join(lines) + "\n",
                    ("check", "x0-cover", "{model}", "--target", y, "--json",
                     "--budget", str(RANDOM_COUNTER_BUDGET)),
                    {})


def product_instance(rng: random.Random, sub_seed: int, index: int) -> Instance:
    """Six states, 40 random transitions over three channels and letters
    {a, b, c, d}, and per channel a bound of two random three-letter words."""
    shape = random.Random(f"product:{sub_seed}")
    states = [f"q{i}" for i in range(6)]
    bounds = [["".join(shape.choice("abcd") for _ in range(3)) for _ in range(2)] for _ in range(3)]
    trans = []
    for _ in range(40):
        ci = shape.randrange(3)
        trans.append((shape.choice(states), ci, shape.choice("!?"), shape.choice("abcd"),
                      shape.choice(states)))

    names = _Names(rng)
    sname = {q: names.fresh("q") for q in states}
    chname = [names.fresh("ch") for _ in range(3)]
    letters = list("abcd")
    perm = letters[:]
    rng.shuffle(perm)
    lname = dict(zip(letters, perm))
    lines = ["# random fifo machine with bounded languages on three channels", "kind fifo",
             "states " + " ".join(sname[q] for q in states), "channels " + " ".join(chname),
             "alphabet a b c d"]
    for src, ci, kind, letter, dst in trans:
        lines.append(f"{sname[src]} -- {chname[ci]}{kind}{lname[letter]} --> {sname[dst]}")
    for ci, words in enumerate(bounds):
        lines.append(f"bound {chname[ci]}: " + "".join(f"({''.join(lname[x] for x in w)})" for w in words))
    lines.append(f"init {sname[states[0]]}")
    return Instance(f"product:{sub_seed}", f"{index:02d}-product", "\n".join(lines) + "\n",
                    ("product", "{model}"), {"channels": len(chname)})


def make_instances(workload: str, seed: int) -> list[Instance]:
    """The instances of one run: same workload and seed, same files."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rrt-counter":
        return [lattice_instance(rng, s, i) for i, s in enumerate(LATTICE_RUN)]
    if workload == "rrt-fifo":
        return [rotate_instance(rng, w, i) for i, w in enumerate(ROTATE_RUN)]
    if workload == "cover":
        out = [hunt_instance(rng, HUNT_RUN, 0), grow_instance(rng, GROW_RUN, 1)]
        for sub in RANDOM_COUNTER_RUN:
            out.append(random_counter_instance(rng, sub, len(out)))
        return out
    if workload == "product":  # one product is about 3 s, so one per run
        return [product_instance(rng, PRODUCT_RUN, 0)]
    raise ValueError(f"unknown workload {workload!r}")
