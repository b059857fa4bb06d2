"""Slow reference implementations used to cross-check the library.

Everything here recomputes behaviour directly from the machine data
(record fields only) and deliberately avoids the library's own step,
closure, and search routines, so agreement between the two is evidence
rather than tautology.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, count
from itertools import product as iproduct
from typing import Callable, Iterable, Iterator, Optional, Sequence

from wstskit.counter import OP_DEC, OP_INC, OP_NOOP, CounterConfig, CounterMachine
from wstskit.cover import OMEGA, DownSet, Ideal, downset_closed, downset_contains, downset_normalize
from wstskit.fifo import RECV, SEND, BoundedLang, Dfa, FifoConfig, FifoMachine
from wstskit.verdict import AnalysisVerdict, Outcome


# ---------------------------------------------------------------------------
# Orders, re-derived from their definitions.


def ref_counter_leq(x: CounterConfig, y: CounterConfig) -> bool:
    return x.control == y.control and all(a <= b for a, b in zip(x.values, y.values))


def ref_ext_prefix_leq(x: FifoConfig, y: FifoConfig) -> bool:
    if x.control != y.control:
        return False
    return all(v[: len(w)] == w for w, v in zip(x.contents, y.contents))


def pairwise_incomparable(states: Sequence, leq: Callable) -> bool:
    for i in range(len(states)):
        for j in range(len(states)):
            if i != j and leq(states[i], states[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# Exact single steps, re-derived from the transition format.


def ref_counter_step(
    machine: CounterMachine, x: CounterConfig, label: int
) -> Optional[CounterConfig]:
    t = machine.transitions[label]
    if x.control != t.source:
        return None
    for c in t.zero_tests:
        if x.values[machine.counters.index(c)] != 0:
            return None
    values = list(x.values)
    if t.counter is not None:
        j = machine.counters.index(t.counter)
        if t.op == OP_INC:
            values[j] += 1
        elif t.op == OP_DEC:
            if values[j] == 0:
                return None
            values[j] -= 1
    return CounterConfig(t.target, tuple(values))


def ref_fifo_step(machine: FifoMachine, x: FifoConfig, label: int) -> Optional[FifoConfig]:
    t = machine.transitions[label]
    if x.control != t.source:
        return None
    ci = machine.channels.index(t.channel)
    word = x.contents[ci]
    if t.kind == SEND:
        word = word + t.letter
    elif t.kind == RECV:
        if not word or word[0] != t.letter:
            return None
        word = word[1:]
    contents = x.contents[:ci] + (word,) + x.contents[ci + 1 :]
    return FifoConfig(t.target, contents)


def ref_run(machine, x, labels: Iterable[int], step: Callable):
    """Fold a step function; (final, None) or (config before failure, index)."""
    for i, label in enumerate(labels):
        nxt = step(machine, x, label)
        if nxt is None:
            return x, i
        x = nxt
    return x, None


def simulate_iterations(
    machine: FifoMachine, x: FifoConfig, labels: Sequence[int], count: int
) -> tuple[int, FifoConfig]:
    """Fire the label sequence up to `count` times; (full iterations done, last config)."""
    done = 0
    while done < count:
        y, stuck = ref_run(machine, x, labels, ref_fifo_step)
        if stuck is not None:
            return done, y
        x = y
        done += 1
    return done, x


# ---------------------------------------------------------------------------
# The restricted zero-test class, re-derived by scanning every transition.


def _ref_control_reachable(machine: CounterMachine, start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        for t in machine.transitions:
            if t.source == q and t.target not in seen:
                seen.add(t.target)
                queue.append(t.target)
    return seen


def ref_is_cmrz(
    machine: CounterMachine, start: str | None = None
) -> tuple[bool, list[int] | None]:
    """``is_cmrz`` as it read when it scanned ``machine.transitions`` for
    the transitions leaving each control state it visits, from ``start``
    (default: the initial control)."""
    reachable = _ref_control_reachable(machine, machine.initial if start is None else start)
    violations: list[list[int]] = []
    for ti, t in enumerate(machine.transitions):
        if not t.zero_tests or t.source not in reachable:
            continue
        if t.op != OP_NOOP and t.counter in t.zero_tests:
            violations.append([ti])
            continue
        seen = {t.target}
        queue: deque[tuple[str, list[int]]] = deque([(t.target, [])])
        found: list[int] | None = None
        while queue and found is None:
            q, path = queue.popleft()
            for ui, u in enumerate(machine.transitions):
                if u.source != q:
                    continue
                if u.op != OP_NOOP and u.counter in t.zero_tests:
                    found = [ti] + path + [ui]
                    break
                if u.target not in seen:
                    seen.add(u.target)
                    queue.append((u.target, path + [ui]))
        if found is not None:
            violations.append(found)
    best = min(violations, key=len, default=None)
    return best is None, best


# ---------------------------------------------------------------------------
# Exhaustive forward exploration.


def bfs_reach(machine, x0, step: Callable, *, max_nodes: int, value_cap: int | None = None):
    """Explore exact configurations breadth-first.

    Returns (seen, complete).  `complete` is True only if the queue drained
    without hitting max_nodes and without dropping any successor at the
    value cap, i.e. `seen` really is the whole reachability set.
    """
    seen = {x0}
    queue = deque([x0])
    dropped = False
    truncated = False
    while queue:
        if len(seen) > max_nodes:
            truncated = True
            break
        x = queue.popleft()
        for label in range(len(machine.transitions)):
            y = step(machine, x, label)
            if y is None:
                continue
            if value_cap is not None and any(v > value_cap for v in y.values):
                dropped = True
                continue
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen, not dropped and not truncated


def covered_oracle(
    machine: CounterMachine,
    x0: CounterConfig,
    y: CounterConfig,
    *,
    value_cap: int,
    max_nodes: int = 20000,
) -> tuple[bool, bool]:
    """(covered, conclusive): capped exact search for some state above y.

    A hit is conclusive; a miss is conclusive only when the capped search
    was in fact complete.
    """
    seen, complete = bfs_reach(
        machine, x0, ref_counter_step, max_nodes=max_nodes, value_cap=value_cap
    )
    if any(ref_counter_leq(y, x) for x in seen):
        return True, True
    return False, complete


def has_infinite_run(machine, x0, step: Callable, *, max_nodes: int = 20000):
    """(answer, conclusive) for "some run from x0 never halts".

    Builds the exact configuration graph; if that graph is finite an
    infinite run exists iff a cycle is reachable, found here by iterative
    three-colour depth-first search.
    """
    seen, complete = bfs_reach(machine, x0, step, max_nodes=max_nodes)
    if not complete:
        return None, False
    succs = {
        x: [
            y
            for label in range(len(machine.transitions))
            if (y := step(machine, x, label)) is not None
        ]
        for x in seen
    }
    WHITE, GRAY, BLACK = 0, 1, 2
    colour = {x: WHITE for x in seen}
    for root in seen:
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(succs[root]))]
        colour[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if colour[child] == GRAY:
                    return True, True
                if colour[child] == WHITE:
                    colour[child] = GRAY
                    stack.append((child, iter(succs[child])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return False, True


# ---------------------------------------------------------------------------
# Reduced reachability tree, unfolded from its textbook definition.


def ref_rrt(machine, x0, step: Callable, leq: Callable, *, max_nodes: int) -> dict:
    """The complete reduced reachability tree, keyed by label path.

    Every node has one child per enabled transition, in any order; a child
    at or above a strict ancestor is a leaf, subsumed by the first such
    ancestor from the root, and any other node with no enabled transition
    is a deadlock.  Nodes are identified by the labels on their path from the
    root, so the parent of path p is p[:-1] and no traversal order is
    implied.  Returns {path: (state, subsumer path or None, deadlock)};
    raises RuntimeError if the tree has more than max_nodes nodes.
    """
    tree: dict = {}
    stack = [((), x0)]
    while stack:
        path, x = stack.pop()
        if len(tree) >= max_nodes:
            raise RuntimeError(f"tree exceeds {max_nodes} nodes")
        subsumer = next(
            (path[:i] for i in range(len(path)) if leq(tree[path[:i]][0], x)), None
        )
        children = [] if subsumer is not None else [
            (path + (label,), y)
            for label in range(len(machine.transitions))
            if (y := step(machine, x, label)) is not None
        ]
        tree[path] = (x, subsumer, subsumer is None and not children)
        stack.extend(children)
    return tree


def ref_boundedness_witness(nodes: Sequence, order) -> Optional[tuple[int, int]]:
    """The order checks of ``decide_boundedness``, a strict-ancestor scan,
    on a tree's nodes (record fields only; a node's id is its position).

    First every subsumed node is checked against its subsumer with
    ``leq(node, subsumer)``; then, node by node, each strict ancestor,
    root first, is tested for ancestor < node, spelled out as
    ``leq(ancestor, node) and not leq(node, ancestor)``.  Returns
    the first strictly increasing pair (ancestor id, node id), or None.  A
    wrapped ``order.leq`` therefore sees the calls that the pinned
    benchmark counts were recorded with.
    """
    leq = order.leq
    subsumed = [(i, n) for i, n in enumerate(nodes) if n.subsumed_by is not None]
    for _, n in subsumed:
        a = nodes[n.subsumed_by]
        if leq(n.state, a.state) and not order.eq(a.state, n.state):
            raise ValueError("ordering is not antisymmetric on observed states")
    for nid, n in subsumed:
        chain = []
        cur = n.parent
        while cur is not None:
            chain.append(cur)
            cur = nodes[cur].parent
        for aid in reversed(chain):
            a = nodes[aid].state
            if leq(a, n.state) and not leq(n.state, a):
                return aid, nid
    return None


# ---------------------------------------------------------------------------
# Bounded-language automata: an explicit transition table over every action,
# and a backward search over DFA pairs.


def ref_position_dfa(
    machine: FifoMachine, lang: BoundedLang, tracked: str, prefix: str
) -> tuple[tuple[str, ...], str, frozenset[str], dict]:
    """The position DFA for ``tracked`` (SEND or RECV) as a full table.

    Explores the per-channel (block, offset) trackers breadth first over
    every action in channels x {!, ?} x alphabet order, naming states
    ``prefix<n>`` in discovery order.  Every action of the other direction
    is stored as a self-loop; a missing entry rejects.  Returns
    ``(states, initial, accepting, delta)`` with ``delta`` keyed by
    ``(state, action)``.  The language must be distinct-letter.
    """
    per_channel_blocks = [lang.blocks[lang.channels.index(ch)] for ch in machine.channels]
    posmaps = [
        {letter: (bi, oi) for bi, w in enumerate(blocks) for oi, letter in enumerate(w)}
        for blocks in per_channel_blocks
    ]
    actions = [
        (ch, kind, letter)
        for ch in machine.channels
        for kind in (SEND, RECV)
        for letter in machine.alphabet.word(machine.alphabet.letters)
    ]

    def tracker_step(ci: int, pos: tuple[int, int], letter: str):
        hit = posmaps[ci].get(letter)
        if hit is None:
            return None
        k, l = hit
        i, j = pos
        if (k, l) == (i, j) or (j == l == 0 and k > i):
            return (k, (l + 1) % len(per_channel_blocks[ci][k]))
        return None

    initial = ((0, 0),) * len(per_channel_blocks)
    names = {initial: f"{prefix}0"}
    delta = {}
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for a in actions:
            ch, kind, letter = a
            if kind != tracked:
                nxt = state
            else:
                ci = machine.channels.index(ch)
                moved = tracker_step(ci, state[ci], letter)
                if moved is None:
                    continue
                nxt = state[:ci] + (moved,) + state[ci + 1 :]
            if nxt not in names:
                names[nxt] = f"{prefix}{len(names)}"
                queue.append(nxt)
            delta[(names[state], a)] = names[nxt]

    if tracked == SEND:
        accepting = frozenset(name for s, name in names.items() if all(p[1] == 0 for p in s))
    else:
        accepting = frozenset(names.values())
    return tuple(names.values()), names[initial], accepting, delta


def ref_product_machine(
    machine: FifoMachine, lang: BoundedLang
) -> tuple[tuple[str, ...], list[tuple[str, str, str, str, str]]]:
    """The product with the send and receive position DFAs, as a textbook
    breadth-first search over ``(q, s, r)`` triples.

    Steps through :func:`ref_position_dfa`'s full tables, takes each
    control state's transitions in declaration order, and names a triple
    ``q_s_r``.  Returns the triples' names in discovery order and the
    product transitions ``(source, channel, kind, letter, target)`` in the
    order they are found.
    """
    _, s0, _, send = ref_position_dfa(machine, lang, SEND, "s")
    _, r0, _, recv = ref_position_dfa(machine, lang, RECV, "r")
    init = (machine.initial, s0, r0)
    names = {init: "_".join(init)}
    transitions = []
    queue = deque([init])
    while queue:
        q, s, r = queue.popleft()
        for t in machine.transitions:
            if t.source != q:
                continue
            action = (t.channel, t.kind, t.letter)
            s2, r2 = send.get((s, action)), recv.get((r, action))
            if s2 is None or r2 is None:
                continue
            triple = (t.target, s2, r2)
            if triple not in names:
                names[triple] = "_".join(triple)
                queue.append(triple)
            transitions.append((names[q, s, r], *action, names[triple]))
    return tuple(names.values()), transitions


def ref_completable_pairs(machine: FifoMachine, send_dfa: Dfa, recv_dfa: Dfa) -> set[tuple[str, str]]:
    """DFA state pairs from which some action word reaches acceptance in both."""
    actions = [
        (ch, kind, letter)
        for ch in machine.channels
        for kind in (SEND, RECV)
        for letter in machine.alphabet.word(machine.alphabet.letters)
    ]
    pairs = [(s, r) for s in send_dfa.states for r in recv_dfa.states]
    preds: dict[tuple[str, str], set[tuple[str, str]]] = {p: set() for p in pairs}
    for s, r in pairs:
        for a in actions:
            s2 = send_dfa.step(s, a)
            r2 = recv_dfa.step(r, a)
            if s2 is not None and r2 is not None:
                preds[(s2, r2)].add((s, r))
    good = {
        (s, r)
        for s, r in pairs
        if s in send_dfa.accepting and r in recv_dfa.accepting
    }
    queue = deque(good)
    while queue:
        p = queue.popleft()
        for q in preds[p]:
            if q not in good:
                good.add(q)
                queue.append(q)
    return good


# ---------------------------------------------------------------------------
# Down-set denotations by brute enumeration.


def ref_ideal_member(ideal, x: CounterConfig) -> bool:
    return x.control == ideal.control and all(
        v <= b for v, b in zip(x.values, ideal.bounds)
    )


def downset_members(machine: CounterMachine, d: DownSet, cap: int) -> set[CounterConfig]:
    """All members with every entry <= cap, by exhaustive enumeration."""
    out = set()
    k = len(machine.counters)
    for control in machine.states:
        for values in iproduct(range(cap + 1), repeat=k):
            x = CounterConfig(control, values)
            if any(ref_ideal_member(i, x) for i in d.ideals):
                out.add(x)
    return out


def ref_post_downclosed(
    machine: CounterMachine, members: Iterable[CounterConfig], cap: int
) -> set[CounterConfig]:
    """Down-closure (within the cap box) of one exact step from each member."""
    hits = set()
    for x in members:
        for label in range(len(machine.transitions)):
            y = ref_counter_step(machine, x, label)
            if y is not None:
                hits.add(y)
    out = set()
    for y in hits:
        for values in iproduct(*(range(min(v, cap) + 1) for v in y.values)):
            out.add(CounterConfig(y.control, tuple(values)))
    return out


def _ref_antichain_subsets(vectors: list, max_size: int) -> list[tuple]:
    out = []
    for size in range(0, max_size + 1):
        for combo in combinations(vectors, size):
            if not any(
                all(x <= y for x, y in zip(a, b)) or all(y <= x for x, y in zip(a, b))
                for a, b in combinations(combo, 2)
            ):
                out.append(combo)
    return out


def _ref_fits_bound(d: DownSet, controls: Sequence[str], bound: int) -> bool:
    per_control = {q: 0 for q in controls}
    for i in d.ideals:
        per_control[i.control] += 1
        if per_control[i.control] > bound:
            return False
        if any(e != OMEGA and e > bound for e in i.bounds):
            return False
    return True


def ref_downset_candidates(machine: CounterMachine) -> Iterator[DownSet]:
    """The certificate candidates by brute force, in the library's order:
    every subset of every vector list is tried for being an antichain, and
    every combination is built and sorted before the smaller-bound test."""
    k = len(machine.counters)
    controls = machine.states
    for bound in count(1) if k else (1,):
        entries = list(range(bound + 1)) + [OMEGA]
        vectors = [tuple(v) for v in iproduct(entries, repeat=k)]
        options = _ref_antichain_subsets(vectors, bound)
        for combo in iproduct(options, repeat=len(controls)):
            ideals = [Ideal(q, vec) for q, part in zip(controls, combo) for vec in part]
            d = DownSet(tuple(sorted(ideals, key=lambda i: (i.control, i.bounds))))
            if _ref_fits_bound(d, controls, bound - 1):
                continue
            yield d


def ref_x0_coverability(
    machine: CounterMachine, x0: CounterConfig, y: CounterConfig, budget: int
) -> AnalysisVerdict:
    """The library's ``x0_coverability`` round loop as first written: one
    breadth-first step and one brute-force candidate per round, each
    candidate tested with the public ``downset_contains`` and
    ``downset_closed``.  The same outcome, witness and rounds."""
    parent: dict = {x0: None}
    queue = deque([x0])
    candidates = ref_downset_candidates(machine)
    rounds = 0
    while rounds < budget:
        rounds += 1
        if queue:
            x = queue.popleft()
            if ref_counter_leq(y, x):
                labels = []
                while parent[x] is not None:
                    x, label = parent[x]
                    labels.append(label)
                return AnalysisVerdict(Outcome.POSITIVE, tuple(reversed(labels)), rounds)
            for label in range(len(machine.transitions)):
                nxt = ref_counter_step(machine, x, label)
                if nxt is not None and nxt not in parent:
                    parent[nxt] = (x, label)
                    queue.append(nxt)
        else:
            certificate = downset_normalize(Ideal(c.control, c.values) for c in parent)
            return AnalysisVerdict(Outcome.NEGATIVE, certificate, rounds)
        d = next(candidates, None)
        if d is None:
            break
        if downset_contains(d, x0) and not downset_contains(d, y) and downset_closed(machine, d):
            return AnalysisVerdict(Outcome.NEGATIVE, d, rounds)
    return AnalysisVerdict(Outcome.INCONCLUSIVE, None, rounds)


# ---------------------------------------------------------------------------
# Finite explicit transition systems, for order/compatibility cross-checks.
# A system is (states, succs) with succs a mapping state -> iterable of states.


def reach_closure(succs, roots) -> set:
    seen = set(roots)
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in succs[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def down_closure(states, leq: Callable, seeds) -> set:
    return {x for x in states if any(leq(x, s) for s in seeds)}


def is_monotone(states, succs, leq: Callable) -> bool:
    """Each step below may be answered by a multi-step run above."""
    above = {x: reach_closure(succs, [x]) for x in states}
    for x1 in states:
        for y1 in states:
            if not leq(x1, y1):
                continue
            for x2 in succs[x1]:
                if not any(leq(x2, y2) for y2 in above[y1]):
                    return False
    return True


def is_cover_monotone_from(states, succs, leq: Callable, x0) -> bool:
    """Same condition, with the larger state drawn from the cover of x0."""
    cover = down_closure(states, leq, reach_closure(succs, [x0]))
    above = {y: reach_closure(succs, [y]) for y in states}
    for y1 in cover:
        for x1 in states:
            if not leq(x1, y1):
                continue
            for x2 in succs[x1]:
                if not any(leq(x2, y2) for y2 in above[y1]):
                    return False
    return True


# ---------------------------------------------------------------------------
# Bounded refutation of monotonicity relative to x0, as first written.


def ref_check_cover_monotone_bounded(
    machine: CounterMachine, x0: CounterConfig, value_cap: int, length_cap: int
) -> tuple[bool, Optional[tuple[CounterConfig, CounterConfig, int, CounterConfig]]]:
    """The library's ``check_cover_monotone_bounded`` before it shared one
    bounded search per y1: for every step x1 -> x2 below y1 this re-runs a
    level-by-level search from y1 (at most ``length_cap`` steps) that stops
    at the first y2 with x2 <= y2.  Same caps, same result, and the same
    first violation (y1, x1, label, x2) in canonical order."""
    if value_cap < 1 or length_cap < 1:
        raise ValueError("caps must be >= 1")
    labels = range(len(machine.transitions))

    def steps(x):
        for label in labels:
            y = ref_counter_step(machine, x, label)
            if y is not None:
                yield label, y

    reached = {x0}
    queue = deque([x0])
    while queue:
        x = queue.popleft()
        for _, nxt in steps(x):
            if max(nxt.values, default=0) <= value_cap and nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)
    cover = {
        CounterConfig(c.control, values)
        for c in reached
        for values in iproduct(*(range(v + 1) for v in c.values))
    }
    control_rank = {q: i for i, q in enumerate(machine.states)}
    for y1 in sorted(cover, key=lambda c: (control_rank[c.control], c.values)):
        for values in iproduct(*(range(v + 1) for v in y1.values)):
            x1 = CounterConfig(y1.control, values)
            for label, x2 in steps(x1):
                frontier = {y1}
                seen = {y1}
                found = any(ref_counter_leq(x2, y2) for y2 in frontier)
                depth = 0
                while not found and depth < length_cap and frontier:
                    depth += 1
                    nxt_frontier = set()
                    for y in frontier:
                        for _, y2 in steps(y):
                            if y2 not in seen:
                                seen.add(y2)
                                nxt_frontier.add(y2)
                    frontier = nxt_frontier
                    found = any(ref_counter_leq(x2, y2) for y2 in frontier)
                if not found:
                    return False, (y1, x1, label, x2)
    return True, None
