"""Downward-closed set algebra over counter-machine states and the
coverability procedures built on it.

A downward-closed set is a finite union of ideals (control state plus a
vector over ℕ ∪ {ω}).  On top of the algebra sit:

  * a decision loop from a fixed initial state that interleaves exact
    forward search with a certificate search, which enumerates candidate
    downward-closed invariants and is sound for arbitrary machines, and
  * a bounded refutation check for monotonicity relative to one initial
    state.

Zero tests are the fault line: the one-step image of a downward-closed
set stays exactly computable (a zero test restricts an ideal to its
member states with the tested entries at 0), but backward reasoning,
which relies on monotonicity, breaks; so the decision loop searches
forward and for certificates, and never backward.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import le
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from ._explore import Explorer
from .counter import (
    OMEGA,
    OP_DEC,
    OP_INC,
    CounterConfig,
    CounterMachine,
    cm_post,
)
from .orders import counter_state_leq, nat_vec_leq
from .verdict import DEFAULT_BUDGET, AnalysisVerdict, Outcome

Vec = tuple  # entries are ints, or OMEGA


def entry_str(e) -> str:
    return "ω" if e == OMEGA else str(int(e))


class Ideal(NamedTuple):
    """One directed downward-closed block: a control state and entry-wise
    bounds, with ω for an unbounded component."""

    control: str
    bounds: Vec

    def show(self) -> str:
        return f"{self.control}:({','.join(entry_str(e) for e in self.bounds)})"


def ideal_contains(ideal: Ideal, x: CounterConfig) -> bool:
    if len(ideal.bounds) != len(x.values):
        raise ValueError(f"dimension mismatch: {len(ideal.bounds)} vs {len(x.values)}")
    return ideal.control == x.control and all(map(le, x.values, ideal.bounds))


def ideal_subset(i1: Ideal, i2: Ideal) -> bool:
    return i1.control == i2.control and nat_vec_leq(i1.bounds, i2.bounds)


class DownSet(NamedTuple):
    """Inclusion-minimal union of ideals, canonically ordered.

    Build through :func:`downset_normalize`; the constructor trusts its
    input to already be an antichain in sorted order.
    """

    ideals: tuple[Ideal, ...]

    def show(self) -> str:
        return "{" + ", ".join(i.show() for i in self.ideals) + "}"


def downset_normalize(ideals: Iterable[Ideal]) -> DownSet:
    """Drop every ideal contained in another; sort as (control, bounds).

    Duplicates are removed first, so afterwards only strict inclusion can
    hold between distinct ideals and the survivors are unambiguous.
    """
    pool = list(dict.fromkeys(ideals))
    return DownSet(tuple(sorted(
        a for a in pool if not any(b is not a and ideal_subset(a, b) for b in pool))))


def downset_contains(d: DownSet, x: CounterConfig) -> bool:
    return any(ideal_contains(i, x) for i in d.ideals)


def _covers(d: DownSet, x: CounterConfig) -> bool:
    """downset_contains for a configuration known to have d's dimension."""
    control, values = x.control, x.values
    return any(i.control == control and all(map(le, values, i.bounds)) for i in d.ideals)


def downset_subset(d1: DownSet, d2: DownSet) -> bool:
    """Denotation inclusion; an ideal lies in a union iff in one member."""
    return all(any(ideal_subset(a, b) for b in d2.ideals) for a in d1.ideals)


def _ideal_post(machine: CounterMachine, ideal: Ideal) -> Iterator[Ideal]:
    """Successor ideals of one ideal, per transition from its control state.

    A zero test first restricts the ideal to the sub-ideal with the tested
    entries at 0 (never empty, the sets are downward closed); then inc
    adds one to the bound (ω stays ω), dec needs a bound of at least 1 or
    ω and subtracts one (ω stays ω), otherwise the transition contributes
    nothing.
    """
    for _, zeros, ci, op, target in machine.post_index[ideal.control]:
        bounds = list(ideal.bounds)
        for j in zeros:
            bounds[j] = 0
        if op == OP_INC:
            bounds[ci] = bounds[ci] + 1
        elif op == OP_DEC:
            if bounds[ci] < 1:
                continue
            bounds[ci] = bounds[ci] - 1
        yield Ideal(target, tuple(bounds))


def downset_post(machine: CounterMachine, d: DownSet) -> DownSet:
    """Exact one-step image, downward closed: the union of the successor
    ideals of every ideal of d."""
    for i in d.ideals:
        machine.check(i, "ideal")
    return downset_normalize(s for ideal in d.ideals for s in _ideal_post(machine, ideal))


def downset_closed(machine: CounterMachine, d: DownSet) -> bool:
    """Whether d is inductive, post(d) ⊆ d.

    The same answer as ``downset_subset(downset_post(machine, d), d)``, but
    each successor ideal is tested against d as it is made, and the test
    stops at the first one outside d, without normalising the image.
    """
    for i in d.ideals:
        machine.check(i, "ideal")
    return _closed(d, partial(_ideal_post, machine))


def _closed(d: DownSet, post: Callable[[Ideal], Iterable[Ideal]]) -> bool:
    """downset_closed with the successor ideals of an ideal read from
    ``post``, for a d whose ideals have the machine's controls and dimension."""
    ideals = d.ideals
    return all(
        any(s.control == b.control and all(map(le, s.bounds, b.bounds)) for b in ideals)
        for ideal in ideals
        for s in post(ideal)
    )


def _antichain_subsets(vectors: list[Vec], max_size: int) -> list[tuple[Vec, ...]]:
    """Every antichain of at most ``max_size`` vectors, by size and then in
    the order ``itertools.combinations`` lists subsets of that size.

    Antichains are closed under subsets, so each antichain of size s + 1
    is one of size s grown by a later vector incomparable with all of its
    members.  Each antichain carries those vectors as a bitmask over
    positions in ``vectors``; growing by position j keeps the bits above j
    that are also incomparable with vector j.
    """
    later = [0] * len(vectors)  # bit j of later[i]: j > i and the two incomparable
    for i, a in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            b = vectors[j]
            if not (nat_vec_leq(a, b) or nat_vec_leq(b, a)):
                later[i] |= 1 << j
    out: list[tuple[Vec, ...]] = [()]
    level: list[tuple[tuple[Vec, ...], int]] = [((), (1 << len(vectors)) - 1)]
    for _ in range(max_size):
        grown = []
        for combo, free in level:
            while free:
                low = free & -free
                free ^= low
                j = low.bit_length() - 1
                grown.append((combo + (vectors[j],), free & later[j]))
        out.extend(combo for combo, _ in grown)
        level = grown
    return out


def downset_candidates(machine: CounterMachine) -> Iterator[DownSet]:
    """Fair enumeration of all canonical downward-closed sets.

    Bound B = 1, 2, ... ; at bound B the finite entries range over 0..B
    and each control state holds at most B pairwise incomparable vectors
    (ω entries are allowed at every bound).  Per-control vector lists are
    ordered lexicographically with ω last, subsets by size then position,
    and the per-control choices combine in control declaration order.
    Sets already produced at a smaller bound are skipped: those whose
    every per-control choice fits bound B - 1.  With no counters every
    set appears at bound 1, so the enumeration ends there.
    """
    k = len(machine.counters)
    controls = machine.states
    # each choice's vectors are already sorted; join them by control name
    canonical = sorted(range(len(controls)), key=controls.__getitem__)
    for bound in itertools.count(1) if k else (1,):
        entries = list(range(bound + 1)) + [OMEGA]
        options = _antichain_subsets(list(itertools.product(entries, repeat=k)), bound)
        fits_below = [
            len(part) < bound and all(e == OMEGA or e < bound for v in part for e in v)
            for part in options
        ]
        # the ideals of option j at control i, built on first use
        parts: list[dict[int, tuple[Ideal, ...]]] = [{} for _ in controls]
        for combo in itertools.product(range(len(options)), repeat=len(controls)):
            if all(fits_below[j] for j in combo):
                continue
            ideals: tuple[Ideal, ...] = ()
            for i in canonical:
                built, j = parts[i], combo[i]
                part = built.get(j)
                if part is None:
                    part = built[j] = tuple(Ideal(controls[i], v) for v in options[j])
                ideals += part
            yield DownSet(ideals)


def x0_coverability(
    machine: CounterMachine,
    x0: CounterConfig,
    y: CounterConfig,
    budget: int = DEFAULT_BUDGET,
) -> AnalysisVerdict:
    """Coverability of y from the fixed initial state x0.

    Interleaves, one round each: an exact breadth-first search over the
    reachable configurations (a configuration at or above y is a positive
    witness; its label run is returned), and a test of the next candidate
    of :func:`downset_candidates` (an inductive invariant separating x0
    from y is a negative witness).  If the forward search exhausts the
    reachable set first, the answer is negative with the closure of the
    reached configurations as certificate.  Both definite answers are
    exact facts; the budget bounds the number of rounds, and termination
    within any budget is only guaranteed for systems that are monotone
    relative to x0.  Raises ValueError when the budget is below 1, and when
    :meth:`CounterMachine.check` refuses x0 or y.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    machine.check(x0, "initial")
    machine.check(y, "target")
    # the forward search; cm_post and counter_state_leq stay global lookups
    explorer = Explorer(x0)
    frontier = iter(explorer)
    candidates = downset_candidates(machine)
    # successor ideals per ideal, shared by the candidates' closure tests
    successors: dict[Ideal, tuple[Ideal, ...]] = {}

    def post(ideal: Ideal) -> tuple[Ideal, ...]:
        s = successors.get(ideal)
        if s is None:
            s = successors[ideal] = tuple(_ideal_post(machine, ideal))
        return s

    rounds = 0
    while rounds < budget:
        rounds += 1
        popped = next(frontier, None)
        if popped is None:
            # forward search complete: the reached set is exactly Post*
            certificate = downset_normalize(
                Ideal(c.control, c.values) for c in explorer.states
            )
            return AnalysisVerdict(Outcome.NEGATIVE, certificate, rounds)
        i, x = popped
        if counter_state_leq(y, x):
            return AnalysisVerdict(Outcome.POSITIVE, tuple(explorer.path(i)), rounds)
        for label, nxt in cm_post(machine, x):
            explorer.add(nxt, i, label)
        # endless with counters; without them the forward search answers first
        d = next(candidates)
        # the candidates are built from the machine's controls and dimension
        if _covers(d, x0) and not _covers(d, y) and _closed(d, post):
            return AnalysisVerdict(Outcome.NEGATIVE, d, rounds)
    return AnalysisVerdict(
        Outcome.INCONCLUSIVE,
        None,
        rounds,
        (
            "round budget exhausted; without monotonicity relative to the "
            "initial state neither search is guaranteed to terminate",
        ),
    )


def check_cover_monotone_bounded(
    machine: CounterMachine,
    x0: CounterConfig,
    value_cap: int,
    length_cap: int,
) -> tuple[bool, Optional[tuple[CounterConfig, CounterConfig, int, CounterConfig]]]:
    """Bounded refutation of monotonicity relative to x0.

    Enumerates the reachable configurations with counter values capped at
    ``value_cap``, closes them downward, and for every pair x1 ≤ y1 with
    y1 in that cover and every exact step x1 → x2 searches for y2 with
    y1 →* y2 (at most ``length_cap`` steps, values uncapped) and x2 ≤ y2.
    Returns (True, None) when no violation shows up within the caps; this
    is evidence, not proof.  A violation is returned as (y1, x1, label,
    x2), the first one in canonical order.  Raises ValueError on a cap
    below 1 and on an x0 that :func:`x0_coverability` refuses.
    """
    if value_cap < 1 or length_cap < 1:
        raise ValueError("caps must be >= 1")
    machine.check(x0, "initial")
    reached = Explorer(x0)
    for i, x in reached:
        for label, nxt in cm_post(machine, x):
            if max(nxt.values, default=0) <= value_cap:
                reached.add(nxt, i, label)

    cover: set[CounterConfig] = set()
    for c in reached.states:
        for values in itertools.product(*(range(v + 1) for v in c.values)):
            cover.add(CounterConfig(c.control, values))

    control_rank = {q: i for i, q in enumerate(machine.states)}
    for y1 in sorted(cover, key=lambda c: (control_rank[c.control], c.values)):
        # everything y1 reaches in at most length_cap steps, each expanded once
        reach = Explorer(y1)
        depth = [0]  # steps from y1, by index
        for i, y in reach:
            if depth[i] < length_cap:
                for label, y2 in cm_post(machine, y):
                    if reach.add(y2, i, label) == len(depth):
                        depth.append(depth[i] + 1)
        for values in itertools.product(*(range(v + 1) for v in y1.values)):
            x1 = CounterConfig(y1.control, values)
            for label, x2 in cm_post(machine, x1):
                if not any(counter_state_leq(x2, y2) for y2 in reach.states):
                    return False, (y1, x1, label, x2)
    return True, None
