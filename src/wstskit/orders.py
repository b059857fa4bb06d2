"""Quasi-orderings on states and words, plus antichain witness search.

Every analysis in this package is parametrised by an order on states.
Orders are passed around as first-class :class:`Order` values that bundle
the relation with the matching state-equality predicate, so strictness is
always derived from one source of truth.
"""

from __future__ import annotations

from operator import le
from typing import Any, Callable, NamedTuple, Sequence


def _structural_eq(a: Any, b: Any) -> bool:
    return a == b


class Order(NamedTuple):
    """A decidable quasi-order together with state equality.

    ``strictly_less`` is derived from ``leq`` and never supplied
    independently, which rules out inconsistent (leq, lt) pairs.
    """

    leq: Callable[[Any, Any], bool]
    eq: Callable[[Any, Any], bool] = _structural_eq

    def strictly_less(self, x: Any, y: Any) -> bool:
        return self.leq(x, y) and not self.leq(y, x)

    def incomparable(self, x: Any, y: Any) -> bool:
        return not self.leq(x, y) and not self.leq(y, x)


def nat_vec_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Componentwise order on equal-dimension vectors of naturals (ω, as
    ``float("inf")``, compares above every natural)."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return all(a <= b for a, b in zip(u, v))


def prefix_leq(u: Sequence, w: Sequence) -> bool:
    """True iff u is a prefix of w.  Works on strings and letter tuples."""
    if len(u) > len(w):
        return False
    return all(a == b for a, b in zip(u, w))


def _ext_prefix_leq(x, y) -> bool:
    """ext_prefix_leq for configurations known to share a channel signature."""
    if x.control != y.control:
        return False
    for u, w in zip(x.contents, y.contents):
        if w[: len(u)] != u:
            return False
    return True


def _counter_state_leq(x, y) -> bool:
    """counter_state_leq for configurations known to share a counter signature."""
    return x.control == y.control and all(map(le, x.values, y.values))


def ext_prefix_leq(x, y) -> bool:
    """Extended prefix order on FIFO configurations.

    Holds iff the control states are equal and every channel content of x
    is a prefix of the corresponding channel content of y.
    """
    if len(x.contents) != len(y.contents):
        raise ValueError("configurations have different channel signatures")
    return _ext_prefix_leq(x, y)


def counter_state_leq(x, y) -> bool:
    """Order on counter configurations: equal control, componentwise values."""
    if len(x.values) != len(y.values):
        raise ValueError("configurations have different counter signatures")
    return _counter_state_leq(x, y)


#: The two machine orders used throughout the package.  Their ``leq`` skips
#: the signature check: ``counter_olts``/``fifo_olts`` check the initial
#: configuration once, and successors keep its signature.
COUNTER_ORDER = Order(leq=_counter_state_leq)
EXT_PREFIX_ORDER = Order(leq=_ext_prefix_leq)


def find_antichain_on_run(system, labels: Sequence, limit: int) -> list:
    """Greedy hunt for pairwise-incomparable states along a run.

    The run is replayed from the system's initial state; all visited states
    (initial state included) are scanned left to right, and a state is kept
    when it is incomparable with everything kept so far, stopping once
    ``limit`` states are kept.  The result is maximal in the sense that no
    state visited later in the run could be added, not a globally largest
    antichain.  Runs whose visited states form a chain yield ``[]``; fewer
    than two kept states means there is no antichain worth reporting.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    order = system.order
    visited = [system.initial]
    for i, label in enumerate(labels):
        nxt = system.step(visited[-1], label)
        if nxt is None:
            raise ValueError(f"run not executable: stuck at index {i}")
        visited.append(nxt)
    kept: list = []
    for s in visited:
        if len(kept) >= limit:
            break
        if all(order.incomparable(k, s) for k in kept):
            kept.append(s)
    return kept if len(kept) >= 2 else []
