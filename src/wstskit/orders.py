"""Quasi-orderings on states and vectors.

Every analysis in this package is parametrised by an order on states,
carried by the analysed system as ``Olts.order``; a tree reads it from
its ``system``.  An :class:`Order` bundles the relation with the matching
state-equality predicate, so strictness is always derived from one
source of truth.
"""

from __future__ import annotations

from operator import eq, le
from typing import Any, Callable, NamedTuple, Sequence


class Order(NamedTuple):
    """A decidable quasi-order together with state equality.

    Strictness, where a caller writes it out, is derived from ``leq``,
    which rules out inconsistent (leq, lt) pairs.
    """

    leq: Callable[[Any, Any], bool]
    eq: Callable[[Any, Any], bool] = eq  # operator.eq


def nat_vec_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Componentwise order on equal-dimension vectors of naturals (ω, as
    ``float("inf")``, compares above every natural)."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return all(a <= b for a, b in zip(u, v))


def _ext_prefix_leq(x, y) -> bool:
    """ext_prefix_leq for configurations known to share a channel signature."""
    if x.control != y.control:
        return False
    u = x.contents
    # A machine's channel count is fixed, so every call in a tree takes the
    # same branch.  One channel, the common case, is one direct prefix test:
    # the map iterator that `all` needs costs more than the test it wraps.
    if len(u) == 1:
        return y.contents[0].startswith(u[0])
    return all(map(str.startswith, y.contents, u))


def _counter_state_leq(x, y) -> bool:
    """counter_state_leq for configurations known to share a counter signature."""
    # Componentwise u <= v implies lexicographic u <= v (at the first index
    # where they differ, u_i < v_i), so the C-level tuple comparison only
    # rejects pairs that the scan would reject too.  On a decrementing
    # branch every ancestor is lexicographically above its descendant, and
    # that one comparison settles the pair.
    return (x.control == y.control and x.values <= y.values
            and all(map(le, x.values, y.values)))


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
