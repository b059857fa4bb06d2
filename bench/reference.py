"""A fixed pure-Python workload that measures how fast the host runs.

    python3 bench/reference.py

It imports nothing of wstskit and never changes, so its wall time moves
only with the host: run next to each timed CLI invocation, it tells how
much of that invocation's time was the host's (see ``run.py``).  The work
resembles the program's own mix: tuples built and hashed into a dict, a
tree of small objects, componentwise comparisons along ancestor chains.
"""

from __future__ import annotations

SIZE = 20  # vectors of 4 components summing to at most SIZE


class _Node:
    __slots__ = ("vec", "parent")

    def __init__(self, vec, parent):
        self.vec = vec
        self.parent = parent


def _leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def search(size: int = SIZE) -> int:
    """Depth-first search of the vectors below ``size``, each node checked
    against its ancestors; returns the number of (node, ancestor) checks."""
    seen = {}
    stack = [_Node((0, 0, 0, 0), None)]
    checks = 0
    while stack:
        node = stack.pop()
        vec = node.vec
        for k in range(4):
            succ = vec[:k] + (vec[k] + 1,) + vec[k + 1:]
            if sum(succ) > size:
                continue
            seen[succ] = seen.get(succ, 0) + 1
            if seen[succ] > 1:
                continue
            anc = node
            while anc is not None and _leq(anc.vec, succ):
                checks += 1
                anc = anc.parent
            stack.append(_Node(succ, node))
    return checks


if __name__ == "__main__":
    print(search())
