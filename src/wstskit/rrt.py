"""Reduced reachability trees and the analyses built on them.

The tree unfolds a system breadth-first but stops below any node whose
state is at or above an ancestor state: such a node is recorded as dead
and subsumed, since continuing the branch can only repeat behaviour the
ancestor already enables.  Deadlocked nodes are dead without a subsumer.
On top of the tree sit three analyses: boundedness of the reachability
set, non-termination via subsumed nodes, and non-termination via
iterable nodes, whose loop is checked to replay concretely with growth.
"""

from __future__ import annotations

import gc
from collections import deque
from typing import Any, Iterator, NamedTuple, Optional

from ._record import Fields
from .olts import Olts
from .verdict import DEFAULT_BUDGET, AnalysisVerdict, Outcome

LIVE = "live"
DEAD = "dead"


class RrtNode(Fields):
    """A tree node; its id is its position in ``Rrt.nodes``."""

    __slots__ = _fields = ("state", "parent", "label", "mark", "subsumed_by")

    def __init__(
        self,
        state: Any,
        parent: Optional[int],
        label: Optional[Any],
        mark: str = LIVE,
        subsumed_by: Optional[int] = None,
    ) -> None:
        self.state = state
        self.parent = parent
        self.label = label
        self.mark = mark
        self.subsumed_by = subsumed_by


class Rrt(NamedTuple):
    """Tree nodes in creation (breadth-first) order; ``complete`` unless
    the budget cut the build; the system that was unfolded, whose order
    and formatters the analyses and :func:`export_dot` read; and, for a
    tree from :func:`build_lrrt`, the ids of its iterable nodes."""

    nodes: list[RrtNode]
    complete: bool
    system: Olts
    iterable: tuple[int, ...] = ()

    def ancestor_ids(self, node_id: int) -> list[int]:
        """Strict ancestors of a node, root first."""
        nodes = self.nodes  # a local reads faster than a named-tuple field
        chain = []
        cur = nodes[node_id].parent
        while cur is not None:
            chain.append(cur)
            cur = nodes[cur].parent
        chain.reverse()
        return chain

    def path_labels(self, node_id: int) -> list[Any]:
        """Transition labels along the path from the root to the node."""
        path = (self.ancestor_ids(node_id) + [node_id])[1:]
        return [self.nodes[i].label for i in path]

    def loop_labels(self, node_id: int) -> list[Any]:
        """Labels of the path from a subsumed node's subsumer down to it."""
        node = self.nodes[node_id]
        if node.subsumed_by is None:
            raise ValueError(f"node {node_id} is not subsumed")
        skip = len(self.ancestor_ids(node.subsumed_by))
        return self.path_labels(node_id)[skip:]

    def subsumed_nodes(self) -> Iterator[tuple[int, RrtNode]]:
        """``(id, node)`` for each subsumed node, in id order."""
        return ((i, n) for i, n in enumerate(self.nodes) if n.subsumed_by is not None)


def build_rrt(olts: Olts, budget: int = DEFAULT_BUDGET) -> Rrt:
    """Breadth-first reduced reachability tree, capped at ``budget`` nodes.

    A child whose state is at or above the state of one of its ancestors
    (the node itself included) is marked dead and subsumed by the closest
    such ancestor to the root; it is not expanded further.  A live node
    with no enabled transitions is re-marked dead at expansion time, with
    no subsumer.  When creating one more node would exceed the budget,
    construction stops and the tree is not ``complete``; marks already
    assigned remain valid for the partial tree.  The tree keeps ``olts``
    as its ``system``.

    ``olts.post`` must depend on its state alone, and states must hash.
    The build replaces each successor that ``post`` returns by the first
    equal state it met, so the tree holds one object per distinct state;
    a state's successor list is computed on its first and second expansion
    and reused from the third on, so ``post`` runs at most twice per
    distinct state.

    The cyclic garbage collector is paused while the tree grows, and left
    enabled or disabled as it was found, also when ``post`` raises.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # nodes link by int id and the build makes no reference cycles, so a
    # collection pass would only rescan the growing tree
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _grow(olts, budget)
    finally:
        if enabled:
            gc.enable()


def _grow(olts: Olts, budget: int) -> Rrt:
    leq = olts.order.leq
    post = olts.post
    x0 = olts.initial
    nodes = [RrtNode(x0, None, None)]
    exhausted = False
    # one object per distinct state: the first equal state met stands in
    # for every successor that ``post`` returns
    canon = {x0: x0}
    # successor lists by state id, kept from a state's second expansion on so
    # that a state met once costs no list; ids are stable because every
    # state stays alive in ``nodes`` until the build returns
    once: set[int] = set()
    memo: dict[int, list] = {}
    # each queued node id travels with the states of its strict ancestors,
    # root first; siblings share one tuple, so no expansion walks the tree
    queue = deque([(0, ())])
    while queue and not exhausted:
        nid, above = queue.popleft()
        node = nodes[nid]
        x = node.state
        key = id(x)
        succs = memo.get(key)
        if succs is None:
            succs = [(label, canon.setdefault(y, y)) for label, y in post(x)]
            if key in once:
                memo[key] = succs
            else:
                once.add(key)
        if not succs:
            node.mark = DEAD
            continue
        path = above + (x,)
        for label, y in succs:
            if len(nodes) >= budget:
                exhausted = True
                break
            # the first hit scanning from the root: the subsumer closest to
            # it; a plain loop, because Python 3.11+ inlines calls from
            # Python to Python, and not calls made from C, as in ``map``
            for hit, a in enumerate(path):
                if leq(a, y):
                    sid = nid
                    for _ in range(len(path) - 1 - hit):
                        sid = nodes[sid].parent
                    nodes.append(RrtNode(y, nid, label, DEAD, sid))
                    break
            else:
                queue.append((len(nodes), path))
                nodes.append(RrtNode(y, nid, label))
    return Rrt(nodes, not exhausted, olts)


def decide_boundedness(rrt: Rrt, strict_asserted: bool = False) -> AnalysisVerdict:
    """Is the reachability set infinite, by the order of the tree's system?

    Positive (unbounded) on an ancestor pair that strictly increases along
    a branch; the witness is ``(ancestor_id, node_id)``.  Unless
    ``strict_asserted``, the positive answer carries a caveat: it relies
    on strictly larger states being able to replay the loop with strict
    growth.  Negative (bounded) when the tree is complete and no strictly
    increasing pair exists; every subsumption then closes a loop over
    already-seen states, so the answer is unconditional.  Inconclusive
    when the budget ran out first.

    Raises ValueError if the subsumption pairs reveal the ordering is not
    antisymmetric: the bounded verdict needs a partial order.
    """
    nodes = rrt.nodes
    order = rrt.system.order
    for _, n in rrt.subsumed_nodes():
        a = nodes[n.subsumed_by]
        if order.leq(n.state, a.state) and not order.eq(a.state, n.state):
            raise ValueError(
                "ordering is not antisymmetric on observed states; "
                "boundedness analysis requires a partial order"
            )
    leq = order.leq
    witness = None
    for nid, n in rrt.subsumed_nodes():
        x = n.state
        # the first ancestor a, root first, strictly below x; leq(x, a) runs
        # only where a <= x, so the recorded leq calls stay the same
        for aid in rrt.ancestor_ids(nid):
            a = nodes[aid].state
            if leq(a, x) and not leq(x, a):
                witness = (aid, nid)
                break
        if witness is not None:
            break
    caveat = None if strict_asserted else (
        "unboundedness assumes strict compatibility: transitions fired "
        "from a strictly larger state reach a strictly larger state"
    )
    return _tree_verdict(rrt, witness, caveat)


def decide_nontermination(rrt: Rrt, monotone_asserted: bool = False) -> AnalysisVerdict:
    """Does some infinite run of the tree's system exist?

    Positive on any subsumed node; the witness is ``(subsumer_id,
    node_id)`` and the run is the branch to the subsumer followed by the
    loop forever.  A witness whose two states are equal is preferred,
    because the loop then literally repeats and the answer needs no
    assumption; equality is the ``eq`` of the system's order.  A strictly
    increasing witness carries a caveat unless ``monotone_asserted``:
    replaying the loop from the larger state must stay enabled.  Negative
    when the tree is complete and nothing was subsumed: every branch of
    the full unfolding ends in a deadlock.
    """
    eq_witness = None
    any_witness = None
    for nid, n in rrt.subsumed_nodes():
        if any_witness is None:
            any_witness = (n.subsumed_by, nid)
        if rrt.system.order.eq(rrt.nodes[n.subsumed_by].state, n.state):
            eq_witness = (n.subsumed_by, nid)
            break
    if eq_witness is not None:
        return _tree_verdict(rrt, eq_witness, None)
    caveat = None if monotone_asserted else (
        "non-termination assumes compatibility: the loop stays "
        "fireable from the larger state it reaches"
    )
    return _tree_verdict(rrt, any_witness, caveat)


def _tree_verdict(rrt: Rrt, witness: Any, caveat: Optional[str]) -> AnalysisVerdict:
    """Positive on a witness, negative on a complete tree, else inconclusive."""
    used = len(rrt.nodes)
    if witness is not None:
        return AnalysisVerdict(Outcome.POSITIVE, witness, used, () if caveat is None else (caveat,))
    if rrt.complete:
        return AnalysisVerdict(Outcome.NEGATIVE, None, used)
    return AnalysisVerdict(Outcome.INCONCLUSIVE, None, used)


def build_lrrt(olts: Olts, budget: int = DEFAULT_BUDGET) -> Rrt:
    """Reduced reachability tree with its iterable nodes listed.

    For each subsumed node, the loop from its subsumer down to it is
    replayed once more, concretely, from the subsumed node's own state.
    The node is iterable when the replay goes through and ends at a state
    at or above the node's state; ``Rrt.iterable`` holds their ids.
    """
    rrt = build_rrt(olts, budget)
    iterable = []
    for nid, n in rrt.subsumed_nodes():
        x, stuck = olts.run(rrt.loop_labels(nid), n.state)
        if stuck is None and olts.order.leq(n.state, x):
            iterable.append(nid)
    return rrt._replace(iterable=tuple(iterable))


def decide_nonterm_by_iterable(lrrt: Rrt) -> AnalysisVerdict:
    """Non-termination from iterable nodes; never answers negative.

    An iterable node's loop fired once from the subsumer and once more
    from the subsumed state, growing both times; for counter machines the
    replay pins every zero-tested counter to a fixed value, and for FIFO
    machines the channel words satisfy the periodicity equation that
    makes the loop repeat forever.  So a positive answer is unconditional.
    The absence of iterable nodes proves nothing, even on a complete
    tree: a terminating loop check belongs to the subsumption analysis.
    """
    used = len(lrrt.nodes)
    if lrrt.iterable:
        nid = lrrt.iterable[0]
        return AnalysisVerdict(Outcome.POSITIVE, (nid, tuple(lrrt.loop_labels(nid))), used)
    return AnalysisVerdict(Outcome.INCONCLUSIVE, None, used)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(rrt: Rrt) -> str:
    """Graphviz text for a tree, states and labels shown by the formatters
    of its system: dead nodes dashed, iterable ones doubled, subsumption
    shown as a dashed back-edge to the subsumer."""
    lines = ["digraph rrt {", "  rankdir=TB;", '  node [shape=box, fontname="monospace"];']
    iterable = set(rrt.iterable)
    for i, n in enumerate(rrt.nodes):
        attrs = [f'label="{_dot_escape(rrt.system.state_fmt(n.state))}"']
        if n.mark == DEAD:
            attrs.append("style=dashed")
        if i in iterable:
            attrs.append("peripheries=2")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for i, n in enumerate(rrt.nodes):
        if n.parent is not None:
            lines.append(
                f'  n{n.parent} -> n{i} [label="{_dot_escape(rrt.system.label_fmt(n.label))}"];'
            )
    for i, n in rrt.subsumed_nodes():
        lines.append(f"  n{i} -> n{n.subsumed_by} [style=dashed, constraint=false];")
    if not rrt.complete:
        lines.append('  budget [shape=plaintext, label="budget exhausted"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
