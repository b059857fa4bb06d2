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

from collections import deque
from itertools import compress, repeat
from typing import Any, Iterator, Optional

from ._record import Fields
from .olts import Olts
from .orders import Order
from .verdict import AnalysisVerdict, Outcome

LIVE = "live"
DEAD = "dead"

DEFAULT_BUDGET = 10000


class RrtNode(Fields):
    __slots__ = _fields = ("id", "state", "parent", "label", "mark", "subsumed_by", "iterable")

    def __init__(
        self,
        id: int,
        state: Any,
        parent: Optional[int],
        label: Optional[Any],
        mark: str = LIVE,
        subsumed_by: Optional[int] = None,
        iterable: bool = False,
    ) -> None:
        self.id = id
        self.state = state
        self.parent = parent
        self.label = label
        self.mark = mark
        self.subsumed_by = subsumed_by
        self.iterable = iterable


class Rrt(Fields):
    """Tree nodes in creation (breadth-first) order, plus budget facts."""

    _fields = ("nodes", "budget_exhausted")

    def __init__(self, nodes: list[RrtNode], budget_exhausted: bool) -> None:
        self.nodes = nodes
        self.budget_exhausted = budget_exhausted

    @property
    def complete(self) -> bool:
        return not self.budget_exhausted

    def ancestor_ids(self, node_id: int) -> list[int]:
        """Strict ancestors of a node, root first."""
        chain = []
        cur = self.nodes[node_id].parent
        while cur is not None:
            chain.append(cur)
            cur = self.nodes[cur].parent
        chain.reverse()
        return chain

    def path_labels(self, node_id: int) -> list[Any]:
        """Transition labels along the path from the root to the node."""
        labels = []
        cur = self.nodes[node_id]
        while cur.parent is not None:
            labels.append(cur.label)
            cur = self.nodes[cur.parent]
        labels.reverse()
        return labels

    def loop_labels(self, node_id: int) -> list[Any]:
        """Labels of the path from a subsumed node's subsumer down to it."""
        node = self.nodes[node_id]
        if node.subsumed_by is None:
            raise ValueError(f"node {node_id} is not subsumed")
        skip = len(self.path_labels(node.subsumed_by))
        return self.path_labels(node_id)[skip:]

    def subsumed_nodes(self) -> Iterator[RrtNode]:
        return (n for n in self.nodes if n.subsumed_by is not None)


def build_rrt(olts: Olts, budget: int = DEFAULT_BUDGET) -> Rrt:
    """Breadth-first reduced reachability tree, capped at ``budget`` nodes.

    A child whose state is at or above the state of one of its ancestors
    (the node itself included) is marked dead and subsumed by the closest
    such ancestor to the root; it is not expanded further.  A live node
    with no enabled transitions is re-marked dead at expansion time, with
    no subsumer.  When creating one more node would exceed the budget,
    construction stops and ``budget_exhausted`` is set; marks already
    assigned remain valid for the partial tree.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    leq = olts.order.leq
    nodes = [RrtNode(0, olts.initial, None, None)]
    exhausted = False
    queue = deque([0])
    while queue and not exhausted:
        nid = queue.popleft()
        node = nodes[nid]
        succs = olts.post(node.state)
        if not succs:
            node.mark = DEAD
            continue
        ids = []  # the node and its ancestors, reversed below to root first
        aid = nid
        while aid is not None:
            ids.append(aid)
            aid = nodes[aid].parent
        ids.reverse()
        states = [nodes[aid].state for aid in ids]
        for label, y in succs:
            if len(nodes) >= budget:
                exhausted = True
                break
            child = RrtNode(len(nodes), y, nid, label)
            nodes.append(child)
            # the first hit scanning from the root: the subsumer closest to it
            subsumer = next(compress(ids, map(leq, states, repeat(y))), None)
            if subsumer is None:
                queue.append(child.id)
            else:
                child.mark = DEAD
                child.subsumed_by = subsumer
    return Rrt(nodes=nodes, budget_exhausted=exhausted)


def decide_boundedness(
    rrt: Rrt, order: Order, strict_asserted: bool = False
) -> AnalysisVerdict:
    """Is the reachability set infinite?

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
    for n in rrt.subsumed_nodes():
        a = rrt.nodes[n.subsumed_by]
        if order.leq(n.state, a.state) and not order.eq(a.state, n.state):
            raise ValueError(
                "ordering is not antisymmetric on observed states; "
                "boundedness analysis requires a partial order"
            )
    witness = None
    for n in rrt.subsumed_nodes():
        for aid in rrt.ancestor_ids(n.id):
            if order.strictly_less(rrt.nodes[aid].state, n.state):
                witness = (aid, n.id)
                break
        if witness is not None:
            break
    used = len(rrt.nodes)
    if witness is not None:
        caveats = ()
        if not strict_asserted:
            caveats = (
                "unboundedness assumes strict compatibility: transitions fired "
                "from a strictly larger state reach a strictly larger state",
            )
        return AnalysisVerdict(Outcome.POSITIVE, witness, used, caveats)
    if rrt.complete:
        return AnalysisVerdict(Outcome.NEGATIVE, None, used)
    return AnalysisVerdict(Outcome.INCONCLUSIVE, None, used)


def decide_nontermination(
    rrt: Rrt, order: Order, monotone_asserted: bool = False
) -> AnalysisVerdict:
    """Does some infinite run exist?

    Positive on any subsumed node; the witness is ``(subsumer_id,
    node_id)`` and the run is the branch to the subsumer followed by the
    loop forever.  A witness whose two states are equal is preferred,
    because the loop then literally repeats and the answer needs no
    assumption.  A strictly increasing witness carries a caveat unless
    ``monotone_asserted``: replaying the loop from the larger state must
    stay enabled.  Negative when the tree is complete and nothing was
    subsumed: every branch of the full unfolding ends in a deadlock.
    """
    eq_witness = None
    any_witness = None
    for n in rrt.subsumed_nodes():
        if any_witness is None:
            any_witness = (n.subsumed_by, n.id)
        if order.eq(rrt.nodes[n.subsumed_by].state, n.state):
            eq_witness = (n.subsumed_by, n.id)
            break
    used = len(rrt.nodes)
    if eq_witness is not None:
        return AnalysisVerdict(Outcome.POSITIVE, eq_witness, used)
    if any_witness is not None:
        caveats = ()
        if not monotone_asserted:
            caveats = (
                "non-termination assumes compatibility: the loop stays "
                "fireable from the larger state it reaches",
            )
        return AnalysisVerdict(Outcome.POSITIVE, any_witness, used, caveats)
    if rrt.complete:
        return AnalysisVerdict(Outcome.NEGATIVE, None, used)
    return AnalysisVerdict(Outcome.INCONCLUSIVE, None, used)


def build_lrrt(olts: Olts, budget: int = DEFAULT_BUDGET) -> Rrt:
    """Reduced reachability tree with iterable-node marking.

    For each subsumed node, the loop from its subsumer down to it is
    replayed once more, concretely, from the subsumed node's own state.
    The node is iterable when the replay goes through and ends at a state
    at or above the node's state.
    """
    rrt = build_rrt(olts, budget)
    for n in rrt.subsumed_nodes():
        x, stuck = olts.run(rrt.loop_labels(n.id), n.state)
        if stuck is None and olts.order.leq(n.state, x):
            n.iterable = True
    return rrt


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
    for n in lrrt.nodes:
        if n.iterable:
            witness = (n.id, tuple(lrrt.loop_labels(n.id)))
            return AnalysisVerdict(Outcome.POSITIVE, witness, used)
    return AnalysisVerdict(Outcome.INCONCLUSIVE, None, used)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(rrt: Rrt, state_fmt=str, label_fmt=str) -> str:
    """Graphviz text for a tree: dead nodes dashed, iterable ones doubled,
    subsumption shown as a dashed back-edge to the subsumer."""
    lines = ["digraph rrt {", "  rankdir=TB;", '  node [shape=box, fontname="monospace"];']
    for n in rrt.nodes:
        attrs = [f'label="{_dot_escape(state_fmt(n.state))}"']
        if n.mark == DEAD:
            attrs.append("style=dashed")
        if n.iterable:
            attrs.append("peripheries=2")
        lines.append(f"  n{n.id} [{', '.join(attrs)}];")
    for n in rrt.nodes:
        if n.parent is not None:
            lines.append(
                f'  n{n.parent} -> n{n.id} [label="{_dot_escape(label_fmt(n.label))}"];'
            )
    for n in rrt.nodes:
        if n.subsumed_by is not None:
            lines.append(
                f"  n{n.id} -> n{n.subsumed_by} [style=dashed, constraint=false];"
            )
    if rrt.budget_exhausted:
        lines.append('  budget [shape=plaintext, label="budget exhausted"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
