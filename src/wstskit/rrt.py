"""Reduced reachability trees and the analyses built on them.

The tree unfolds a system breadth-first but stops below any node whose
state is at or above an ancestor state: such a node is recorded as dead
and subsumed, since continuing the branch can only repeat behaviour the
ancestor already enables.  Deadlocked nodes are dead without a subsumer.
On top of the tree sit two decisions: boundedness of the reachability
set, and non-termination via subsumed nodes, which
:func:`decide_nonterm_by_iterable` answers too, never negatively.  No
positive answer assumes monotony: each rests on a loop that
:meth:`Rrt.repeats` fires once more, from the larger state it reached,
and that ends at or above that state again.
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
#: The caveat of a tree answer left open because no loop repeats.
NO_REPEAT = ("a loop grows but does not fire again from the state it reaches; "
             "the tree cannot decide")


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
    and formatters the analyses and :func:`export_dot` read; and the ids
    of the subsumed nodes, in id order, as the build made them."""

    nodes: list[RrtNode]
    complete: bool
    system: Olts
    subsumed: list[int]

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

    def repeats(self, ancestor_id: int, node_id: int) -> bool:
        """Does the loop from an ancestor down to a node fire once more from
        the node's state, and end at or above that state?  On a counter
        machine the second pass runs with every counter ``δ = node -
        ancestor`` higher, so it goes through exactly when no zero-tested
        counter grows, and then the loop fires from ``ancestor + jδ`` for
        every j.  On FIFO machines the rule is tested, not proved."""
        system = self.system
        x = self.nodes[node_id].state
        loop = self.path_labels(node_id)[len(self.ancestor_ids(ancestor_id)):]
        end, stuck = system.run(loop, x)
        return stuck is None and system.order.leq(x, end)

    def subsumed_nodes(self) -> Iterator[tuple[int, RrtNode]]:
        """``(id, node)`` for each subsumed node, in id order, read from
        ``subsumed``."""
        nodes = self.nodes
        return ((i, nodes[i]) for i in self.subsumed)


def build_rrt(olts: Olts, budget: int = DEFAULT_BUDGET) -> Rrt:
    """Breadth-first reduced reachability tree, capped at ``budget`` nodes.

    A child whose state is at or above the state of one of its ancestors
    (the node itself included) is marked dead and subsumed by the closest
    such ancestor to the root; it is not expanded further.  A live node
    with no enabled transitions is re-marked dead at expansion time, with
    no subsumer.  When creating one more node would exceed the budget,
    construction stops and the tree is not ``complete``; marks already
    assigned remain valid for the partial tree.  The tree keeps ``olts``
    as its ``system``, and lists the ids of its subsumed nodes in
    ``subsumed`` as it makes them, so no analysis scans the whole tree for
    them.

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
    subsumed: list[int] = []
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
            for a in path:
                if leq(a, y):
                    # the hit's depth, found only on a hit and by identity
                    # from the root, so a repeated object names its
                    # root-most node
                    hit = 0
                    while path[hit] is not a:
                        hit += 1
                    sid = nid
                    for _ in range(len(path) - 1 - hit):
                        sid = nodes[sid].parent
                    subsumed.append(len(nodes))
                    nodes.append(RrtNode(y, nid, label, DEAD, sid))
                    break
            else:
                queue.append((len(nodes), path))
                nodes.append(RrtNode(y, nid, label))
    return Rrt(nodes, not exhausted, olts, subsumed)


def decide_boundedness(rrt: Rrt) -> AnalysisVerdict:
    """Is the reachability set infinite, by the order of the tree's system?

    Positive (unbounded) on the first ancestor pair, scanning subsumed
    nodes in id order and their ancestors root first, that strictly
    increases along a branch and whose loop :meth:`Rrt.repeats`; the
    witness is ``(ancestor_id, node_id)``.  Negative (bounded) when the
    tree is complete and no strictly increasing pair exists; every
    subsumption then closes a loop over already-seen states.  Inconclusive
    when the budget ran out first, or when strictly increasing pairs exist
    and none of their loops repeats.

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
    strict = False
    for nid, n in rrt.subsumed_nodes():
        x = n.state
        # ancestors a, root first, strictly below x; leq(x, a) runs only
        # where a <= x, so the recorded leq calls stay the same
        for aid in rrt.ancestor_ids(nid):
            a = nodes[aid].state
            if leq(a, x) and not leq(x, a):
                if rrt.repeats(aid, nid):
                    return _tree_verdict(rrt, (aid, nid))
                strict = True
    return _tree_verdict(rrt, None, strict)


def decide_nontermination(rrt: Rrt) -> AnalysisVerdict:
    """Does some infinite run of the tree's system exist?

    Positive on a subsumed node; the witness is ``(subsumer_id, node_id)``
    and the run is the branch to the subsumer followed by the loop
    forever.  It is the first such pair, by node id, whose states are
    equal by the ``eq`` of the system's order, so that the loop literally
    repeats; else the first pair whose loop :meth:`Rrt.repeats`.  Negative
    when the tree is complete and nothing was subsumed: every branch of
    the full unfolding ends in a deadlock.  Inconclusive when the budget
    ran out first, or when nodes were subsumed and none of their loops
    repeats.
    """
    eq, nodes = rrt.system.order.eq, rrt.nodes
    pairs = [(n.subsumed_by, nid) for nid, n in rrt.subsumed_nodes()]
    witness = next(((a, b) for a, b in pairs if eq(nodes[a].state, nodes[b].state)), None)
    if witness is None:
        witness = next(((a, b) for a, b in pairs if rrt.repeats(a, b)), None)
    return _tree_verdict(rrt, witness, bool(pairs))


def _tree_verdict(rrt: Rrt, witness: Any, looped: bool = False) -> AnalysisVerdict:
    """Positive on a witness; negative on a complete tree where no loop was
    found; else inconclusive, with a caveat when loops were found."""
    used = len(rrt.nodes)
    if witness is not None:
        return AnalysisVerdict(Outcome.POSITIVE, witness, used)
    if looped or not rrt.complete:
        return AnalysisVerdict(Outcome.INCONCLUSIVE, None, used, (NO_REPEAT,) if looped else ())
    return AnalysisVerdict(Outcome.NEGATIVE, None, used)


def decide_nonterm_by_iterable(rrt: Rrt) -> AnalysisVerdict:
    """Non-termination, never answered negative: the answer, witness and
    caveat of :func:`decide_nontermination`, with a negative answer left
    inconclusive; a terminating answer belongs to the subsumption
    analysis.
    """
    verdict = decide_nontermination(rrt)
    if verdict.outcome is Outcome.NEGATIVE:
        return verdict._replace(outcome=Outcome.INCONCLUSIVE)
    return verdict


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(rrt: Rrt) -> str:
    """Graphviz text for a tree, states and labels shown by the formatters
    of its system: dead nodes dashed, subsumption shown as a dashed
    back-edge to the subsumer."""
    lines = ["digraph rrt {", "  rankdir=TB;", '  node [shape=box, fontname="monospace"];']
    for i, n in enumerate(rrt.nodes):
        attrs = [f'label="{_dot_escape(rrt.system.state_fmt(n.state))}"']
        if n.mark == DEAD:
            attrs.append("style=dashed")
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
