"""Signed rooted trees for Casson handles and towers.

Infinite handles are presented rationally: the finite edge list may contain
back-edges, and the handle's tree is the unrolling of that graph from the
root.  Towers (finite truncations) carry ``finite=True`` and admit no
back-edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class TreeError(Exception):
    pass


class SizeLimit(TreeError):
    """Unrolling exceeded the configured node budget."""


@dataclass(frozen=True)
class TreeEdge:
    parent: str
    child: str
    sign: int  # +1 or -1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("edge sign must be +1 or -1")


@dataclass(frozen=True)
class PositiveWitness:
    """An infinite all-positive branch: a path prefix ending on a cycle."""

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class SignedTree:
    name: str
    nodes: tuple[str, ...]
    root: str
    edges: tuple[TreeEdge, ...]
    finite: bool = False

    def __post_init__(self) -> None:
        for v in validate_tree(self):
            raise TreeError(v)

    @cached_property
    def _out_index(self) -> dict[str, tuple[TreeEdge, ...]]:
        """Out-edges by parent, in edge order; shared by every query on
        this value: read it, never mutate it."""
        out: dict[str, list[TreeEdge]] = {}
        for e in self.edges:
            out.setdefault(e.parent, []).append(e)
        return {n: tuple(es) for n, es in out.items()}

    def out_edges(self, node: str) -> tuple[TreeEdge, ...]:
        return self._out_index.get(node, ())

    @cached_property
    def _positive_search(self) -> tuple[tuple[str, ...] | None,
                                        tuple[str, ...]]:
        """One depth-first search from the root along positive edges,
        shared by every positivity query on this value.

        Returns ``(cycle, order)``.  ``cycle`` is the first positive cycle
        met, as the search path from its entry node, or None.  ``order``
        lists the finished nodes in post-order (every node after all its
        positive children); it covers the whole positive subgraph reachable
        from the root when no cycle was found.  Children are visited in
        edge order.
        """
        done: set[str] = set()
        path = [self.root]
        on_path = {self.root}
        todo = [iter(self.out_edges(self.root))]
        order: list[str] = []
        while todo:
            for e in todo[-1]:
                if e.sign == -1:
                    continue
                w = e.child
                if w in on_path:
                    return tuple(path[path.index(w):]), tuple(order)
                if w not in done:
                    path.append(w)
                    on_path.add(w)
                    todo.append(iter(self.out_edges(w)))
                    break
            else:
                v = path.pop()
                on_path.discard(v)
                done.add(v)
                order.append(v)
                todo.pop()
        return None, tuple(order)

    @cached_property
    def _prune_depth(self) -> int | None:
        """:func:`prune_depth` of this value, computed once."""
        order = _prunable_order(self)
        if order is None:
            return None
        # Longest all-positive path down from each node, children first.
        longest: dict[str, int] = {}
        for v in order:
            longest[v] = max((1 + longest[e.child] for e in self.out_edges(v)
                              if e.sign == 1), default=0)
        return 1 + longest[self.root]

    @cached_property
    def _kuga_cost(self) -> int | None:
        """:func:`kuga_blowup_cost` of this value, computed once; None
        where the cost is undefined."""
        order = _prunable_order(self)
        if order is None:
            return None
        paths = dict.fromkeys(order, 0)
        paths[self.root] = 1
        total = 0
        for v in reversed(order):
            for e in self.out_edges(v):
                if e.sign == 1:
                    paths[e.child] += paths[v]
                else:
                    total += paths[v]
        return total


def validate_tree(t: SignedTree) -> list[str]:
    out = []
    nodeset = set(t.nodes)
    if len(nodeset) != len(t.nodes):
        out.append(f"tree {t.name}: duplicate node ids")
    if t.root not in nodeset:
        out.append(f"tree {t.name}: root {t.root} not declared")
        return out
    for e in t.edges:
        if e.parent not in nodeset or e.child not in nodeset:
            out.append(f"tree {t.name}: edge {e.parent}->{e.child} references "
                       "an undeclared node")
            return out
    # Reachability from the root.
    reach = {t.root}
    frontier = [t.root]
    while frontier:
        for e in t.out_edges(frontier.pop()):
            if e.child not in reach:
                reach.add(e.child)
                frontier.append(e.child)
    for n in t.nodes:
        if n not in reach:
            out.append(f"tree {t.name}: node {n} unreachable from root")
    # Each non-root node has an incoming edge.
    children = [e.child for e in t.edges]
    covered = set(children)
    for n in t.nodes:
        if n != t.root and n not in covered:
            out.append(f"tree {t.name}: node {n} has no incoming edge")
    if t.finite and (t.root in covered
                     or len(covered) != len(children)
                     or len(t.edges) != len(t.nodes) - 1):
        out.append(f"tree {t.name}: tower contains back-edges")
    return out


def chplus(name: str = "chplus") -> SignedTree:
    """The Casson handle with a single positive kink at every level."""
    return SignedTree(name, ("r",), "r", (TreeEdge("r", "r", 1),))


# -- positivity ----------------------------------------------------------

def positive_witness(t: SignedTree) -> PositiveWitness | None:
    """A positive branch of an infinite handle, if one exists.

    The unrolled tree has an infinite all-positive rooted path iff the
    positive subgraph reachable from the root contains a cycle.
    """
    if not is_positive(t):
        return None
    cycle = t._positive_search[0]
    target = cycle[0]  # reached from the root by a shortest positive path
    parent = {t.root: t.root}
    queue = [t.root]
    for v in queue:  # breadth-first: the loop sees nodes appended below
        if v == target:
            break
        for e in t.out_edges(v):
            if e.sign == 1 and e.child not in parent:
                parent[e.child] = v
                queue.append(e.child)
    path = [target]
    while path[-1] != t.root:
        path.append(parent[path[-1]])
    return PositiveWitness(prefix=tuple(reversed(path)), cycle=cycle)


def is_positive(t: SignedTree) -> bool:
    """Whether the unrolled handle contains an infinite all-positive branch."""
    if t.finite:
        raise TreeError(
            f"tree {t.name} is a tower; use tower_has_positive_branch")
    return t._positive_search[0] is not None


def tower_has_positive_branch(t: SignedTree) -> bool:
    """Whether a tower has an all-positive root-to-leaf (maximal) path."""
    if not t.finite:
        raise TreeError(f"tree {t.name} is a handle, not a tower")
    return _has_positive_leaf(t, t._positive_search[1])


def _has_positive_leaf(t: SignedTree, order: tuple[str, ...]) -> bool:
    return any(not t.out_edges(v) for v in order)


def is_strictly_positive(t: SignedTree) -> bool:
    """More positive than negative edges emanating from every vertex.

    Tower leaves at maximal depth are exempt (nothing emanates from them).
    """
    exempt = set(_deepest_level(t)) if t.finite else set()
    for n in t.nodes:
        outs = t.out_edges(n)
        pos = sum(1 for e in outs if e.sign == 1)
        if 2 * pos <= len(outs) and n not in exempt:
            return False
    return True


def _deepest_level(t: SignedTree) -> list[str]:
    """The nodes of a tower at maximal depth."""
    level = [t.root]
    while True:
        below = [e.child for v in level for e in t.out_edges(v)]
        if not below:
            return level
        level = below


# -- truncation ----------------------------------------------------------

# Size budgets.  Unrolling stops past DEFAULT_NODE_BUDGET nodes.  Planning,
# replay and rendering take time and memory linear in a descriptor's
# declared sphere pairs, so middle data with more than DEFAULT_PAIR_BUDGET
# pairs is refused by the parser, the planner, the verifier and the finger
# graph.
DEFAULT_NODE_BUDGET = 100_000
DEFAULT_PAIR_BUDGET = 100_000


def truncate(t: SignedTree, n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> SignedTree:
    """The depth-n unrolling of a handle, as a finite tower.

    The root keeps its id; the node created i-th (breadth first, children
    in edge order) is ``f"{t.root}.{i}"``, so ids stay short at any depth.
    """
    if n < 1:
        raise TreeError("truncation depth must be >= 1")
    nodes = [t.root]
    edges: list[TreeEdge] = []
    level = [(t.root, t.root)]  # (unrolled id, presentation node)
    for _ in range(n):
        below = []
        for uid, node in level:
            for e in t.out_edges(node):
                child_uid = f"{t.root}.{len(nodes)}"
                nodes.append(child_uid)
                if len(nodes) > node_budget:
                    raise SizeLimit(
                        f"unrolling {t.name} to depth {n} exceeds {node_budget} nodes")
                edges.append(TreeEdge(uid, child_uid, e.sign))
                below.append((child_uid, e.child))
        level = below
    return SignedTree(f"{t.name}^{n}", tuple(nodes), t.root, tuple(edges),
                      finite=True)


# -- Kuga pruning quantities --------------------------------------------

def _prunable_order(t: SignedTree) -> tuple[str, ...] | None:
    """Post-order of the positive subgraph reachable from the root, or None
    when the tree cannot be pruned: a handle with a positive cycle, or a
    tower with an all-positive maximal path."""
    cycle, order = t._positive_search
    if cycle is not None or (t.finite and _has_positive_leaf(t, order)):
        return None
    return order


def prune_depth(t: SignedTree) -> int | None:
    """Minimal k such that every rooted path of length k has a negative edge.

    Returns None for "infinite": a positive handle, or a tower with an
    all-positive maximal path, cannot be pruned.  Computed once per value.
    """
    return t._prune_depth


def kuga_blowup_cost(t: SignedTree) -> int:
    """Number of frontier negative edges in the unrolled tree.

    A frontier negative edge is a negative edge all of whose root-path
    predecessors are positive; one blow-up prunes each.  Defined only for
    non-positive trees (the all-positive prefix is then finite).

    The positive subgraph is then acyclic, so the cost is the sum over its
    nodes v of (number of positive root paths to v) x (number of negative
    out-edges of v), with path counts pushed down in topological order
    once per value.
    """
    cost = t._kuga_cost
    if cost is None:
        if t.finite:
            raise TreeError(
                f"tower {t.name} has an all-positive maximal path; cost undefined")
        raise TreeError(f"handle {t.name} is positive; cost undefined")
    return cost
