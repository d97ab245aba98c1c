"""Signed rooted trees for Casson handles and towers.

Infinite handles are presented rationally: the finite edge list may contain
back-edges, and the handle's tree is the unrolling of that graph from the
root.  Towers (finite truncations) carry ``finite=True`` and admit no
back-edges.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter


class TreeError(Exception):
    """A broken tree rule or a refused query; ``entry`` names the offender."""

    def __init__(self, message: str, entry: tuple[str, int] | None = None):
        super().__init__(message)
        self.entry = entry


class SizeLimit(TreeError):
    """Unrolling exceeded the configured node budget."""


class TreeEdge(namedtuple("TreeEdge", "parent child sign")):
    """An immutable ``(parent, child, sign)`` record, sign +1 or -1.

    A tuple, so equality and hashing run in C; it equals the plain tuple of
    its fields.  The constructor, ``_make`` and ``_replace`` check the sign,
    an exact ``int``.
    """

    __slots__ = ()

    def __new__(cls, parent: str, child: str, sign: int):
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("edge sign must be +1 or -1")
        return tuple.__new__(cls, (parent, child, sign))

    @classmethod
    def _make(cls, iterable) -> TreeEdge:  # also serves _replace
        return cls(*iterable)


# An edge's parent, child and sign, as C callables for map().
_parent, _child, _sign = itemgetter(0), itemgetter(1), itemgetter(2)


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
        validate_tree(self)

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


def validate_tree(t: SignedTree) -> None:
    """Raise :class:`TreeError` for the first rule ``t`` breaks, with its
    entry, ``("node", k)`` for the k-th id, ``("edge", k)``, ``("root", 0)``
    or None for the whole tree: distinct ids, a declared root, ``TreeEdge``
    edges with int signs +1 or -1, declared endpoints, every node reachable
    from the root, and no back-edges in a tower.  The rules before it make
    reachability give each non-root node an incoming edge, so a tower of N
    reached nodes is a tree exactly when it has N-1 edges.  A set of the ids
    not yet reached and C passes over the edge columns decide each rule."""
    name, nodes, root, edges = t.name, t.nodes, t.root, t.edges
    unreached = set(nodes)
    if len(unreached) != len(nodes):
        seen: set[str] = set()  # add() returns None: k is the first repeat
        k = next(k for k, n in enumerate(nodes) if n in seen or seen.add(n))
        raise TreeError(f"tree {name}: duplicate node ids", ("node", k))
    if root not in unreached:
        from .scripts import quoted  # trees sits below the text helpers
        raise TreeError(f"tree {name}: root {quoted(root)} not declared",
                        ("root", 0))
    # A TreeEdge checks its sign when it is made; any other value, a plain
    # tuple included, is refused here.
    if not {TreeEdge}.issuperset(map(type, edges)):
        k = next(k for k, e in enumerate(edges) if type(e) is not TreeEdge)
        raise TreeError(f"tree {name}: edge {edges[k]!r} is not a TreeEdge",
                        ("edge", k))
    # True and 1.0 equal 1, so the types are checked before the values.
    if not ({int}.issuperset(map(type, map(_sign, edges)))
            and {1, -1}.issuperset(map(_sign, edges))):
        k, (a, b, sign) = next((k, e) for k, e in enumerate(edges)
                               if type(e.sign) is not int
                               or e.sign not in (1, -1))
        raise TreeError(f"tree {name}: edge {a}->{b} has sign {sign!r}, not "
                        "+1 or -1", ("edge", k))
    if not (unreached.issuperset(map(_parent, edges))
            and unreached.issuperset(map(_child, edges))):
        k, (a, b, _) = next((k, e) for k, e in enumerate(edges)
                            if not unreached.issuperset(e[:2]))
        raise TreeError(f"tree {name}: edge {a}->{b} references an "
                        "undeclared node", ("edge", k))
    # Reachability from the root.  One pass in edge order reaches every
    # node when each parent is listed before its out-edges, as in a tower
    # from truncate and in its text; only nodes it leaves unreached cost a
    # breadth-first walk of the out-index from the nodes it did reach.
    unreached.discard(root)
    reach = unreached.discard
    for parent, child, _ in edges:
        if parent not in unreached:
            reach(child)
    if unreached:
        index = t._out_index
        queue = [n for n in nodes if n not in unreached]
        for v in queue:  # the loop sees nodes appended below
            for e in index.get(v, ()):
                if e.child in unreached:
                    reach(e.child)
                    queue.append(e.child)
        if unreached:
            n = next(n for n in nodes if n in unreached)
            raise TreeError(f"tree {name}: node {n} unreachable from root")
    if t.finite and len(edges) != len(nodes) - 1:
        raise TreeError(f"tree {name}: tower contains back-edges")


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
    index = t._out_index
    exempt = set(_deepest_level(t)) if t.finite else set()
    for n in t.nodes:
        # More positive than negative edges: the signs sum above zero.
        if sum(e.sign for e in index.get(n, ())) <= 0 and n not in exempt:
            return False
    return True


def _deepest_level(t: SignedTree) -> list[str]:
    """The nodes of a tower at maximal depth."""
    index = t._out_index
    level = [t.root]
    while True:
        below = [e.child for v in level for e in index.get(v, ())]
        if not below:
            return level
        level = below


# -- truncation ----------------------------------------------------------

# Size budgets.  Unrolling stops past DEFAULT_NODE_BUDGET nodes.  Planning,
# replay and rendering take time and memory linear in a descriptor's
# declared sphere pairs, so middle data with more than DEFAULT_PAIR_BUDGET
# pairs cannot be built (MiddleLevelData raises MiddleError).
DEFAULT_NODE_BUDGET = 100_000
DEFAULT_PAIR_BUDGET = 100_000


def truncate(t: SignedTree, n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> SignedTree:
    """The depth-n unrolling of a handle, as a finite tower.

    The root keeps its id; the node created i-th (breadth first, children
    in edge order) is ``f"{t.root}.{i}"``, so ids stay short at any depth.
    The tower keeps the name ``NAME^n`` when the unrolling dies out above
    depth n; the levels below it are empty and are not visited.  The node
    budget is checked once per level, before the level is built.
    """
    if type(n) is not int or n < 1:
        raise TreeError("truncation depth must be an int >= 1")
    get = t._out_index.get
    new = tuple.__new__  # the signs come from valid edges: skip the check
    prefix = f"{t.root}."
    nodes = [t.root]
    edges: list[TreeEdge] = []
    level = [(t.root, get(t.root, ()))]  # (unrolled id, its out-edges)
    width = len(level[0][1])  # nodes on the next level
    for _ in range(n):
        if not width:
            break
        if len(nodes) + width > node_budget:
            raise SizeLimit(
                f"unrolling {t.name} to depth {n} exceeds {node_budget} nodes")
        below = []
        width = 0
        for uid, outs in level:
            for _, child, sign in outs:
                child_uid = f"{prefix}{len(nodes)}"
                nodes.append(child_uid)
                edges.append(new(TreeEdge, (uid, child_uid, sign)))
                grand = get(child, ())
                width += len(grand)
                below.append((child_uid, grand))
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
