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
    """The checked constructor and the named view of one edge.

    A tree stores each edge as the exact tuple ``(parent, child, sign)``,
    which this record equals and hashes like; ``TreeEdge._make(e)`` names
    the fields of a stored edge.  The constructor, ``_make`` and
    ``_replace`` check the sign, an exact ``int`` +1 or -1.
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


def _shown(tok) -> str:
    """``tok`` as a message shows it; see :func:`ribboncalc.scripts.shown`."""
    from .scripts import shown  # trees sits below the text helpers
    return shown(tok)


@dataclass(frozen=True)
class PositiveWitness:
    """An infinite all-positive branch: a path prefix ending on a cycle."""

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class TowerSummary:
    """The answers about one tower, read by the tower queries."""

    nodes: int  # the node count
    deepest: int  # the level of the deepest nodes; the root's is 0
    positive_branch: bool
    strict: bool
    prune_depth: int | None
    kuga_cost: int | None


# A stored edge: the exact tuple (parent, child, sign).
_Edge = tuple[str, str, int]


@dataclass(frozen=True)
class SignedTree:
    name: str
    nodes: tuple[str, ...]
    root: str
    edges: tuple[_Edge, ...]
    finite: bool = False

    def __post_init__(self) -> None:
        # Edges are kept as exact tuples, which the GC can untrack; one pass
        # stores each TreeEdge given as its plain tuple, when there is one.
        edges = self.edges
        if not {tuple}.issuperset(map(type, edges)):
            object.__setattr__(self, "edges", tuple(
                [tuple(e) if type(e) is TreeEdge else e for e in edges]))
        validate_tree(self)

    @cached_property
    def _out_index(self) -> dict[str, tuple[_Edge, ...]]:
        """Out-edges by parent, in edge order; shared by every query on
        this value: read it, never mutate it."""
        out: dict[str, list[_Edge]] = {}
        for e in self.edges:
            out.setdefault(e[0], []).append(e)
        return {n: tuple(es) for n, es in out.items()}

    def out_edges(self, node: str) -> tuple[_Edge, ...]:
        return self._out_index.get(node, ())

    @cached_property
    def _summary(self) -> TowerSummary:
        """The answers about this tower, which is its own unrolling:
        :func:`truncate` fills them in for the towers it builds."""
        return _tower_summary(self, len(self.nodes))

    @cached_property
    def _positive_search(self) -> tuple[tuple[str, ...] | None,
                                        tuple[str, ...]]:
        """One depth-first search from the root along positive edges,
        shared by every positivity query on this handle.

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
            for _, w, sign in todo[-1]:
                if sign == -1:
                    continue
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
        """:func:`prune_depth` of this handle, computed once."""
        order = _prunable_order(self)
        if order is None:
            return None
        # Longest all-positive path down from each node, children first.
        longest: dict[str, int] = {}
        for v in order:
            longest[v] = max((1 + longest[w] for _, w, sign
                              in self.out_edges(v) if sign == 1), default=0)
        return 1 + longest[self.root]

    @cached_property
    def _kuga_cost(self) -> int | None:
        """:func:`kuga_blowup_cost` of this handle, computed once; None
        where the cost is undefined."""
        order = _prunable_order(self)
        if order is None:
            return None
        paths = dict.fromkeys(order, 0)
        paths[self.root] = 1
        total = 0
        for v in reversed(order):
            for _, w, sign in self.out_edges(v):
                if sign == 1:
                    paths[w] += paths[v]
                else:
                    total += paths[v]
        return total


def validate_tree(t: SignedTree) -> None:
    """Raise :class:`TreeError` for the first rule ``t`` breaks, with its
    entry, ``("node", k)`` for the k-th id, ``("edge", k)``, ``("root", 0)``
    or None for the whole tree: distinct ids, a declared root, edges stored
    as exact ``(parent, child, sign)`` tuples with int signs +1 or -1,
    declared endpoints, every node reachable from the root, and no
    back-edges in a tower.  The rules before it make reachability give each
    non-root node an incoming edge, so a tower of N reached nodes is a tree
    exactly when it has N-1 edges.  A set of the ids not yet reached and C
    passes over the edge columns decide each rule."""
    name, nodes, root, edges = t.name, t.nodes, t.root, t.edges
    unreached = set(nodes)
    if len(unreached) != len(nodes):
        seen: set[str] = set()  # add() returns None: k is the first repeat
        k = next(k for k, n in enumerate(nodes) if n in seen or seen.add(n))
        raise TreeError(f"tree {_shown(name)}: duplicate node ids",
                        ("node", k))
    if root not in unreached:
        from .scripts import quoted  # trees sits below the text helpers
        raise TreeError(f"tree {_shown(name)}: root {quoted(root)} not "
                        "declared", ("root", 0))
    # SignedTree stores a TreeEdge as its plain tuple; any other value, a
    # list or a tuple of another type or length, is refused here.
    if not ({tuple}.issuperset(map(type, edges))
            and {3}.issuperset(map(len, edges))):
        k = next(k for k, e in enumerate(edges)
                 if type(e) is not tuple or len(e) != 3)
        raise TreeError(f"tree {_shown(name)}: edge {_shown(repr(edges[k]))} "
                        "is not a (parent, child, sign) tuple", ("edge", k))
    # True and 1.0 equal 1, so the types are checked before the values.
    if not ({int}.issuperset(map(type, map(_sign, edges)))
            and {1, -1}.issuperset(map(_sign, edges))):
        k, (a, b, sign) = next((k, e) for k, e in enumerate(edges)
                               if type(e[2]) is not int or e[2] not in (1, -1))
        raise TreeError(f"tree {_shown(name)}: edge {_shown(a)}->{_shown(b)} "
                        f"has sign {_shown(repr(sign))}, not +1 or -1",
                        ("edge", k))
    if not (unreached.issuperset(map(_parent, edges))
            and unreached.issuperset(map(_child, edges))):
        k, (a, b, _) = next((k, e) for k, e in enumerate(edges)
                            if not unreached.issuperset(e[:2]))
        raise TreeError(f"tree {_shown(name)}: edge {_shown(a)}->{_shown(b)} "
                        "references an undeclared node", ("edge", k))
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
            for _, w, _ in index.get(v, ()):
                if w in unreached:
                    reach(w)
                    queue.append(w)
        if unreached:
            n = next(n for n in nodes if n in unreached)
            raise TreeError(f"tree {_shown(name)}: node {_shown(n)} "
                            "unreachable from root")
    if t.finite and len(edges) != len(nodes) - 1:
        raise TreeError(f"tree {_shown(name)}: tower contains back-edges")


def chplus(name: str = "chplus") -> SignedTree:
    """The Casson handle with a single positive kink at every level."""
    return SignedTree(name, ("r",), "r", (("r", "r", 1),))


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
        for _, w, sign in t.out_edges(v):
            if sign == 1 and w not in parent:
                parent[w] = v
                queue.append(w)
    path = [target]
    while path[-1] != t.root:
        path.append(parent[path[-1]])
    return PositiveWitness(prefix=tuple(reversed(path)), cycle=cycle)


def is_positive(t: SignedTree) -> bool:
    """Whether the unrolled handle contains an infinite all-positive branch."""
    if t.finite:
        raise TreeError(f"tree {_shown(t.name)} is a tower; use "
                        "tower_has_positive_branch")
    return t._positive_search[0] is not None


def tower_has_positive_branch(t: SignedTree) -> bool:
    """Whether a tower has an all-positive root-to-leaf (maximal) path."""
    if not t.finite:
        raise TreeError(f"tree {_shown(t.name)} is a handle, not a tower")
    return t._summary.positive_branch


def is_strictly_positive(t: SignedTree) -> bool:
    """More positive than negative edges emanating from every vertex.

    Tower leaves at maximal depth are exempt (nothing emanates from them).
    """
    if t.finite:
        return t._summary.strict
    # More positive than negative edges: the signs sum above zero.
    get = t._out_index.get
    return all(sum(map(_sign, get(n, ()))) > 0 for n in t.nodes)


# -- truncation ----------------------------------------------------------

# Size budgets.  Unrolling stops past DEFAULT_NODE_BUDGET nodes.  Planning,
# replay and rendering take time and memory linear in a descriptor's
# declared sphere pairs, so middle data with more than DEFAULT_PAIR_BUDGET
# pairs cannot be built (MiddleLevelData raises MiddleError).
DEFAULT_NODE_BUDGET = 100_000
DEFAULT_PAIR_BUDGET = 100_000


def _tower_summary(t: SignedTree, n: int,
                   node_budget: int | None = None) -> TowerSummary:
    """The answers about ``truncate(t, n)``, without building it.

    A node of the unrolling on level L < n has the out-edges of its node of
    ``t``, and a node on level n has none.  So one pass down the levels
    answers everything from two counts per node of ``t``: the walks of
    length L from the root that end there, and the all-positive ones.  It
    takes O(n·|E|) time and O(|V|) space, and stops at the first empty
    level.  It raises :class:`SizeLimit` as soon as the count of nodes
    passes ``node_budget``, before the deeper levels are counted.
    """
    get = t._out_index.get
    walks = {t.root: 1}  # node of t -> walks of length `level` ending there
    positive = {t.root: 1}  # the same, counting all-positive walks only
    level = last_positive = 0
    count = 1
    weak = None  # the first level with a node whose signs sum to <= 0
    leaf = False  # an all-positive walk ends at a leaf above level n
    cost = 0  # negative edges below all-positive walks
    while level < n:
        below: dict[str, int] = {}
        for v, k in walks.items():
            signs = 0
            for _, w, sign in get(v, ()):
                below[w] = below.get(w, 0) + k
                signs += sign
            if signs <= 0 and weak is None:
                weak = level
        positive_below: dict[str, int] = {}
        for v, k in positive.items():
            outs = get(v, ())
            leaf = leaf or not outs
            for _, w, sign in outs:
                if sign == 1:
                    positive_below[w] = positive_below.get(w, 0) + k
                else:
                    cost += k
        if not below:
            break
        level += 1
        count += sum(below.values())
        if node_budget is not None and count > node_budget:
            raise SizeLimit(f"unrolling {_shown(t.name)} to depth {n} "
                            f"exceeds {node_budget} nodes")
        walks, positive = below, positive_below
        if positive:
            last_positive = level
    # Level n, when reached, holds leaves only; so does a shallower last one.
    branch = leaf or (level == n and bool(positive))
    return TowerSummary(
        nodes=count, deepest=level, positive_branch=branch,
        strict=weak is None or weak >= level,
        prune_depth=None if branch else 1 + last_positive,
        kuga_cost=None if branch else cost)


def truncate(t: SignedTree, n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> SignedTree:
    """The depth-n unrolling of a handle, as a finite tower.

    The root keeps its id; the node created i-th (breadth first, children
    in edge order) is ``f"{t.root}.{i}"``, so ids stay short at any depth.
    The tower keeps the name ``NAME^n`` when the unrolling dies out above
    depth n; the levels below it are empty and are not visited.  The node
    budget is checked from the exact node count, before anything is built,
    and the tower's answers come from the same count.
    """
    if type(n) is not int or n < 1:
        raise TreeError("truncation depth must be an int >= 1")
    summary = _tower_summary(t, n, node_budget)
    get = t._out_index.get
    prefix = f"{t.root}."
    nodes = [t.root]
    edges = []
    # A level as two columns, its unrolled ids and their out-edges: no
    # pair is made per node for the GC to track.
    uids, outs_of = [t.root], [get(t.root, ())]
    for _ in range(summary.deepest):
        below, below_outs = [], []
        for uid, outs in zip(uids, outs_of):
            for _, child, sign in outs:
                child_uid = f"{prefix}{len(nodes)}"
                nodes.append(child_uid)
                edges.append((uid, child_uid, sign))
                below.append(child_uid)
                below_outs.append(get(child, ()))
        uids, outs_of = below, below_outs
    tower = SignedTree(f"{t.name}^{n}", tuple(nodes), t.root, tuple(edges),
                       finite=True)
    tower.__dict__["_summary"] = summary  # as cached_property would
    return tower


# -- Kuga pruning quantities --------------------------------------------

def _prunable_order(t: SignedTree) -> tuple[str, ...] | None:
    """Post-order of the positive subgraph reachable from the root of a
    handle, or None when the handle has a positive cycle."""
    cycle, order = t._positive_search
    return None if cycle is not None else order


def prune_depth(t: SignedTree) -> int | None:
    """Minimal k such that every rooted path of length k has a negative edge.

    Returns None for "infinite": a positive handle, or a tower with an
    all-positive maximal path, cannot be pruned.  Computed once per value.
    """
    return t._summary.prune_depth if t.finite else t._prune_depth


def kuga_blowup_cost(t: SignedTree) -> int:
    """Number of frontier negative edges in the unrolled tree.

    A frontier negative edge is a negative edge all of whose root-path
    predecessors are positive; one blow-up prunes each.  Defined only for
    non-positive trees (the all-positive prefix is then finite).

    On a handle the positive subgraph is then acyclic, so the cost is the
    sum over its nodes v of (number of positive root paths to v) x (number
    of negative out-edges of v), with path counts pushed down in
    topological order once per value; on a tower the same sum is taken a
    level at a time.
    """
    if t.finite:
        cost = t._summary.kuga_cost
        if cost is None:
            raise TreeError(f"tower {_shown(t.name)} has an all-positive "
                            "maximal path; cost undefined")
        return cost
    cost = t._kuga_cost
    if cost is None:
        raise TreeError(f"handle {_shown(t.name)} is positive; cost undefined")
    return cost
