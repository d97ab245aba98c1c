"""Signed rooted trees for Casson handles and towers.

Infinite handles are presented rationally: the finite edge list may contain
back-edges, and the handle's tree is the unrolling of that graph from the
root.  Towers (finite truncations) carry ``finite=True`` and admit no
back-edges.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    def out_edges(self, node: str) -> tuple[TreeEdge, ...]:
        return tuple(e for e in self.edges if e.parent == node)

    def tree_edges(self) -> tuple[TreeEdge, ...]:
        """The first edge into each non-root node, in edge order."""
        seen: set[str] = set()
        out = []
        for e in self.edges:
            if e.child != self.root and e.child not in seen:
                seen.add(e.child)
                out.append(e)
        return tuple(out)

    def back_edges(self) -> tuple[TreeEdge, ...]:
        tree = set(self.tree_edges())
        return tuple(e for e in self.edges if e not in tree)


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
        v = frontier.pop()
        for e in t.edges:
            if e.parent == v and e.child not in reach:
                reach.add(e.child)
                frontier.append(e.child)
    for n in t.nodes:
        if n not in reach:
            out.append(f"tree {t.name}: node {n} unreachable from root")
    # Each non-root node has exactly one incoming tree edge.
    covered = {e.child for e in t.tree_edges()}
    for n in t.nodes:
        if n != t.root and n not in covered:
            out.append(f"tree {t.name}: node {n} has no incoming edge")
    if t.finite:
        children = [e.child for e in t.edges]
        if (any(c == t.root for c in children)
                or len(set(children)) != len(children)
                or len(t.edges) != len(t.nodes) - 1):
            out.append(f"tree {t.name}: tower contains back-edges")
    return out


def chplus(name: str = "chplus") -> SignedTree:
    """The Casson handle with a single positive kink at every level."""
    return SignedTree(name, ("r",), "r", (TreeEdge("r", "r", 1),))


# -- positivity ----------------------------------------------------------

def _positive_reachable(t: SignedTree) -> dict[str, list[TreeEdge]]:
    """Positive out-edge lists for nodes positively reachable from root."""
    pos = {n: [e for e in t.out_edges(n) if e.sign == 1] for n in t.nodes}
    reach = {t.root}
    frontier = [t.root]
    while frontier:
        v = frontier.pop()
        for e in pos[v]:
            if e.child not in reach:
                reach.add(e.child)
                frontier.append(e.child)
    return {n: pos[n] for n in reach}


def positive_witness(t: SignedTree) -> PositiveWitness | None:
    """A positive branch of an infinite handle, if one exists.

    The unrolled tree has an infinite all-positive rooted path iff the
    positive subgraph reachable from the root contains a cycle.
    """
    if t.finite:
        raise TreeError(
            f"tree {t.name} is a tower; use tower_has_positive_branch")
    pos = _positive_reachable(t)
    # DFS for a cycle inside the positive reachable subgraph.
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    stack: list[str] = []

    def dfs(v: str) -> tuple[str, ...] | None:
        state[v] = 1
        stack.append(v)
        for e in pos[v]:
            w = e.child
            if state.get(w) == 1:
                return tuple(stack[stack.index(w):])
            if w not in state:
                found = dfs(w)
                if found:
                    return found
        state[v] = 2
        stack.pop()
        return None

    cycle = dfs(t.root)
    if cycle is None:
        return None
    # Positive path from root to the cycle entry.
    target = cycle[0]
    prefix = _positive_path(t, pos, target)
    return PositiveWitness(prefix=prefix, cycle=cycle)


def _positive_path(t: SignedTree, pos, target: str) -> tuple[str, ...]:
    parent: dict[str, str] = {}
    frontier = [t.root]
    seen = {t.root}
    while frontier:
        v = frontier.pop(0)
        if v == target:
            break
        for e in pos[v]:
            if e.child not in seen:
                seen.add(e.child)
                parent[e.child] = v
                frontier.append(e.child)
    path = [target]
    while path[-1] != t.root:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def is_positive(t: SignedTree) -> bool:
    """Whether the unrolled handle contains an infinite all-positive branch."""
    return positive_witness(t) is not None


def tower_has_positive_branch(t: SignedTree) -> bool:
    """Whether a tower has an all-positive root-to-leaf (maximal) path."""
    if not t.finite:
        raise TreeError(f"tree {t.name} is a handle, not a tower")

    def dfs(v: str) -> bool:
        outs = t.out_edges(v)
        if not outs:
            return True
        return any(e.sign == 1 and dfs(e.child) for e in outs)

    return dfs(t.root)


def is_strictly_positive(t: SignedTree) -> bool:
    """More positive than negative edges emanating from every vertex.

    Tower leaves at maximal depth are exempt (nothing emanates from them).
    """
    depth = _tree_depths(t)
    maxdepth = max(depth.values()) if depth else 0
    for n in t.nodes:
        outs = t.out_edges(n)
        pos = sum(1 for e in outs if e.sign == 1)
        neg = len(outs) - pos
        if pos > neg:
            continue
        if t.finite and not outs and depth[n] == maxdepth:
            continue
        return False
    return True


def _tree_depths(t: SignedTree) -> dict[str, int]:
    depth = {t.root: 0}
    for e in t.tree_edges():
        depth[e.child] = depth[e.parent] + 1
    return depth


# -- truncation ----------------------------------------------------------

DEFAULT_NODE_BUDGET = 100_000


def truncate(t: SignedTree, n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> SignedTree:
    """The depth-n unrolling of a handle, as a finite tower."""
    if n < 1:
        raise TreeError("truncation depth must be >= 1")
    nodes = [t.root]
    edges: list[TreeEdge] = []
    frontier = [(t.root, t.root, 0)]  # (unrolled id, presentation node, depth)
    while frontier:
        uid, node, depth = frontier.pop(0)
        if depth == n:
            continue
        for k, e in enumerate(t.out_edges(node)):
            child_uid = f"{uid}.{k}"
            nodes.append(child_uid)
            if len(nodes) > node_budget:
                raise SizeLimit(
                    f"unrolling {t.name} to depth {n} exceeds {node_budget} nodes")
            edges.append(TreeEdge(uid, child_uid, e.sign))
            frontier.append((child_uid, e.child, depth + 1))
    return SignedTree(f"{t.name}^{n}", tuple(nodes), t.root, tuple(edges),
                      finite=True)


# -- Kuga pruning quantities --------------------------------------------

def prune_depth(t: SignedTree) -> int | None:
    """Minimal k such that every rooted path of length k has a negative edge.

    Returns None for "infinite": a positive handle, or a tower with an
    all-positive maximal path, cannot be pruned.
    """
    if t.finite:
        if tower_has_positive_branch(t):
            return None
        return 1 + _longest_positive_path(t)
    if is_positive(t):
        return None
    return 1 + _longest_positive_path(t)


def _longest_positive_path(t: SignedTree) -> int:
    """Longest all-positive rooted path length; positive subgraph is acyclic."""
    pos = _positive_reachable(t)
    memo: dict[str, int] = {}

    def longest(v: str) -> int:
        if v not in memo:
            memo[v] = max((1 + longest(e.child) for e in pos[v]), default=0)
        return memo[v]

    return longest(t.root)


def kuga_blowup_cost(t: SignedTree) -> int:
    """Number of frontier negative edges in the unrolled tree.

    A frontier negative edge is a negative edge all of whose root-path
    predecessors are positive; one blow-up prunes each.  Defined only for
    non-positive trees (the all-positive prefix is then finite).
    """
    if t.finite:
        if tower_has_positive_branch(t):
            raise TreeError(
                f"tower {t.name} has an all-positive maximal path; cost undefined")
    elif is_positive(t):
        raise TreeError(f"handle {t.name} is positive; cost undefined")
    # Walk every all-positive rooted path of the unrolled tree; at each
    # unrolled node count the negative out-edges.
    total = 0
    frontier = [t.root]
    while frontier:
        v = frontier.pop()
        for e in t.out_edges(v):
            if e.sign == -1:
                total += 1
            else:
                frontier.append(e.child)
    return total

