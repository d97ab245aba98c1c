"""Shared randomized generators and independent oracles for the test suite.

Everything here is deliberately written without reusing the library's own
traversals, so oracle agreement is meaningful.
"""

from __future__ import annotations

import random
from dataclasses import fields
from operator import itemgetter

from ribboncalc import (AccessoryLoop, Cap, Component, Finger, KirbyDiagram,
                        MiddleError, MiddleLevelData, ParseError,
                        RibbonDescriptor, STANDARD_CAP, SignedTree, SizeLimit,
                        TreeEdge, TreeError, make_descriptor)
from ribboncalc.scripts import quoted

DOTTED, FRAMED = "dotted", "framed"


# -- diagrams ------------------------------------------------------------

def random_diagram(rng: random.Random, max_components: int = 8,
                   max_abs_alg: int = 3, allow_three_handles: bool = True
                   ) -> KirbyDiagram:
    n = rng.randint(1, max_components)
    comps = []
    for k in range(n):
        if rng.random() < 0.35:
            comps.append(Component(f"c{k}", DOTTED))
        else:
            comps.append(Component(f"c{k}", FRAMED, rng.randint(-3, 3)))
    links = {}
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < 0.4:
                continue
            dotted_pair = comps[x].kind == DOTTED and comps[y].kind == DOTTED
            a = 0 if dotted_pair else rng.randint(-max_abs_alg, max_abs_alg)
            g = abs(a) + 2 * rng.randint(0, 1)
            if (a, g) != (0, 0):
                links[(comps[x].id, comps[y].id)] = (a, g)
    three = rng.randint(0, 2) if allow_three_handles else 0
    # 3-handles must cap off something; give each an unlinked 0-framed
    # unknot so the diagram stays plausible.
    for t in range(three):
        comps.append(Component(f"t{t}", FRAMED, 0))
    d = KirbyDiagram(name=f"rand{rng.random():.6f}"[:12],
                     components=tuple(comps),
                     three_handles=three,
                     four_handles=rng.randint(0, 1))
    return d.with_links(links)


def dense_cluster(rng: random.Random, size: int = 10, dotted: int = 2,
                  max_abs_alg: int = 3) -> KirbyDiagram:
    """A diagram whose every pair links, but for pairs of dotted circles:
    one linked block, however its components are ordered."""
    comps = tuple(Component(f"c{k}", DOTTED) if k < dotted else
                  Component(f"c{k}", FRAMED, rng.randint(-3, 3))
                  for k in range(size))
    links = {}
    for x, cx in enumerate(comps):
        for cy in comps[x + 1:]:
            if cx.kind == cy.kind == DOTTED:
                continue
            a = rng.choice([v for v in range(-max_abs_alg, max_abs_alg + 1)
                            if v])
            links[(cx.id, cy.id)] = (a, abs(a))
    return KirbyDiagram(f"cluster{size}", comps).with_links(links)


def block_sum(rng: random.Random, parts) -> KirbyDiagram:
    """The disjoint union of ``parts``, with every component order shuffled.

    Part k's ids gain the suffix ``.k``; links never cross parts, and the
    3-handle counts add up.
    """
    comps, links = [], {}
    for k, d in enumerate(parts):
        comps.extend(Component(f"{c.id}.{k}", c.kind, c.framing)
                     for c in d.components)
        for (i, j), a, g in d.links:
            links[(f"{i}.{k}", f"{j}.{k}")] = (a, g)
    rng.shuffle(comps)
    d = KirbyDiagram(f"sum{len(parts)}", tuple(comps),
                     three_handles=sum(p.three_handles for p in parts))
    return d.with_links(links)


def oracle_link_blocks(d: KirbyDiagram, ids, split: bool = True):
    """``(ids, matrix)`` of each linked block of ``ids``, from scratch.

    A union-find over the nonzero algebraic links of all components
    partitions them; the partition restricted to ``ids`` gives the blocks,
    in the order of their first id, each in the order of ``ids``, and each
    matrix is filled from the link entries.  With ``split=False`` all of
    ``ids`` is one block; no ids give one empty block."""
    at = {c.id: k for k, c in enumerate(d.components)}
    root = list(range(len(at)))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    entries = []
    for (i, j), a, _ in d.links:
        if a:
            x, y = at[i], at[j]
            entries.append((x, y, a))
            root[find(x)] = find(y)
    groups: dict[int, list[str]] = {}
    for cid in ids:
        groups.setdefault(find(at[cid]) if split else 0, []).append(cid)
    blocks = []
    for members in groups.values():
        local = {at[cid]: r for r, cid in enumerate(members)}
        m = [[0] * len(members) for _ in members]
        for r, cid in enumerate(members):
            m[r][r] = d.component(cid).framing or 0
        for x, y, a in entries:
            if x in local and y in local:
                m[local[x]][local[y]] = m[local[y]][local[x]] = a
        blocks.append((members, m))
    return blocks or [([], [])]


def framed_ids(d: KirbyDiagram) -> list[str]:
    return [c.id for c in d.components if c.kind == FRAMED]


def dotted_ids(d: KirbyDiagram) -> list[str]:
    return [c.id for c in d.components if c.kind == DOTTED]


# -- trees ---------------------------------------------------------------

def random_tree(rng: random.Random, max_nodes: int = 12,
                finite: bool = False) -> SignedTree:
    n = rng.randint(1, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for i in range(1, n):
        parent = nodes[rng.randrange(i)]
        edges.append(TreeEdge(parent, nodes[i], rng.choice((1, -1))))
    if not finite:
        for _ in range(rng.randint(0, max(1, n // 3))):
            a = nodes[rng.randrange(n)]
            b = nodes[rng.randrange(n)]
            edges.append(TreeEdge(a, b, rng.choice((1, -1))))
    return SignedTree(f"t{rng.random():.6f}"[:10], nodes, nodes[0],
                      tuple(edges), finite=finite)


def oracle_positive_states(t: SignedTree, depth: int) -> set[tuple[str, int]]:
    """Reachable (presentation node, unrolled depth) states along
    all-positive root paths of the unrolling, up to the given depth.

    Plain BFS over the bounded state space, independent of the library's
    reachability code.
    """
    seen = {(t.root, 0)}
    frontier = [(t.root, 0)]
    while frontier:
        node, d = frontier.pop()
        if d == depth:
            continue
        for parent, child, sign in t.edges:
            if parent == node and sign == 1:
                state = (child, d + 1)
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
    return seen


def oracle_is_positive(t: SignedTree) -> bool:
    """Unrolling oracle: an all-positive path longer than the node count
    must revisit a node, hence pumps to an infinite positive branch."""
    bound = len(t.nodes) + 1
    return any(d >= bound for _, d in oracle_positive_states(t, bound))


def oracle_longest_positive_path(t: SignedTree) -> int:
    """Length of the longest all-positive rooted path (finite iff the
    unrolling has no infinite positive branch)."""
    bound = len(t.nodes) + 1
    states = oracle_positive_states(t, bound)
    if any(d >= bound for _, d in states):
        raise ValueError("tree has an infinite positive branch")
    return max(d for _, d in states)


def oracle_frontier_negatives(t: SignedTree) -> int:
    """Count of negative unrolled edges whose ancestors are all positive.

    Enumerates the all-positive prefix tree path by path; for non-positive
    trees that prefix tree is finite, so the walk terminates.
    """
    bound = len(t.nodes) + 1
    total = 0
    frontier = [(t.root, 0)]
    while frontier:
        node, d = frontier.pop()
        if d >= bound:
            raise ValueError("tree has an infinite positive branch")
        for parent, child, sign in t.edges:
            if parent != node:
                continue
            if sign == -1:
                total += 1
            else:
                frontier.append((child, d + 1))
    return total


def random_nonpositive_tree(rng: random.Random,
                            max_nodes: int = 12) -> SignedTree:
    while True:
        t = random_tree(rng, max_nodes)
        if not oracle_is_positive(t):
            return t


def unvalidated(nodes, root, edges, finite=False, name="t") -> SignedTree:
    """A SignedTree built without running validation, to see every
    message ``validate_tree`` reports instead of the first one.  Its edges
    are stored as a SignedTree stores them, as plain tuples; the signs are
    checked by TreeEdge."""
    t = object.__new__(SignedTree)
    values = (name, tuple(nodes), root,
              tuple(tuple(TreeEdge(p, c, s)) for p, c, s in edges), finite)
    for f, v in zip(fields(SignedTree), values):
        object.__setattr__(t, f.name, v)
    return t


# Ways a presented tree can break the rules of validate_tree.
BROKEN_TREE_KINDS = ("duplicate", "root", "parent", "child", "unreachable",
                     "no_incoming", "back_edge")


def broken_tree(rng: random.Random, kinds) -> SignedTree:
    """A random tree (a tower when ``kinds`` has "back_edge", else a handle
    or a tower) broken in each of the ``kinds`` ways, unvalidated.

    "parent" and "child" add undeclared endpoints at random places among
    the edges; the first such edge decides which of the two is reported.
    """
    finite = "back_edge" in kinds or rng.random() < 0.5
    base = random_tree(rng, finite=finite)
    nodes, root = list(base.nodes), base.root
    edges = [tuple(e) for e in base.edges]
    if rng.random() < 0.5:  # children listed before their parents
        rng.shuffle(edges)
    sign = lambda: rng.choice((1, -1))
    if "unreachable" in kinds:  # a cycle of new nodes: each has a parent
        k = rng.randint(1, 3)
        ring = [f"u{i}" for i in range(k)]
        nodes += ring
        edges += [(ring[i], ring[(i + 1) % k], sign()) for i in range(k)]
    if "no_incoming" in kinds:  # new nodes, some with edges into the tree
        for i in range(rng.randint(1, 3)):
            nodes.append(f"s{i}")
            if rng.random() < 0.5:
                edges.append((f"s{i}", rng.choice(base.nodes), sign()))
    if "back_edge" in kinds:  # one edge too many
        edges.append((rng.choice(base.nodes), rng.choice(base.nodes), sign()))
    for kind, bad in (("parent", lambda: ("x", rng.choice(nodes), sign())),
                      ("child", lambda: (rng.choice(nodes), "y", sign()))):
        if kind in kinds:
            for _ in range(rng.randint(1, 2)):
                edges.insert(rng.randint(0, len(edges)), bad())
    rng.shuffle(nodes)
    if "duplicate" in kinds:
        for _ in range(rng.randint(1, 2)):
            nodes.insert(rng.randint(0, len(nodes)), rng.choice(nodes))
    if "root" in kinds:
        root = "z"
    return unvalidated(nodes, root, edges, finite, base.name)


def oracle_validate_tree(t: SignedTree) -> list[str]:
    """The messages of ``validate_tree`` as it read before edges became
    tuples: one loop per rule, through ``out_edges``."""
    out = []
    nodeset = set(t.nodes)
    if len(nodeset) != len(t.nodes):
        out.append(f"tree {t.name}: duplicate node ids")
    if t.root not in nodeset:
        out.append(f"tree {t.name}: root {quoted(t.root)} not declared")
        return out
    for parent, child, _ in t.edges:
        if parent not in nodeset or child not in nodeset:
            out.append(f"tree {t.name}: edge {parent}->{child} references "
                       "an undeclared node")
            return out
    reach = {t.root}
    frontier = [t.root]
    while frontier:
        for _, child, _ in t.out_edges(frontier.pop()):
            if child not in reach:
                reach.add(child)
                frontier.append(child)
    for n in t.nodes:
        if n not in reach:
            out.append(f"tree {t.name}: node {n} unreachable from root")
    children = [child for _, child, _ in t.edges]
    covered = set(children)
    for n in t.nodes:
        if n != t.root and n not in covered:
            out.append(f"tree {t.name}: node {n} has no incoming edge")
    if t.finite and (t.root in covered
                     or len(covered) != len(children)
                     or len(t.edges) != len(t.nodes) - 1):
        out.append(f"tree {t.name}: tower contains back-edges")
    return out


def oracle_truncate(t: SignedTree, n: int, node_budget: int) -> SignedTree:
    """``truncate`` as it read before it checked the budget per level: one
    budget check per node, and every one of the n levels visited."""
    if n < 1:
        raise TreeError("truncation depth must be >= 1")
    nodes = [t.root]
    edges: list[TreeEdge] = []
    level = [(t.root, t.root)]
    for _ in range(n):
        below = []
        for uid, node in level:
            for _, child, sign in t.out_edges(node):
                child_uid = f"{t.root}.{len(nodes)}"
                nodes.append(child_uid)
                if len(nodes) > node_budget:
                    raise SizeLimit(f"unrolling {t.name} to depth {n} "
                                    f"exceeds {node_budget} nodes")
                edges.append(TreeEdge(uid, child_uid, sign))
                below.append((child_uid, child))
        level = below
    return SignedTree(f"{t.name}^{n}", tuple(nodes), t.root, tuple(edges),
                      finite=True)


def oracle_tower_answers(t: SignedTree):
    """``(positive branch, strict, prune depth, Kuga cost)`` of a tower as
    the library read them off the built tower before it counted levels: one
    depth-first search of the positive subgraph from the root, in post-order,
    and a walk down the levels for the deepest one.  The prune depth and
    the cost are None when a positive branch exists."""
    index: dict[str, list[tuple[str, int]]] = {}
    for parent, child, sign in t.edges:
        index.setdefault(parent, []).append((child, sign))
    order: list[str] = []  # every node after its positive children
    path, todo = [t.root], [iter(index.get(t.root, ()))]
    while todo:
        for child, sign in todo[-1]:
            if sign == 1:
                path.append(child)
                todo.append(iter(index.get(child, ())))
                break
        else:
            order.append(path.pop())
            todo.pop()
    branch = any(v not in index for v in order)
    level = [t.root]
    while True:
        below = [child for v in level for child, _ in index.get(v, ())]
        if not below:
            break
        level = below
    exempt = set(level)
    strict = all(sum(sign for _, sign in index.get(v, ())) > 0
                 for v in t.nodes if v not in exempt)
    if branch:
        return branch, strict, None, None
    longest: dict[str, int] = {}
    paths = dict.fromkeys(order, 0)
    paths[t.root] = 1
    cost = 0
    for v in order:
        longest[v] = max((1 + longest[child] for child, sign
                          in index.get(v, ()) if sign == 1), default=0)
    for v in reversed(order):
        for child, sign in index.get(v, ()):
            if sign == 1:
                paths[child] += paths[v]
            else:
                cost += paths[v]
    return branch, strict, 1 + longest[t.root], cost


def oracle_lines(text: str):
    """``textio._lines`` as it read before it split a piece of the text at
    a time: one list of every line of the document."""
    rows = text.splitlines()
    if "#" in text:
        rows = [raw.split("#", 1)[0] for raw in rows]
    return filter(itemgetter(1), enumerate(map(str.split, rows), 1))


def oracle_parse_tree_blocks(lines, stop_at=None):
    """The tree-block parser's contract over ``(line number, text)`` pairs:
    syntax errors in file order, and at the end of each block the first
    message of ``oracle_validate_tree`` on its entry's line.  The oracle
    keeps the line of every declared id, edge and root line to find it."""
    trees: dict[str, SignedTree] = {}
    cur: dict | None = None

    def sign(tok, n):
        if tok in ("+", "+1"):
            return 1
        if tok in ("-", "-1"):
            return -1
        raise ParseError(n, f"malformed sign {tok!r}")

    def rule_line(message):
        """The line of the entry that ``message`` names in the open block:
        the first repeated id, the root, the first edge with an undeclared
        endpoint, or the header for a rule of the whole tree."""
        declared = set()
        if message.endswith("duplicate node ids"):
            for nid, n in cur["nodes"]:
                if nid in declared:
                    return n
                declared.add(nid)
        if message.endswith("not declared"):
            return cur["root_line"]
        if message.endswith("references an undeclared node"):
            declared = {nid for nid, _ in cur["nodes"]}
            for parent, child, _, n in cur["edges"]:
                if parent not in declared or child not in declared:
                    return n
        return cur["line"]

    def finish():
        nonlocal cur
        if cur is None:
            return
        if cur["root"] is None:
            raise ParseError(cur["line"], f"tree {cur['name']} has no root")
        t = unvalidated([nid for nid, _ in cur["nodes"]], cur["root"],
                        [e[:3] for e in cur["edges"]], cur["finite"],
                        cur["name"])
        messages = oracle_validate_tree(t)
        if messages:
            raise ParseError(rule_line(messages[0]), messages[0])
        trees[cur["name"]] = t
        cur = None

    for k, (n, line) in enumerate(lines):
        toks = line.split()
        kw = toks[0]
        if stop_at is not None and kw == stop_at:
            finish()
            return trees, lines[k:]
        if kw == "tree":
            finish()
            if len(toks) != 2:
                raise ParseError(n, "tree header needs a name")
            if toks[1] in trees:
                raise ParseError(n, f"duplicate tree name {quoted(toks[1])}")
            cur = {"name": toks[1], "nodes": [], "root": None,
                   "root_line": None, "edges": [], "finite": False,
                   "line": n}
        elif cur is None:
            raise ParseError(n, "expected 'tree NAME' header first")
        elif kw == "node":
            cur["nodes"] += [(nid, n) for nid in toks[1:]]
        elif kw == "root":
            if len(toks) != 2 or cur["root"] is not None:
                raise ParseError(n, "malformed or duplicate root line")
            cur["root"], cur["root_line"] = toks[1], n
        elif kw == "edge":
            if len(toks) != 4:
                raise ParseError(n, "edge needs: edge PARENT CHILD SIGN")
            cur["edges"].append((toks[1], toks[2], sign(toks[3], n), n))
        elif kw == "finite":
            cur["finite"] = True
        else:
            raise ParseError(n, f"unknown keyword {kw!r}")
    finish()
    return trees, []


# -- middle-level data and descriptors -----------------------------------

def oracle_parse_middle_block(text, lines, trees):
    """The middle-block parser as it read before its fingers were built by
    a trusted builder: keywords in one order, each sphere index read by its
    own ``_int`` call, and every Finger built by its public constructor.
    Returns the middle data and the ``(id, cap)`` lines in file order."""
    from ribboncalc.textio import _int, _positioned
    caps_by_tree = {name: Cap(t) for name, t in trees.items() if not t.finite}
    pairs = None
    fingers, loops, caps = [], [], []
    started = False
    for n, toks in lines:
        kw = toks[0]
        if kw == "middle":
            if started:
                raise ParseError(n, "duplicate middle header")
            started = True
        elif not started:
            raise ParseError(n, "expected 'middle' header first")
        elif kw == "pairs":
            if len(toks) != 2 or pairs is not None:
                raise ParseError(n, "malformed or duplicate pairs line")
            pairs = _int(toks[1], n, "pair count")
        elif kw == "finger":
            if len(toks) != 5:
                raise ParseError(n, "finger needs: finger ID FROM THRU WID")
            fingers.append(Finger(toks[1], _int(toks[2], n, "sphere index"),
                                  _int(toks[3], n, "sphere index"), toks[4]))
        elif kw == "loop":
            if len(toks) < 3:
                raise ParseError(n, "loop needs an id and at least one finger")
            loops.append(AccessoryLoop(toks[1], tuple(toks[2:])))
        elif kw == "cap":
            if len(toks) < 3:
                raise ParseError(n, "cap needs: cap ID standard|tree NAME")
            if toks[2] == "standard" and len(toks) == 3:
                caps.append((toks[1], STANDARD_CAP))
            elif toks[2] == "tree" and len(toks) == 4:
                if toks[3] not in trees:
                    raise ParseError(n, "cap references unknown tree "
                                        f"{quoted(toks[3])}")
                if toks[3] not in caps_by_tree:
                    raise ParseError(n, f"cap names tree {quoted(toks[3])}, "
                                        "a finite tower, not a Casson handle")
                caps.append((toks[1], caps_by_tree[toks[3]]))
            else:
                raise ParseError(n, "malformed cap line")
        else:
            raise ParseError(n, f"unknown keyword {quoted(kw)}")
    if not started:
        raise ParseError(1, "missing 'middle' header")
    if pairs is None:
        raise ParseError(1, "middle block has no pairs line")
    try:
        m = MiddleLevelData(pairs, tuple(fingers), tuple(loops))
    except MiddleError as exc:
        raise _positioned(exc, text, 1) from None
    return m, caps


def oracle_parse_ribbon(text: str) -> RibbonDescriptor:
    """``parse_ribbon`` over ``oracle_parse_middle_block``, its caps always
    ranked and sorted into canonical order and judged by the public
    RibbonDescriptor."""
    from ribboncalc.textio import _parse_tree_blocks, _positioned
    trees, rest = _parse_tree_blocks(text, stop_at="middle")
    if rest is None:
        raise ParseError(1, "ribbon document has no middle block")
    m, caps = oracle_parse_middle_block(text, rest, trees)
    rank = {cid: k for k, cid in enumerate(m.cap_ids())}
    ranks = [rank.get(cid, len(rank)) for cid, _ in caps]
    order = sorted(range(len(caps)), key=ranks.__getitem__)
    try:
        return RibbonDescriptor(m, tuple(caps[k] for k in order))
    except MiddleError as exc:
        raise _positioned(exc, text, 1, order) from None


def mutant(rng: random.Random, text: str) -> str:
    """``text`` with one line dropped or duplicated, two lines swapped, or
    one token replaced by a token of the text or by a junk token."""
    lines = text.splitlines()
    at = rng.randrange(len(lines))
    op = rng.randrange(4)
    if op == 0:
        del lines[at]
    elif op == 1:
        lines.insert(at, lines[rng.randrange(len(lines))])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[at], lines[j] = lines[j], lines[at]
    else:
        toks = lines[at].split() or [""]
        pool = text.split() + ["x", "0", "-1", "1.5", "99", "cap", "tree",
                               "finger", "standard", "loop", "pairs"]
        toks[rng.randrange(len(toks))] = rng.choice(pool)
        lines[at] = " ".join(toks)
    return "\n".join(lines) + "\n"


def oracle_stabilization_plan(r: RibbonDescriptor):
    """The planner as it read before its Norman tricks skipped the row
    replay: every value built by its public constructor, each Norman delta
    computed by ``norman_trick_step`` on the excess rows, the finger
    graph's sinks-first order taken as given."""
    from ribboncalc import finger_graph, kuga_blowup_cost, prune_depth
    from ribboncalc.simplify import (PRODUCT_NOTE, CancelFinger, CancelPair,
                                     NormanTrick, Outcome, ReplaceCap,
                                     StabilizationPlan)
    from ribboncalc import excess_rows, is_positive_ribbon, norman_trick_step
    decision = is_positive_ribbon(r)
    if decision.positive:
        return StabilizationPlan(0, 0, (), Outcome(
            "positive-obstruction", witness_loop=decision.witness_loop))
    steps, blowups, k, caps = [], 0, 0, dict(r.caps)
    for cid, cap in r.caps:
        if cap.standard or cap.positive:
            continue
        steps.append(ReplaceCap(cid, kuga_blowup_cost(cap.tree)))
        blowups += steps[-1].cost
        k = max(k, prune_depth(cap.tree))
        caps[cid] = STANDARD_CAP
    m = r.middle
    rest = []
    for f in m.fingers:
        if caps[f.whitney].standard:
            steps.append(CancelFinger(f.id, f.whitney))
        else:
            rest.append(f)
    left = MiddleLevelData(m.pairs, tuple(rest), ())
    graph = finger_graph(left)
    assert not graph.cycles
    rows = excess_rows(left)
    for source in graph.order:
        for f in rest:
            if f.from_a == source:
                delta = norman_trick_step(rows, f.from_a, f.through_b)
                steps.append(NormanTrick(f.id, tuple(sorted(delta.items()))))
    steps += [CancelPair((f"A{i}", f"B{i}")) for i in range(1, m.pairs + 1)]
    return StabilizationPlan(k, blowups, tuple(steps),
                             Outcome("product", note=PRODUCT_NOTE))


def random_acyclic_middle(rng: random.Random, max_pairs: int = 6,
                          max_fingers: int = 8,
                          with_loops: bool = True) -> MiddleLevelData:
    pairs = rng.randint(1, max_pairs)
    order = list(range(1, pairs + 1))
    rng.shuffle(order)
    rank = {s: i for i, s in enumerate(order)}
    fingers = []
    if pairs > 1:
        for k in range(rng.randint(0, max_fingers)):
            a, b = rng.sample(order, 2)
            if rank[a] > rank[b]:
                a, b = b, a
            fingers.append(Finger(f"f{k}", a, b, f"w{k}"))
    loops = []
    if with_loops and fingers:
        for k in range(rng.randint(0, 2)):
            chosen = rng.sample(fingers, rng.randint(1, len(fingers)))
            loops.append(AccessoryLoop(f"l{k}",
                                       tuple(f.id for f in chosen)))
    return MiddleLevelData(pairs, tuple(fingers), tuple(loops))


def random_cyclic_middle(rng: random.Random, max_pairs: int = 6,
                         max_fingers: int = 8) -> MiddleLevelData:
    m = random_acyclic_middle(rng, max_pairs, max_fingers, with_loops=False)
    fingers = list(m.fingers)
    k = len(fingers)
    if fingers and rng.random() < 0.5:
        # close an existing edge into a cycle
        f = rng.choice(fingers)
        fingers.append(Finger(f"f{k}", f.through_b, f.from_a, f"w{k}"))
    else:
        s = rng.randint(1, m.pairs)
        fingers.append(Finger(f"f{k}", s, s, f"w{k}"))
    return MiddleLevelData(m.pairs, tuple(fingers), ())


def random_nonpositive_descriptor(rng: random.Random, max_pairs: int = 6,
                                  max_fingers: int = 8,
                                  max_tree_nodes: int = 12):
    """A descriptor with only standard or non-positive caps.

    Every loop is then breakable after cap replacement and the finger graph
    is acyclic, so the stabilization pipeline applies end to end.
    """
    m = random_acyclic_middle(rng, max_pairs, max_fingers)
    from ribboncalc import chplus
    on_loop = {fid for l in m.accessory_loops for fid in l.fingers}
    caps = {}
    for f in m.fingers:
        # Off-loop fingers may carry a positive cap (they are removed by
        # Norman tricks); fingers on loops must end up standard-capped so
        # every loop is breakable.
        if f.id not in on_loop and rng.random() < 0.3:
            caps[f.whitney] = Cap(chplus(f"chp_{f.whitney}"))
        elif rng.random() < 0.5:
            caps[f.whitney] = STANDARD_CAP
        else:
            caps[f.whitney] = Cap(random_nonpositive_tree(rng, max_tree_nodes))
    for l in m.accessory_loops:
        caps[l.id] = (STANDARD_CAP if rng.random() < 0.5
                      else Cap(random_nonpositive_tree(rng, max_tree_nodes)))
    return make_descriptor(m, caps)


# -- move scripts ---------------------------------------------------------

def random_script(rng: random.Random, max_commands: int = 20):
    from ribboncalc import Command, MoveScript

    def cid() -> str:
        return f"c{rng.randrange(30)}"

    makers = [
        lambda: Command("slide", (cid(), cid(), rng.choice((1, -1)))),
        lambda: Command("blowup", (rng.choice((1, -1)), cid())),
        # Distinct strand ids, as script text requires; the dict draws
        # from rng exactly as a tuple of pairs would.
        lambda: Command("twistblowup",
                        (rng.choice((1, -1)), cid(),
                         tuple({cid(): rng.randint(-3, 3)
                                for _ in range(rng.randint(1, 3))}.items()))),
        lambda: Command("blowdown", (cid(),)),
        lambda: Command("swap", (cid(),)),
        lambda: Command("addpair", ("12", cid(), cid())),
        lambda: Command("addpair", ("23", cid())),
        lambda: Command("cancel", (cid(), cid())),
        lambda: Command("cancel", (None, cid())),
        lambda: Command("dualize"),
        lambda: Command("assert-homology",
                        (rng.choice(("plus", "minus")), rng.randint(0, 5),
                         tuple(sorted(rng.randint(2, 9)
                                      for _ in range(rng.randint(0, 2)))))),
        lambda: Command("assert-euler", (rng.randint(-5, 9),)),
        lambda: Command("assert-signature", (rng.randint(-4, 4),)),
        lambda: Command("assert-geom", (cid(), cid(), rng.randint(0, 6))),
    ]
    cmds = tuple(rng.choice(makers)() for _ in range(rng.randint(0, max_commands)))
    return MoveScript(f"s{rng.randrange(10**6)}", cmds)


def dense_geometric_matrix(m: MiddleLevelData) -> list[list[int]]:
    """G[i][j] = delta_ij + 2 * (number of fingers from A_i through B_j)."""
    g = [[1 if i == j else 0 for j in range(m.pairs)] for i in range(m.pairs)]
    for f in m.fingers:
        g[f.from_a - 1][f.through_b - 1] += 2
    return g


def dense_norman_trick_step(g: list[list[int]], from_a: int,
                            through_b: int) -> dict[int, int]:
    """The Norman trick on the full matrix, in place: row i gains twice
    row j's excess over the identity and G[i][j] drops by 2.  Returns the
    per-column delta (excluding the -2 on the finger entry)."""
    i, j = from_a - 1, through_b - 1
    if g[i][j] < 2:
        raise ValueError(f"no finger pair between A_{from_a} and B_{through_b}")
    delta: dict[int, int] = {}
    excess = [g[j][t] - (1 if t == j else 0) for t in range(len(g))]
    for t, x in enumerate(excess):
        if x:
            g[i][t] += 2 * x
            delta[t + 1] = 2 * x
    g[i][j] -= 2
    return delta


def dense_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dense_excess_rows(g: list[list[int]]) -> dict[int, dict[int, int]]:
    """The nonzero entries of G minus the identity, as 1-based sparse rows."""
    rows: dict[int, dict[int, int]] = {}
    for i, row in enumerate(g, 1):
        for j, x in enumerate(row, 1):
            if x != (i == j):
                rows.setdefault(i, {})[j] = x - (i == j)
    return rows


def dense_norman_replay(m: MiddleLevelData, steps) -> list[list[int]]:
    """Replay Norman-trick steps on the full matrix of ``m``, asserting that
    each recorded delta equals the dense one; returns the final matrix."""
    g = dense_geometric_matrix(m)
    for s in steps:
        f = m.finger(s.finger)
        delta = dense_norman_trick_step(g, f.from_a, f.through_b)
        assert s.delta == tuple(sorted(delta.items())), (s, delta)
    return g


def oracle_cycle_exists(m: MiddleLevelData) -> bool:
    """Plain DFS cycle oracle on the finger multigraph."""
    succ: dict[int, list[int]] = {}
    for f in m.fingers:
        succ.setdefault(f.from_a, []).append(f.through_b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in range(1, m.pairs + 1)}

    def dfs(v: int) -> bool:
        color[v] = GRAY
        for w in succ.get(v, ()):
            if color[w] == GRAY:
                return True
            if color[w] == WHITE and dfs(w):
                return True
        color[v] = BLACK
        return False

    return any(color[n] == WHITE and dfs(n) for n in color)
