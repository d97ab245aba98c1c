"""Signed trees: positivity, pruning quantities and truncation."""

import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest

import ribboncalc
from ribboncalc import (SignedTree, SizeLimit, TreeEdge, TreeError, chplus,
                        is_positive, is_strictly_positive, kuga_blowup_cost,
                        positive_witness, prune_depth,
                        tower_has_positive_branch, trees, truncate,
                        validate_tree)

from ribboncalc.corpus import corpus_names, corpus_text
from ribboncalc.textio import (parse_any, parse_ribbon, parse_tree,
                               serialize_tree)

from genlib import (BROKEN_TREE_KINDS, broken_tree, oracle_frontier_negatives,
                    oracle_is_positive, oracle_longest_positive_path,
                    oracle_positive_states, oracle_tower_answers,
                    oracle_truncate, oracle_validate_tree,
                    random_nonpositive_tree, random_tree, unvalidated)


def tree(nodes, root, edges, finite=False, name="t"):
    return SignedTree(name, tuple(nodes), root,
                      tuple(TreeEdge(p, c, s) for p, c, s in edges), finite)


def cycle(n, last_sign=1):
    """Nodes c0..c(n-1) on one cycle; every edge positive but the last."""
    nodes = [f"c{i}" for i in range(n)]
    edges = [(nodes[i], nodes[i + 1], 1) for i in range(n - 1)]
    return tree(nodes, "c0", edges + [(nodes[-1], "c0", last_sign)])


def diamond_chain(d):
    """v_i -> a_i, b_i -> v_(i+1), all positive, and a negative edge from
    v_d back to the root: 2^d positive paths meet that edge."""
    v = [f"v{i}" for i in range(d + 1)]
    a = [f"a{i}" for i in range(d)]
    b = [f"b{i}" for i in range(d)]
    edges = []
    for i in range(d):
        edges += [(v[i], a[i], 1), (v[i], b[i], 1),
                  (a[i], v[i + 1], 1), (b[i], v[i + 1], 1)]
    return tree(v + a + b, "v0", edges + [(v[d], "v0", -1)])


def first_message(t):
    """The message ``validate_tree`` raises for ``t``, or None."""
    try:
        validate_tree(t)
    except TreeError as exc:
        return str(exc)
    return None


def oracle_first(t):
    """The first message of ``oracle_validate_tree``, or None."""
    return next(iter(oracle_validate_tree(t)), None)


# Single negative self-kink at every level.
CHMINUS = tree(["r"], "r", [("r", "r", -1)], name="chminus")
# Positive kink followed by a negative one, repeating.
ALTERNATING = tree(["a", "b"], "a",
                   [("a", "b", 1), ("b", "a", -1)], name="alt")


class TestTreeEdge:
    @pytest.mark.parametrize("sign", [0, 2, 5])
    def test_sign_must_be_one_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            TreeEdge("a", "b", sign)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, "+"])
    def test_sign_must_be_an_int(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            TreeEdge("a", "b", sign)
        with pytest.raises(ValueError, match="sign must be"):
            TreeEdge("a", "b", 1)._replace(sign=sign)

    def test_replace_and_make_check_the_sign(self):
        e = TreeEdge("a", "b", 1)
        assert e._replace(sign=-1) == TreeEdge("a", "b", -1)
        with pytest.raises(ValueError):
            e._replace(sign=0)
        with pytest.raises(ValueError):
            TreeEdge._make(("a", "b", 2))
        with pytest.raises(ValueError):
            e._replace(sign=5)
        with pytest.raises(ValueError):
            TreeEdge._make(("a", "b", 5))

    def test_a_tuple_record(self):
        e = TreeEdge(parent="a", child="b", sign=-1)
        assert e == ("a", "b", -1) and hash(e) == hash(("a", "b", -1))
        assert (e.parent, e.child, e.sign) == tuple(e)
        assert repr(e) == "TreeEdge(parent='a', child='b', sign=-1)"
        with pytest.raises(AttributeError):
            e.sign = 1


class TestValidation:
    def test_plain_tuple_edges_are_refused(self):
        # Edges are stored as exact (parent, child, sign) tuples.  A plain
        # tuple skips TreeEdge's sign check, so construction checks its
        # sign, the type included; any other value is refused by its shape.
        good = ("r", "a", 1)
        assert SignedTree("t", ("r", "a"), "r", (good,)).edges == (good,)
        for sign in (5, True, 1.0):
            with pytest.raises(TreeError) as e:
                SignedTree("t", ("r", "a"), "r", (("r", "a", sign),))
            assert str(e.value) == (f"tree t: edge r->a has sign {sign!r}, "
                                    "not +1 or -1")
            assert e.value.entry == ("edge", 0)

        class Other(tuple):
            pass

        for bad in ("ra+", ["r", "a", 1], ("r", "a"), ("r", "a", 1, 1),
                    Other(good)):
            with pytest.raises(TreeError) as e:
                SignedTree("t", ("r", "a"), "r", (TreeEdge("r", "a", 1), bad))
            assert str(e.value) == (f"tree t: edge {bad!r} is not a "
                                    "(parent, child, sign) tuple")
            assert e.value.entry == ("edge", 1)

    def test_tree_edges_are_stored_as_plain_tuples(self):
        # A TreeEdge is stored as the equal exact tuple, hashing alike, and
        # is read back by name with TreeEdge._make.
        given = (TreeEdge("r", "a", 1), ("a", "r", -1))
        t = SignedTree("t", ("r", "a"), "r", given)
        assert t.edges == given and hash(t.edges) == hash(given)
        assert [type(e) for e in t.edges] == [tuple, tuple]
        assert TreeEdge._make(t.edges[1]).sign == -1
        assert t == SignedTree("t", ("r", "a"), "r", tuple(map(tuple, given)))
        # Exact tuples are kept as given, the edge tuple itself included.
        plain = tuple(map(tuple, given))
        assert SignedTree("t", ("r", "a"), "r", plain).edges is plain

    def test_sign_column_is_checked(self):
        # A TreeEdge made past its constructor still meets the sign rule,
        # its type included: True and 1.0 equal 1 but are not ints.
        good = TreeEdge("r", "a", 1)
        for sign in (5, True, 1.0, -1.0, [1]):
            bad = tuple.__new__(TreeEdge, ("a", "b", sign))
            with pytest.raises(TreeError) as e:
                SignedTree("t", ("r", "a", "b"), "r", (good, bad))
            assert str(e.value) == (f"tree t: edge a->b has sign {sign!r}, "
                                    "not +1 or -1")
            assert e.value.entry == ("edge", 1)

    def test_duplicate_nodes(self):
        with pytest.raises(TreeError, match="duplicate"):
            tree(["a", "a"], "a", [])

    def test_unreachable_node(self):
        with pytest.raises(TreeError, match="unreachable"):
            tree(["a", "b"], "a", [])

    def test_undeclared_edge_endpoint(self):
        with pytest.raises(TreeError, match="undeclared"):
            tree(["a"], "a", [("a", "b", 1)])

    def test_tower_rejects_back_edges(self):
        with pytest.raises(TreeError, match="back-edges"):
            tree(["a", "b"], "a", [("a", "b", 1), ("b", "a", 1)], finite=True)

    def test_tower_rejects_duplicate_parallel_edges(self):
        with pytest.raises(TreeError, match="back-edges"):
            tree(["a", "b"], "a", [("a", "b", 1), ("a", "b", 1)], finite=True)

    def test_every_message_in_order(self):
        # One tower breaks every rule; mending the reported one at a time
        # brings up the next, with its entry, and then nothing.
        def first(nodes, root, edges):
            t = unvalidated(nodes, root, edges, finite=True)
            with pytest.raises(TreeError) as e:
                validate_tree(t)
            assert str(e.value) == oracle_first(t)
            return str(e.value), e.value.entry

        def shaped(nodes, root, edges):  # the oracle reads no shapes
            t = unvalidated(nodes, root, [], finite=True)
            object.__setattr__(t, "edges", tuple(edges))
            with pytest.raises(TreeError) as e:
                validate_tree(t)
            return str(e.value), e.value.entry

        nodes = ["a", "b", "c", "d"]
        edges = [("a", "b", 1), ("b", "a", 1), ("c", "c", -1), ("b", "z", 1)]
        assert first(nodes[:3] + ["b", "d"], "r", edges) == (
            "tree t: duplicate node ids", ("node", 3))
        assert first(nodes, "r", edges) == (
            "tree t: root 'r' not declared", ("root", 0))
        # The shape of each edge, then its sign, come before its endpoints.
        assert shaped(nodes, "a", edges + [("z", "a")]) == (
            "tree t: edge ('z', 'a') is not a (parent, child, sign) tuple",
            ("edge", 4))
        assert shaped(nodes, "a", edges + [TreeEdge("z", "a", 1)]) == (
            "tree t: edge TreeEdge(parent='z', child='a', sign=1) is not a "
            "(parent, child, sign) tuple", ("edge", 4))
        assert shaped(nodes, "a", edges + [("z", "a", 1.0)]) == (
            "tree t: edge z->a has sign 1.0, not +1 or -1", ("edge", 4))
        assert first(nodes, "a", edges) == (
            "tree t: edge b->z references an undeclared node", ("edge", 3))
        edges.pop()
        assert first(nodes, "a", edges) == (
            "tree t: node c unreachable from root", None)
        edges.append(("a", "c", 1))
        assert first(nodes, "a", edges) == (
            "tree t: node d unreachable from root", None)
        edges.append(("c", "d", -1))
        assert first(nodes, "a", edges) == (
            "tree t: tower contains back-edges", None)
        t = unvalidated(nodes, "a", [("a", "b", 1), ("a", "c", 1),
                                     ("c", "d", -1)], finite=True)
        assert validate_tree(t) is None

    def test_random_trees_validate(self):
        rng = random.Random(3)
        for _ in range(200):
            assert validate_tree(random_tree(rng)) is None


class TestLongNames:
    """Messages cut a name or id longer than 40 characters, as
    ``scripts.quoted`` does, and show a shorter one as it is."""

    LONG = "x" * 5000

    def refused(self, build, error=TreeError):
        with pytest.raises(error) as e:
            build()
        message = str(e.value)
        assert " characters)" in message and len(message) < 120
        return message

    def test_judge_messages(self):
        # The rules no document can break; test_cli reaches the others.
        long = self.LONG
        self.refused(lambda: SignedTree("t", ("a",), "a", (("a", long, 5),)))
        self.refused(lambda: SignedTree(long, ("a",), "a", (("a", 5, 1),)))
        self.refused(lambda: SignedTree("t", ("a",), "a", ((long, "a"),)))
        self.refused(lambda: SignedTree("t", ("a",), "a", ((long, "a", 5),)))

    def test_query_messages(self):
        long = self.LONG
        handle = chplus(long)
        tower = truncate(handle, 3)
        self.refused(lambda: truncate(handle, 10 ** 6), SizeLimit)
        self.refused(lambda: is_positive(tower))
        self.refused(lambda: tower_has_positive_branch(handle))
        self.refused(lambda: kuga_blowup_cost(handle))
        self.refused(lambda: kuga_blowup_cost(tower))
        short = chplus("h" * 40)
        with pytest.raises(SizeLimit) as e:
            truncate(short, 10 ** 6)
        assert str(e.value) == (f"unrolling {'h' * 40} to depth 1000000 "
                                "exceeds 100000 nodes")


class TestAgainstOracles:
    """validate_tree and truncate against copies of their earlier versions
    in genlib: the first of the oracle's messages, the same towers."""

    def test_valid_trees(self):
        rng = random.Random(41)
        for _ in range(300):
            t = random_tree(rng, finite=rng.random() < 0.5)
            assert validate_tree(t) is None and oracle_validate_tree(t) == []
            # Children listed before their parents.
            edges = list(t.edges)
            rng.shuffle(edges)
            shuffled = SignedTree(t.name, t.nodes, t.root, tuple(edges),
                                  t.finite)
            assert validate_tree(shuffled) is None

    def test_child_edge_listed_before_its_parent_edge(self):
        t = tree(["a", "b", "c"], "a", [("b", "c", 1), ("a", "b", -1)],
                 finite=True)
        assert first_message(t) is oracle_first(t) is None
        edges = [("b", "c", 1), ("c", "d", -1), ("a", "b", 1), ("d", "b", 1)]
        t = tree(["a", "b", "c", "d"], "a", edges)
        assert first_message(t) is oracle_first(t) is None

    @pytest.mark.parametrize("kind", BROKEN_TREE_KINDS)
    def test_broken_one_way(self, kind):
        rng = random.Random(kind)
        for _ in range(200):
            t = broken_tree(rng, (kind,))
            got = first_message(t)
            assert got is not None and got == oracle_first(t)

    def test_undeclared_endpoint_reports_the_first_edge(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(300):
            t = broken_tree(rng, ("parent", "child"))
            got = first_message(t)
            assert [got] == oracle_validate_tree(t)
            seen.add(got.split()[3].startswith("x->"))
        assert seen == {True, False}  # parent first, child first

    def test_broken_several_ways(self):
        rng = random.Random(47)
        for _ in range(600):
            kinds = rng.sample(BROKEN_TREE_KINDS, rng.randint(2, 4))
            t = broken_tree(rng, kinds)
            got = first_message(t)
            assert got is not None and got == oracle_first(t)

    def test_towers(self):
        rng = random.Random(53)
        for _ in range(300):
            t = random_tree(rng, max_nodes=8)
            depth = rng.randint(1, 12)
            budget = rng.choice((50, 500, 5000))
            try:
                want = oracle_truncate(t, depth, budget)
            except SizeLimit as exc:
                with pytest.raises(SizeLimit) as got:
                    truncate(t, depth, budget)
                assert str(got.value) == str(exc)
                continue
            assert truncate(t, depth, budget) == want
            size = len(want.nodes)
            assert truncate(t, depth, size) == want
            if size > 1:
                with pytest.raises(SizeLimit):
                    oracle_truncate(t, depth, size - 1)
                with pytest.raises(SizeLimit):
                    truncate(t, depth, size - 1)

    def test_tower_answers(self):
        # truncate counts a tower's answers a level at a time on the handle.
        # The oracle's tower, read by the depth-first oracle and by brute
        # force, must give the same answers, and so must the tower rebuilt
        # without the answers that truncate filled in.
        rng = random.Random(59)
        checked = 0
        for _ in range(400):
            h = random_tree(rng, max_nodes=8)
            depth = rng.randint(1, 12)
            try:
                want = oracle_truncate(h, depth, 5000)
            except SizeLimit:
                continue
            tower = truncate(h, depth, 5000)
            assert (tower.nodes, tower.edges) == (want.nodes, want.edges)
            oracle = oracle_tower_answers(want)
            rebuilt = SignedTree(tower.name, tower.nodes, tower.root,
                                 tower.edges, True)
            for t in (tower, rebuilt):
                got = (tower_has_positive_branch(t), is_strictly_positive(t),
                       prune_depth(t), None if oracle[0] else
                       kuga_blowup_cost(t))
                assert got == oracle, (h, depth)
            # By brute force: positive walks of the tower, and each node's
            # level found by climbing to the root.
            leaves = set(want.nodes) - {p for p, _, _ in want.edges}
            branch = any(v in leaves
                         for v, _ in oracle_positive_states(want, depth))
            assert oracle[0] == branch
            if not branch:
                assert oracle[2] == 1 + oracle_longest_positive_path(want)
                assert oracle[3] == oracle_frontier_negatives(want)
            up = {c: p for p, c, _ in want.edges}
            level = {}
            for v in want.nodes:
                w, k = v, 0
                while w != want.root:
                    w, k = up[w], k + 1
                level[v] = k
            signs = dict.fromkeys(want.nodes, 0)
            for p, _, sign in want.edges:
                signs[p] += sign
            deepest = max(level.values())
            assert oracle[1] == all(signs[v] > 0 for v in want.nodes
                                    if level[v] < deepest)
            checked += 1
        assert checked > 300


class TestTrustedEdgesAndReachability:
    """The parser and truncate build edges without TreeEdge's sign check,
    and validation reaches nodes by one pass in edge order before it falls
    back to the out-index."""

    def test_built_edges_are_tree_edges(self):
        # Every builder stores exact (parent, child, sign) tuples, which
        # the GC can untrack: the parser, truncate and the corpus caps.
        handle = parse_tree("tree t\nnode r a\nroot r\nedge r a +\n"
                            "edge a r -\nedge r r +1\nedge a a -1\n")
        tower = truncate(handle, 6)
        built = [handle, tower, parse_tree(serialize_tree(tower))]
        for name in corpus_names():
            if name.endswith(".ribbon"):
                r = parse_ribbon(corpus_text(name))
                built += [cap.tree for _, cap in r.caps if cap.tree]
        assert len(built) > 3
        for t in built:
            assert t.edges and {type(e) for e in t.edges} == {tuple}
            assert {len(e) for e in t.edges} == {3}
            assert {sign for _, _, sign in t.edges} <= {1, -1}

    def test_unreachable_two_cycle_in_a_tower(self):
        # Each node has one parent and the counts of a tower hold, so only
        # reachability fails; the first in declared node order is named.
        t = unvalidated(["r", "y", "a", "x"], "r",
                        [("r", "a", 1), ("x", "y", 1), ("y", "x", -1)],
                        finite=True)
        assert first_message(t) == oracle_first(t) == (
            "tree t: node y unreachable from root")
        with pytest.raises(TreeError, match="node y unreachable"):
            SignedTree(t.name, t.nodes, t.root, t.edges, True)

    def test_reversed_hundred_thousand_node_chain(self):
        # Edges listed last level first: the pass in edge order reaches one
        # node, and the out-index walk must reach the rest in linear time.
        n = 100_000
        nodes = tuple(f"c{i}" for i in range(n))
        edges = tuple(TreeEdge(nodes[i], nodes[i + 1], 1)
                      for i in reversed(range(n - 1)))
        start = time.perf_counter()
        t = SignedTree("chain", nodes, nodes[0], edges, finite=True)
        elapsed = time.perf_counter() - start
        assert len(t.nodes) == n
        assert elapsed < 2.0, f"{elapsed:.2f}s"


class TestPositivity:
    def test_chplus_is_positive(self):
        assert is_positive(chplus())

    def test_chplus_witness_is_the_self_loop(self):
        w = positive_witness(chplus())
        assert w.cycle == ("r",)
        assert w.prefix == ("r",)

    def test_chminus_not_positive(self):
        assert not is_positive(CHMINUS)
        assert positive_witness(CHMINUS) is None

    def test_alternating_not_positive(self):
        # The only cycle uses a negative edge.
        assert not is_positive(ALTERNATING)

    def test_positive_cycle_behind_prefix(self):
        t = tree(["a", "b", "c"], "a",
                 [("a", "b", 1), ("b", "c", 1), ("c", "b", 1)])
        w = positive_witness(t)
        assert w is not None
        assert w.prefix[0] == "a"
        assert set(w.cycle) == {"b", "c"}

    def test_cycle_behind_negative_edge_does_not_count(self):
        t = tree(["a", "b"], "a", [("a", "b", -1), ("b", "b", 1)])
        assert not is_positive(t)

    def test_towers_use_branch_predicate(self):
        t = tree(["a", "b"], "a", [("a", "b", 1)], finite=True)
        assert tower_has_positive_branch(t)
        with pytest.raises(TreeError):
            positive_witness(t)
        with pytest.raises(TreeError):
            tower_has_positive_branch(chplus())

    def test_oracle_agreement(self):
        rng = random.Random(11)
        for _ in range(500):
            t = random_tree(rng)
            assert is_positive(t) == oracle_is_positive(t), t


class TestStrictPositivity:
    def test_chplus_strict(self):
        assert is_strictly_positive(chplus())

    def test_balanced_is_not_strict(self):
        t = tree(["a", "b", "c"], "a", [("a", "b", 1), ("a", "c", -1),
                                        ("b", "b", 1), ("c", "c", 1)])
        assert not is_strictly_positive(t)

    def test_tower_max_depth_leaves_exempt(self):
        t = tree(["a", "b"], "a", [("a", "b", 1)], finite=True)
        assert is_strictly_positive(t)

    def test_edges_in_any_order(self):
        # The child edge is listed before the edge that reaches its parent.
        tower = tree(["a", "b", "c"], "a", [("b", "c", 1), ("a", "b", 1)],
                     finite=True)
        assert is_strictly_positive(tower)
        handle = tree(["a", "b", "c"], "a",
                      [("b", "c", 1), ("a", "b", 1), ("c", "c", -1)])
        assert not is_strictly_positive(handle)

    def test_tower_short_leaf_not_exempt(self):
        t = tree(["a", "b", "c", "d"], "a",
                 [("a", "b", 1), ("a", "c", 1), ("b", "d", 1)], finite=True)
        # c is a leaf at depth 1 < max depth 2, so strictness fails at c.
        assert not is_strictly_positive(t)


class TestTruncate:
    def test_depth_one_of_chplus(self):
        t = truncate(chplus(), 1)
        assert t.finite
        assert len(t.nodes) == 2
        assert t.edges[0][2] == 1

    def test_unrolls_back_edges(self):
        t = truncate(ALTERNATING, 4)
        assert t.finite
        # Path a -> b -> a -> b -> a: one node per level.
        assert len(t.nodes) == 5
        assert [sign for _, _, sign in t.edges] == [1, -1, 1, -1]

    def test_ids_in_creation_order(self):
        binary = tree(["r"], "r", [("r", "r", 1), ("r", "r", -1)])
        t = truncate(binary, 2)
        assert t.nodes == ("r",) + tuple(f"r.{i}" for i in range(1, 7))
        assert list(t.edges) == [
            ("r", "r.1", 1), ("r", "r.2", -1),
            ("r.1", "r.3", 1), ("r.1", "r.4", -1),
            ("r.2", "r.5", 1), ("r.2", "r.6", -1)]

    @pytest.mark.parametrize("depth", ["3", True, 3.0, None])
    def test_depth_must_be_an_int(self, depth):
        with pytest.raises(TreeError, match="depth must be an int >= 1"):
            truncate(chplus(), depth)

    def test_depth_must_be_positive(self):
        with pytest.raises(TreeError):
            truncate(chplus(), 0)

    def test_node_budget(self):
        bushy = tree(["r"], "r", [("r", "r", 1), ("r", "r", 1)])
        with pytest.raises(SizeLimit):
            truncate(bushy, 30, node_budget=1000)

    def test_stops_when_the_unrolling_dies_out(self):
        # The unrolling of r -> a is empty below depth 1: no level below
        # it may be visited, or depth 10^12 would never return.
        h = tree(["r", "a"], "r", [("r", "a", -1)], name="h")
        start = time.perf_counter()
        tower = truncate(h, 10 ** 12)
        assert time.perf_counter() - start < 0.1
        short = truncate(h, 1)
        assert tower.name == "h^1000000000000"
        assert (tower.nodes, tower.root, tower.edges, tower.finite) == (
            short.nodes, short.root, short.edges, short.finite)

    def test_node_budget_boundary(self):
        binary = tree(["r"], "r", [("r", "r", 1), ("r", "r", -1)])
        for depth in range(1, 8):
            size = 2 ** (depth + 1) - 1
            assert len(truncate(binary, depth, node_budget=size).nodes) == size
            with pytest.raises(SizeLimit, match=f"exceeds {size - 1} nodes"):
                truncate(binary, depth, node_budget=size - 1)

    def test_wide_level_raises_before_it_is_built(self):
        # Building the 200 000-node level would allocate tens of MB of ids
        # and edges; refusing it from the node count allocates almost none.
        loops = SignedTree("w", ("r",), "r", (("r", "r", 1),) * 200_000)
        loops._out_index  # indexed before the measurement
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(SizeLimit, match="exceeds 100000 nodes"):
                truncate(loops, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not outer:
                tracemalloc.stop()
        assert peak < 1e6, f"traced peak {peak / 1e6:.1f} MB: level built"

    def test_truncation_reaches_full_depth_iff_positive(self):
        # An all-positive path through the whole depth-(n+1) truncation
        # exists exactly when the infinite tree is positive.
        rng = random.Random(5)
        for _ in range(100):
            t = random_tree(rng, max_nodes=8)
            n = len(t.nodes) + 1
            try:
                tower = truncate(t, n, node_budget=20000)
            except SizeLimit:
                continue

            def deepest(v, depth=0):
                outs = [child for parent, child, sign in tower.edges
                        if parent == v and sign == 1]
                return max((deepest(child, depth + 1) for child in outs),
                           default=depth)

            assert (deepest(tower.root) == n) == is_positive(t)


class TestPruneDepth:
    def test_positive_tree_is_unprunable(self):
        assert prune_depth(chplus()) is None

    def test_chminus(self):
        assert prune_depth(CHMINUS) == 1

    def test_alternating(self):
        # Longest all-positive rooted path has length 1 (a -> b).
        assert prune_depth(ALTERNATING) == 2

    def test_tower_with_positive_branch(self):
        t = tree(["a", "b"], "a", [("a", "b", 1)], finite=True)
        assert prune_depth(t) is None

    def test_finite_iff_not_positive(self):
        rng = random.Random(13)
        for _ in range(300):
            t = random_tree(rng)
            assert (prune_depth(t) is None) == is_positive(t)

    def test_matches_longest_positive_path_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            t = random_nonpositive_tree(rng)
            assert prune_depth(t) == 1 + oracle_longest_positive_path(t)


class TestKugaBlowupCost:
    def test_chminus_costs_one(self):
        assert kuga_blowup_cost(CHMINUS) == 1

    def test_alternating_costs_one(self):
        # The single negative unrolled edge after the positive prefix.
        assert kuga_blowup_cost(ALTERNATING) == 1

    def test_positive_tree_has_no_cost(self):
        with pytest.raises(TreeError):
            kuga_blowup_cost(chplus())
        t = tree(["a", "b"], "a", [("a", "b", 1)], finite=True)
        with pytest.raises(TreeError):
            kuga_blowup_cost(t)

    def test_matches_frontier_oracle(self):
        rng = random.Random(19)
        for _ in range(300):
            t = random_nonpositive_tree(rng)
            assert kuga_blowup_cost(t) == oracle_frontier_negatives(t)


def walk(*args):
    raise AssertionError("the tree was walked again")


class TestPruningQuantitiesCached:
    def test_second_call_reads_the_cached_value(self, monkeypatch):
        t = random_nonpositive_tree(random.Random(23))
        handle = chplus()
        tower = tree(["a", "b"], "a", [("a", "b", 1)], finite=True)
        pruned = tree(["a", "b", "c", "d"], "a",
                      [("a", "b", 1), ("a", "c", -1), ("b", "d", -1)],
                      finite=True)

        def observe():
            out = [prune_depth(x) for x in (t, handle, tower, pruned)]
            out += [kuga_blowup_cost(x) for x in (t, pruned)]
            out += [f(x) for x in (tower, pruned)
                    for f in (tower_has_positive_branch, is_strictly_positive)]
            for x in (handle, tower):
                with pytest.raises(TreeError) as e:
                    kuga_blowup_cost(x)
                out.append(str(e.value))
            return out

        first = observe()
        assert first[1:4] == [None, None, 2] and first[5] == 2
        # The handle quantities start from _prunable_order and the tower
        # answers from _tower_summary, so a recomputation that walks the
        # out-index directly is seen too.
        monkeypatch.setattr(SignedTree, "out_edges", walk)
        monkeypatch.setattr(trees, "_prunable_order", walk)
        monkeypatch.setattr(trees, "_tower_summary", walk)
        assert observe() == first

    def test_truncate_fills_in_the_tower_answers(self, monkeypatch):
        h = tree(["r", "a"], "r", [("r", "a", 1), ("r", "r", -1),
                                   ("a", "r", -1), ("a", "a", -1)])
        for depth in (2, 3, 7):
            tower = truncate(h, depth)
            rebuilt = SignedTree(tower.name, tower.nodes, tower.root,
                                 tower.edges, True)
            assert tower._summary == rebuilt._summary
            assert tower._summary.nodes == len(tower.nodes)
            with monkeypatch.context() as m:
                m.setattr(trees, "_tower_summary", walk)
                assert (tower_has_positive_branch(tower),
                        is_strictly_positive(tower), prune_depth(tower),
                        kuga_blowup_cost(tower)) == oracle_tower_answers(tower)


# Prints seconds taken, characters of text and peak RSS in KiB.
HUNDRED_K_TOWER = textwrap.dedent("""
    import resource, time
    from ribboncalc import (chplus, is_strictly_positive, parse_tree,
                            prune_depth, serialize_tree,
                            tower_has_positive_branch, truncate)
    start = time.perf_counter()
    tower = truncate(chplus(), 99_999)
    assert len(tower.nodes) == 100_000
    assert tower_has_positive_branch(tower) and prune_depth(tower) is None
    assert is_strictly_positive(tower)
    text = serialize_tree(tower)
    assert parse_tree(text) == tower
    print(time.perf_counter() - start, len(text),
          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
""")


class TestDeepInputs:
    """Inputs far past the interpreter's recursion limit."""

    def test_long_positive_cycle(self):
        t = cycle(3000)
        assert is_positive(t)
        assert prune_depth(t) is None
        w = positive_witness(t)
        assert w.prefix == ("c0",) and len(w.cycle) == 3000

    def test_deep_tower(self):
        tower = truncate(chplus(), 1500)
        assert len(tower.nodes) == 1501
        assert tower_has_positive_branch(tower)
        assert prune_depth(tower) is None

    def test_long_cycle_closed_by_a_negative_edge(self):
        t = cycle(3000, last_sign=-1)
        assert not is_positive(t)
        assert prune_depth(t) == 3000
        assert kuga_blowup_cost(t) == 1

    def test_diamond_chain_counts_paths(self):
        t = diamond_chain(22)
        assert len(t.nodes) == 67
        start = time.perf_counter()
        assert kuga_blowup_cost(t) == 2 ** 22
        assert time.perf_counter() - start < 1.0
        assert prune_depth(t) == 1 + 2 * 22

    def test_hundred_thousand_node_tower(self):
        # A 100k-node chain tower fits the default node budget.  Ids are
        # short, so its text is linear in the depth; path-shaped ids would
        # take about 10^10 characters.  Run apart, to read its peak RSS.
        src = str(Path(ribboncalc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", HUNDRED_K_TOWER],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        elapsed, chars, rss_kb = proc.stdout.split()
        assert float(elapsed) < 10.0, f"{float(elapsed):.1f}s"
        assert int(chars) < 8_000_000
        assert int(rss_kb) < 300 * 1024, f"peak RSS {int(rss_kb) // 1024} MB"

    @staticmethod
    def traced(parse, text):
        """``parse(text)`` with the traced bytes it retains and its traced
        peak, measured from a baseline, so tracing already on
        (-X tracemalloc) neither counts in nor is turned off."""
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = parse(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            if not outer:
                tracemalloc.stop()
        return value, retained - base, peak - base

    def test_binary_tower_parse_memory(self):
        # The text of the 65 535-node binary tower is 2.3 MB.  Parsing it
        # once peaked at 27.9 MB traced and kept a 16.7 MB tower, when each
        # edge held its own copies of two id strings and the whole document
        # was split into one list of lines.
        binary = tree(["r"], "r", [("r", "r", 1), ("r", "r", -1)])
        text = serialize_tree(truncate(binary, 15))
        back, retained, peak = self.traced(parse_tree, text)
        assert len(back.nodes) == 2 ** 16 - 1
        assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"
        assert retained < 12e6, f"retained tower {retained / 1e6:.1f} MB"
        # parse_any picks the parser from the first keyword and reads on
        # only as far as a middle line; a list of every line's keyword
        # took its peak to 22.6 MB.
        (kind, value), _, any_peak = self.traced(parse_any, text)
        assert kind == "tree" and value == back
        assert any_peak < 1.1 * peak, (
            f"traced peak {any_peak / 1e6:.1f} MB against "
            f"{peak / 1e6:.1f} MB for parse_tree")

    def test_linear_growth(self):
        binary = tree(["r"], "r", [("r", "r", 1), ("r", "r", -1)])
        start = time.perf_counter()
        tower = truncate(binary, 15)
        assert tower_has_positive_branch(tower)
        assert not is_strictly_positive(tower)
        assert time.perf_counter() - start < 10.0
        assert len(tower.nodes) == 2 ** 16 - 1
