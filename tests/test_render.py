"""DOT rendering: structure of emitted graphs and determinism."""

import random

import pytest

from ribboncalc import (AccessoryLoop, Component, Finger, KirbyDiagram,
                        MiddleError, MiddleLevelData, chplus, diagram_dot,
                        finger_dot, tree_dot)
from ribboncalc.trees import DEFAULT_PAIR_BUDGET

from genlib import random_diagram, random_tree


class TestTreeDot:
    def test_chplus_is_one_node_with_positive_self_loop(self):
        dot = tree_dot(chplus())
        assert dot.count("->") == 1
        assert '"r" [shape=doublecircle];' in dot
        assert '"r" -> "r" [label="+" color=black style=dashed];' in dot

    def test_negative_edges_red(self):
        t = random_tree(random.Random(1))
        dot = tree_dot(t)
        negs = sum(1 for _, _, sign in t.edges if sign == -1)
        assert dot.count("color=red") == negs
        assert dot.count("color=black") == len(t.edges) - negs

    def test_back_edges_dashed(self):
        dot = tree_dot(chplus())
        assert "style=dashed" in dot


class TestFingerDot:
    def test_loop_fingers_blue(self):
        m = MiddleLevelData(2, (Finger("f1", 1, 2, "w1"),
                                Finger("f2", 2, 1, "w2")),
                            (AccessoryLoop("l1", ("f1",)),))
        dot = finger_dot(m)
        assert '1 -> 2 [label="f1" color=blue];' in dot
        assert '2 -> 1 [label="f2" color=black];' in dot
        assert dot.count("shape=circle") == 2

    def test_no_fingers(self):
        dot = finger_dot(MiddleLevelData(1, (), ()))
        assert "->" not in dot


class TestFingerDotBudget:
    def test_refuses_data_over_the_pair_budget(self):
        # One node per pair: a million pairs made a 49 MB document.  Such
        # data cannot be built, so finger_dot never sees it.
        with pytest.raises(MiddleError) as e:
            MiddleLevelData(DEFAULT_PAIR_BUDGET + 1,
                            (Finger("f1", 1, 2, "w1"),))
        assert str(e.value) == (f"pair count {DEFAULT_PAIR_BUDGET + 1} "
                                "exceeds the pair budget "
                                f"{DEFAULT_PAIR_BUDGET}")


class TestDiagramDot:
    def test_empty_diagram(self):
        dot = diagram_dot(KirbyDiagram(name="e", components=()))
        assert dot == 'graph "e" {\n  layout=circo;\n}\n'

    def test_kinds_get_distinct_shapes(self):
        d = KirbyDiagram(name="d", components=(
            Component("a", "dotted"), Component("b", "framed", -1),
            Component("p", "parenframed", 0)), dual_flag=True)
        d = d.with_links({("b", "p"): (0, 2)})
        dot = diagram_dot(d)
        assert '"a" [shape=circle label="a (dot)"];' in dot
        assert '"b" [shape=ellipse label="b [-1]"];' in dot
        assert '"p" [shape=box label="p (0)"];' in dot
        # algebraically-cancelling geometric linking drawn dashed
        assert '"b" -- "p" [label="0/2" style=dashed];' in dot

    def test_quoting(self):
        d = KirbyDiagram(name='we"ird', components=())
        assert 'graph "we\\"ird" {' in diagram_dot(d)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        rng = random.Random(7)
        for _ in range(20):
            d = random_diagram(rng)
            t = random_tree(rng)
            assert diagram_dot(d) == diagram_dot(d)
            assert tree_dot(t) == tree_dot(t)
